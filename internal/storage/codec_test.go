package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

func sampleRow() sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(42),
		sqltypes.NewString("hello"),
		sqltypes.NewFloat(3.5),
		sqltypes.NewBool(true),
		sqltypes.Null,
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	rec := &CommitRecord{
		CommitTS: 77,
		Ops: []RedoOp{
			{Table: "t", Kind: OpInsert, Row: sampleRow()},
			{Table: "t", Kind: OpDelete, Row: sampleRow()},
			{Table: "u", Kind: OpUpsert, Row: sqltypes.Row{sqltypes.NewInt(-9)}},
			{Table: "u", Kind: OpTruncate},
		},
	}
	payload := appendCommitPayload(nil, 12, rec)
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 12 || got.Commit == nil || got.DDL != nil {
		t.Fatalf("decoded frame header wrong: %+v", got)
	}
	if !reflect.DeepEqual(got.Commit, rec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Commit, rec)
	}

	// Record type 3 is no longer written, but data directories of older
	// engines hold it: same body, replayed as a commit.
	legacy := append([]byte{3}, payload[1:]...)
	got, err = DecodeRecord(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Commit, rec) {
		t.Fatalf("type-3 record decoded to %+v, want %+v", got.Commit, rec)
	}
}

func TestDDLRecordRoundTrip(t *testing.T) {
	recs := []*DDLRecord{
		{
			Kind: DDLCreateTable, Name: "t",
			Columns: []ColumnDef{
				{Name: "a", Type: sqltypes.TypeInt, NotNull: true},
				{Name: "b", Type: sqltypes.TypeString, HasDefault: true, Default: sqltypes.NewString("x")},
			},
			PrimaryKey: []string{"a"},
			Rows:       []sqltypes.Row{sampleRow()},
		},
		{Kind: DDLCreateIndex, Name: "idx", Table: "t", IdxColumns: []string{"b", "a"}, Unique: true},
		{Kind: DDLCreateView, Name: "v", SQL: "SELECT a FROM t"},
		{Kind: DDLCreateMatView, Name: "mv", SQL: "SELECT a, COUNT(*) FROM t GROUP BY a"},
		{Kind: DDLDrop, Name: "t", ObjectKind: "TABLE"},
		{Kind: DDLCreateTrigger, Name: "cap", Table: "t", Events: []string{"INSERT", "UPDATE"}, Handler: "ivm_capture"},
	}
	for _, rec := range recs {
		payload := appendDDLPayload(nil, 5, rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%v: %v", rec.Kind, err)
		}
		if got.DDL == nil || got.Commit != nil {
			t.Fatalf("%v: wrong record shape", rec.Kind)
		}
		if !reflect.DeepEqual(got.DDL, rec) {
			t.Fatalf("%v round trip mismatch:\n got %+v\nwant %+v", rec.Kind, got.DDL, rec)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	payload := appendCommitPayload(nil, 1, &CommitRecord{CommitTS: 1})
	frame := frameRecord(nil, payload)

	// Clean read first.
	got, rest, ok := readFrame(frame)
	if !ok || len(rest) != 0 || !bytes.Equal(got, payload) {
		t.Fatal("clean frame did not read back")
	}
	// Any single-byte flip must fail the CRC (or the length prefix).
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if p, _, ok := readFrame(bad); ok && bytes.Equal(p, payload) {
			t.Fatalf("byte flip at %d went undetected", i)
		}
	}
	// Truncation at every prefix must read as torn, never panic.
	for i := 0; i < len(frame); i++ {
		if _, _, ok := readFrame(frame[:i]); ok {
			t.Fatalf("truncated frame of %d bytes accepted", i)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xff},
		{9, 9, 9, 9, 9, 9, 9, 9, 9},
		bytes.Repeat([]byte{0x80}, 40), // unterminated varints
	}
	for _, c := range cases {
		if _, err := DecodeRecord(c); err == nil {
			t.Fatalf("garbage payload %v decoded without error", c)
		}
	}
	// Truncations of a valid payload must error, not panic.
	payload := appendCommitPayload(nil, 3, &CommitRecord{
		CommitTS: 9,
		Ops:      []RedoOp{{Table: "t", Kind: OpInsert, Row: sampleRow()}},
	})
	for i := 0; i < len(payload); i++ {
		if _, err := DecodeRecord(payload[:i]); err == nil {
			t.Fatalf("truncated payload of %d bytes decoded without error", i)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	snap := &CheckpointData{
		LastLSN: 99,
		LastTS:  1234,
		Tables: []TableSnap{
			{
				Name: "t",
				Columns: []ColumnDef{
					{Name: "a", Type: sqltypes.TypeInt, NotNull: true},
					{Name: "b", Type: sqltypes.TypeString},
				},
				PrimaryKey: []string{"a"},
				Indexes:    []IndexDef{{Name: "i", Columns: []string{"b"}, Unique: false}},
				Rows: []sqltypes.Row{
					{sqltypes.NewInt(1), sqltypes.NewString("x")},
					{sqltypes.NewInt(2), sqltypes.Null},
				},
			},
			{Name: "empty", Columns: []ColumnDef{{Name: "c", Type: sqltypes.TypeInt}}},
		},
		Views:    []ViewSnap{{Name: "v", SQL: "SELECT a FROM t"}},
		MatViews: []ViewSnap{{Name: "mv", SQL: "SELECT b FROM t"}},
		Triggers: []TriggerSnap{{Name: "cap", Table: "t", Events: []string{"INSERT", "DELETE"}, Handler: "ivm_capture"}},
	}
	img := encodeCheckpoint(snap)
	got, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	// nil-vs-empty slice differences are irrelevant on disk: compare by
	// canonical re-encoding plus spot checks.
	if !bytes.Equal(encodeCheckpoint(got), img) {
		t.Fatalf("checkpoint re-encode differs:\n got %+v\nwant %+v", got, snap)
	}
	if got.LastLSN != 99 || got.LastTS != 1234 || len(got.Tables) != 2 ||
		len(got.Tables[0].Rows) != 2 || got.Tables[0].Rows[1][1] != sqltypes.Null ||
		len(got.Views) != 1 || len(got.MatViews) != 1 ||
		!reflect.DeepEqual(got.Triggers, snap.Triggers) {
		t.Fatalf("checkpoint content mismatch: %+v", got)
	}
	// A checkpoint written before triggers were logged ends after the
	// materialized views.
	snap.Triggers = nil
	old := encodeCheckpoint(snap)
	old = old[:len(old)-5] // the empty trigger section (one count byte) and the CRC
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old[len(ckptMagic):], crcTable))
	if got, err := decodeCheckpoint(old); err != nil || len(got.Triggers) != 0 || len(got.MatViews) != 1 {
		t.Fatalf("pre-trigger checkpoint: %+v, %v", got, err)
	}
	// Every single-byte flip must be rejected by CRC or structure checks.
	for i := range img {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x01
		if _, err := decodeCheckpoint(bad); err == nil {
			t.Fatalf("checkpoint byte flip at %d went undetected", i)
		}
	}
	for i := 0; i < len(img); i++ {
		if _, err := decodeCheckpoint(img[:i]); err == nil {
			t.Fatalf("truncated checkpoint of %d bytes accepted", i)
		}
	}
}

// FuzzWALDecode drives the record decoder with arbitrary payloads: it
// must never panic, and anything it accepts must survive an
// encode/decode round trip (re-encoding is a fixed point — the decoder
// tolerates non-minimal varints, so byte equality with the original
// input is not required).
func FuzzWALDecode(f *testing.F) {
	f.Add(appendCommitPayload(nil, 1, &CommitRecord{
		CommitTS: 7,
		Ops: []RedoOp{
			{Table: "kv", Kind: OpInsert, Row: sampleRow()},
			{Table: "kv", Kind: OpTruncate},
		},
	}))
	f.Add(append([]byte{3}, appendCommitPayload(nil, 2, &CommitRecord{})[1:]...)) // legacy type-3 record
	f.Add(appendDDLPayload(nil, 5, &DDLRecord{
		Kind: DDLCreateTrigger, Name: "cap", Table: "orders",
		Events: []string{"INSERT", "DELETE", "UPDATE"}, Handler: "ivm_capture",
	}))
	f.Add(appendDDLPayload(nil, 3, &DDLRecord{
		Kind: DDLCreateTable, Name: "t",
		Columns:    []ColumnDef{{Name: "a", Type: sqltypes.TypeInt}},
		PrimaryKey: []string{"a"},
	}))
	f.Add(appendDDLPayload(nil, 4, &DDLRecord{Kind: DDLDrop, Name: "x", ObjectKind: "VIEW"}))
	f.Add([]byte{})
	encode := func(rec *Record) []byte {
		switch {
		case rec.Commit != nil:
			return appendCommitPayload(nil, rec.LSN, rec.Commit)
		case rec.DDL != nil:
			return appendDDLPayload(nil, rec.LSN, rec.DDL)
		}
		return nil
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		reenc := encode(rec)
		if reenc == nil {
			t.Fatalf("decoded record with no body: %+v", rec)
		}
		rec2, err := DecodeRecord(reenc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v\n in  %x\n out %x", err, payload, reenc)
		}
		if !bytes.Equal(encode(rec2), reenc) {
			t.Fatalf("re-encoding is not a fixed point:\n in  %x\n out %x\n out2 %x", payload, reenc, encode(rec2))
		}
	})
}

// samePayload compares two values by the payload their type reads, a
// DOUBLE by its IEEE bits, so -0.0 and NaN are checked too.
func samePayload(a, b sqltypes.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case sqltypes.TypeInt:
		return a.I == b.I
	case sqltypes.TypeFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.TypeBool:
		return a.Bool() == b.Bool()
	case sqltypes.TypeString:
		return a.S == b.S
	}
	return true
}

// TestValuePayloadsRoundTrip: every payload edge survives the codec, and
// a row of them encodes to the bytes WALs and checkpoints already hold.
func TestValuePayloadsRoundTrip(t *testing.T) {
	row := sqltypes.Row{sqltypes.NewInt(-1), sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewFloat(1.5), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewString(""), sqltypes.NewString("\xff\x00"), sqltypes.Null}
	const want = "0c020102ffffffffffffffffff0102feffffffffffffffff0103000000000000f83f03000000000000008003010000000000f87f03000000000000f0ff0101010004000402ff0000"
	if got := hex.EncodeToString(appendRow(nil, row)); got != want {
		t.Errorf("row encodes as\n%s, want\n%s", got, want)
	}
	row = append(row, sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.SmallestNonzeroFloat64),
		sqltypes.NewString(strings.Repeat("z", 70000)))
	for _, v := range row {
		r := &reader{b: appendValue(nil, v)}
		got, err := r.value()
		if err != nil || !samePayload(got, v) || r.off != len(r.b) {
			t.Errorf("%s %.20q decodes as %.20q (%v)", v.T, v.String(), got.String(), err)
		}
	}
}
