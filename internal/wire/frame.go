package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"openivm/internal/sqltypes"
)

// The frame layer. A connection opens with the 4-byte magic "OWP3" from
// the client; everything after is frames:
//
//	+------+----------------+=========+
//	| type | length (u32 BE)| payload |
//	+------+----------------+=========+
//
// Everything a statement pays for is binary: the request, the schema
// frame that opens a streamed result, its row batches and the trailer
// that closes it. JSON is left to Response frames, the control-plane
// answers no statement waits on. A streamed result keeps at most one
// rows frame in the server's writer while the next batch is pulled from
// the engine, so a short result leaves in one write with its trailer and
// a slow reader still exerts backpressure all the way into the operator
// tree.
const protocolMagic = "OWP3"

const (
	frameRequest  = 0x01 // binary Request (client -> server)
	frameResponse = 0x02 // JSON Response (server -> client, non-streaming)
	frameSchema   = 0x03 // binary column names: start of a streamed result
	frameRows     = 0x04 // binary row batch
	frameTrailer  = 0x05 // binary trailerFrame: end of a streamed result
)

// maxFramePayload bounds a single frame. Row frames stay near
// frameBudget, requests are human-written SQL; anything near this limit is
// a corrupt or hostile stream.
const maxFramePayload = 64 << 20

// frameBudget bounds the encoded rows of one row-batch frame, far below
// maxFramePayload: an engine batch or a drained table of wide rows goes
// out as several frames. A frame holds at least one row and ends at the
// first row that takes it past the budget.
const frameBudget = 1 << 20

// trailerFrame closes a streamed result. Error is set when execution
// failed after streaming began (rows already on the wire).
type trailerFrame struct {
	Rows         int
	RowsAffected int
	Error        string
	Code         string // SQLSTATE-style error class
}

// writeFrame emits one frame. The 5-byte header is stack-allocated; the
// payload is written as-is (callers reuse their payload buffers).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough.
// Returns the frame type and its payload (aliasing buf).
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// Binary value encoding inside a frameRows payload:
//
//	uvarint nrows, then per row: uvarint ncols, then per value a tag byte
//	and payload — null/false/true are the bare tag, ints are zigzag
//	varints, floats 8 bytes little-endian, strings uvarint length + bytes.
//
// An execPrepared request carries its parameters as one such row.
const (
	tagNull  = 0x00
	tagFalse = 0x01
	tagTrue  = 0x02
	tagInt   = 0x03
	tagFloat = 0x04
	tagStr   = 0x05
)

// appendRowFrame encodes the first n rows that fit one frame (frameBudget)
// as a row-batch payload, reusing buf's storage. The rows are encoded
// past a reserved header and the row count is written right-aligned into
// it, so payload is a suffix of out; keep out to reuse on the next frame.
func appendRowFrame(buf []byte, rows []sqltypes.Row) (out, payload []byte, n int) {
	const hdr = binary.MaxVarintLen64
	buf = append(buf[:0], make([]byte, hdr)...)
	for n < len(rows) && (n == 0 || len(buf)-hdr < frameBudget) {
		buf = appendRow(buf, rows[n])
		n++
	}
	var count [hdr]byte
	k := binary.PutUvarint(count[:], uint64(n))
	copy(buf[hdr-k:], count[:k])
	return buf, buf[hdr-k:], n
}

// appendRow encodes one row: its value count, then each value.
func appendRow(buf []byte, r []sqltypes.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		switch v.T {
		case sqltypes.TypeBool:
			if v.Bool() {
				buf = append(buf, tagTrue)
			} else {
				buf = append(buf, tagFalse)
			}
		case sqltypes.TypeInt:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, v.I)
		case sqltypes.TypeFloat:
			buf = append(buf, tagFloat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		case sqltypes.TypeString:
			buf = appendString(append(buf, tagStr), v.S)
		default:
			buf = append(buf, tagNull)
		}
	}
	return buf
}

// decodeRowBatch decodes a frameRows payload. Strings are copied out of
// the payload (which aliases a reused read buffer).
func decodeRowBatch(p []byte) ([][]sqltypes.Value, error) {
	nrows, n := binary.Uvarint(p)
	if n <= 0 || nrows > uint64(len(p)) { // every row costs ≥1 byte
		return nil, fmt.Errorf("wire: corrupt row batch header")
	}
	p = p[n:]
	rows := make([][]sqltypes.Value, 0, nrows)
	// Rows are carved out of one slab per batch rather than allocated
	// one by one — on a 100k-row stream that halves the decode allocs.
	var slab []sqltypes.Value
	for i := uint64(0); i < nrows; i++ {
		ncols, n := binary.Uvarint(p)
		if n <= 0 || ncols > uint64(len(p)) { // every value costs ≥1 byte
			return nil, fmt.Errorf("wire: corrupt row header")
		}
		p = p[n:]
		if uint64(len(slab)) < ncols {
			// Each encoded value costs at least one byte, so the remaining
			// payload bounds how many values can still appear — a hostile
			// header must not be able to force an arbitrary allocation.
			want := (nrows - i) * ncols
			if lim := uint64(len(p)) + 1; want > lim {
				want = lim
			}
			if want < ncols {
				return nil, fmt.Errorf("wire: corrupt row header")
			}
			slab = make([]sqltypes.Value, want)
		}
		row := slab[:ncols:ncols]
		slab = slab[ncols:]
		var err error
		if p, err = decodeValues(p, row); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// decodeValues fills row from the values at the front of p and returns
// the rest of p.
func decodeValues(p []byte, row []sqltypes.Value) ([]byte, error) {
	for j := range row {
		if len(p) == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		tag := p[0]
		p = p[1:]
		switch tag {
		case tagNull:
			row[j] = sqltypes.Null
		case tagFalse:
			row[j] = sqltypes.NewBool(false)
		case tagTrue:
			row[j] = sqltypes.NewBool(true)
		case tagInt:
			v, n := binary.Varint(p)
			if n <= 0 {
				return nil, fmt.Errorf("wire: corrupt int value")
			}
			p = p[n:]
			row[j] = sqltypes.NewInt(v)
		case tagFloat:
			if len(p) < 8 {
				return nil, io.ErrUnexpectedEOF
			}
			row[j] = sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
			p = p[8:]
		case tagStr:
			ln, n := binary.Uvarint(p)
			if n <= 0 || uint64(len(p)-n) < ln {
				return nil, fmt.Errorf("wire: corrupt string value")
			}
			p = p[n:]
			row[j] = sqltypes.NewString(string(p[:ln]))
			p = p[ln:]
		default:
			return nil, fmt.Errorf("wire: unknown value tag 0x%02x", tag)
		}
	}
	return p, nil
}

// The request, schema and trailer payloads are sequences of fields:
// strings are a uvarint byte length and the raw bytes (any bytes, valid
// UTF-8 or not), counts and numbers are uvarints, parameters are one row
// of the value encoding above. A request is its op byte and that op's
// fields, in appendRequest's order; a schema frame is the column names;
// a trailer is rows and rowsAffected, then error and code.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

// appendRequest encodes req as a request frame payload.
func appendRequest(buf []byte, req *Request) []byte {
	buf = append(buf, byte(req.Op))
	switch req.Op {
	case opExec:
		buf = appendString(buf, req.SQL)
	case opExecPrepared:
		buf = appendRow(appendString(buf, req.Name), req.Params)
	case opPrepare:
		buf = appendString(appendString(buf, req.Name), req.SQL)
	case opDeallocate:
		buf = appendString(buf, req.Name)
	case opSchema:
		buf = appendString(buf, req.Table)
	case opCancel:
		buf = appendString(buf, req.Token)
	case opDrain:
		buf = binary.AppendUvarint(appendStrings(buf, req.Tables), req.Ack)
	}
	return buf
}

// decodeRequest decodes a request frame payload. Strings are copied out
// of p, which aliases a reused read buffer.
func decodeRequest(p []byte) (Request, error) {
	if len(p) == 0 {
		return Request{}, fmt.Errorf("wire: malformed request")
	}
	req := Request{Op: opcode(p[0])}
	d := fieldReader{p: p[1:]}
	switch req.Op {
	case opPing, opTables, opStats, opToken:
	case opExec:
		req.SQL = d.string()
	case opExecPrepared:
		req.Name = d.string()
		req.Params = d.row()
	case opPrepare:
		req.Name = d.string()
		req.SQL = d.string()
	case opDeallocate:
		req.Name = d.string()
	case opSchema:
		req.Table = d.string()
	case opCancel:
		req.Token = d.string()
	case opDrain:
		req.Tables = d.strings()
		req.Ack = d.uvarint()
	default:
		return Request{}, fmt.Errorf("wire: unknown op 0x%02x", p[0])
	}
	return req, d.end("request")
}

func appendTrailer(buf []byte, tr *trailerFrame) []byte {
	buf = binary.AppendUvarint(buf, uint64(tr.Rows))
	buf = binary.AppendUvarint(buf, uint64(tr.RowsAffected))
	return appendString(appendString(buf, tr.Error), tr.Code)
}

func decodeTrailer(p []byte) (trailerFrame, error) {
	d := fieldReader{p: p}
	tr := trailerFrame{
		Rows:         int(d.uvarint()),
		RowsAffected: int(d.uvarint()),
		Error:        d.string(),
		Code:         d.string(),
	}
	return tr, d.end("trailer frame")
}

func decodeSchema(p []byte) ([]string, error) {
	d := fieldReader{p: p}
	cols := d.strings()
	return cols, d.end("schema frame")
}

// fieldReader reads the fields of a request, schema or trailer payload.
// The first malformed field stops it: later reads return zero values and
// end reports the failure. A count or length is checked against what is
// left of the payload before anything is allocated for it.
type fieldReader struct {
	p   []byte
	bad bool
}

func (d *fieldReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if d.bad || n <= 0 {
		d.bad = true
		return 0
	}
	d.p = d.p[n:]
	return v
}

// count reads an element count or a string's length. Every element
// costs at least one byte, so a count beyond the remaining payload is
// corrupt.
func (d *fieldReader) count() int {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *fieldReader) string() string {
	n := d.count()
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}

func (d *fieldReader) strings() []string {
	n := d.count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

func (d *fieldReader) row() []sqltypes.Value {
	n := d.count()
	if n == 0 {
		return nil
	}
	row := make([]sqltypes.Value, n)
	var err error
	if d.p, err = decodeValues(d.p, row); err != nil {
		d.bad = true
	}
	return row
}

// end reports a malformed field, or bytes left after the last one.
func (d *fieldReader) end(what string) error {
	if d.bad || len(d.p) > 0 {
		return fmt.Errorf("wire: malformed %s", what)
	}
	return nil
}
