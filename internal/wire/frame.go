package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"openivm/internal/sqltypes"
)

// The frame layer. A connection opens with the 4-byte magic "OWP2" from
// the client; everything after is frames:
//
//	+------+----------------+=========+
//	| type | length (u32 BE)| payload |
//	+------+----------------+=========+
//
// Request and Response payloads are JSON, one frame per message; row
// batches are a compact binary encoding so a large
// result never passes through the JSON marshaller. The server answers a
// streaming exec with one schema frame, any number of row-batch frames
// and a trailer — each batch is written (and flushed) before the next is
// pulled from the engine, so a slow reader exerts backpressure all the
// way into the operator tree.
const magicV2 = "OWP2"

const (
	frameRequest  = 0x01 // JSON Request (client -> server)
	frameResponse = 0x02 // JSON Response (server -> client, non-streaming)
	frameSchema   = 0x03 // JSON schemaFrame: start of a streamed result
	frameRows     = 0x04 // binary row batch
	frameTrailer  = 0x05 // JSON trailerFrame: end of a streamed result
)

// maxFramePayload bounds a single frame. Row batches are sized by the
// session's batch_size, requests are human-written SQL; anything near
// this limit is a corrupt or hostile stream.
const maxFramePayload = 64 << 20

// schemaFrame opens a streamed result.
type schemaFrame struct {
	Columns []string `json:"columns"`
}

// trailerFrame closes a streamed result. Error is set when execution
// failed after streaming began (rows already on the wire).
type trailerFrame struct {
	Rows         int    `json:"rows"`
	RowsAffected int    `json:"rowsAffected,omitempty"`
	Error        string `json:"error,omitempty"`
	Code         string `json:"code,omitempty"` // SQLSTATE-style error class
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
const (
	tagNull  = 0x00
	tagFalse = 0x01
	tagTrue  = 0x02
	tagInt   = 0x03
	tagFloat = 0x04
	tagStr   = 0x05
)

// appendRowBatch encodes rows onto buf and returns the extended slice.
func appendRowBatch(buf []byte, rows []sqltypes.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		for _, v := range r {
			switch v.T {
			case sqltypes.TypeBool:
				if v.B {
					buf = append(buf, tagTrue)
				} else {
					buf = append(buf, tagFalse)
				}
			case sqltypes.TypeInt:
				buf = append(buf, tagInt)
				buf = binary.AppendVarint(buf, v.I)
			case sqltypes.TypeFloat:
				buf = append(buf, tagFloat)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			case sqltypes.TypeString:
				buf = append(buf, tagStr)
				buf = binary.AppendUvarint(buf, uint64(len(v.S)))
				buf = append(buf, v.S...)
			default:
				buf = append(buf, tagNull)
			}
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
		rows = append(rows, row)
	}
	return rows, nil
}
