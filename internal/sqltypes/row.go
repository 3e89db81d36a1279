package sqltypes

import (
	"encoding/binary"
	"math"
	"strings"
)

// Row is a tuple of values. Rows are passed by reference through the
// volcano iterators; operators that buffer rows must Clone them.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a shallow
// slice copy suffices).
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Equal reports element-wise equality under Compare semantics.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !Equal(r[i], o[i]) {
			return false
		}
	}
	return true
}

// CompareRows orders two rows lexicographically.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// String renders the row as a pipe-separated line (shell output format).
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// EncodeKey appends a binary encoding of the values to dst such that
// byte-wise lexicographic comparison of encodings matches CompareRows.
// It is used for hash-table and index keys.
//
// Encoding per value: 1 tag byte, then payload.
//
//	NULL   -> 0x00
//	BOOL   -> 0x01, 0x00/0x01
//	number -> 0x02, 8-byte order-preserving float encoding
//	string -> 0x03, escaped bytes (0x00 -> 0x00 0xFF), terminator 0x00 0x00
//
// Ints and floats share tag 0x02 so that 1 and 1.0 group together, matching
// Compare's numeric promotion; -0.0 encodes as 0, which it equals.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.T {
		case TypeNull:
			dst = append(dst, 0x00)
		case TypeBool:
			dst = appendKeyBool(dst, v.B)
		case TypeInt, TypeFloat:
			dst = appendKeyNumber(dst, v.AsFloat())
		case TypeString:
			dst = appendKeyString(dst, v.S)
		default:
			dst = append(dst, 0x00)
		}
	}
	return dst
}

func appendKeyBool(dst []byte, b bool) []byte {
	dst = append(dst, 0x01)
	if b {
		return append(dst, 0x01)
	}
	return append(dst, 0x00)
}

func appendKeyNumber(dst []byte, f float64) []byte {
	dst = append(dst, 0x02)
	if f == 0 {
		f = 0 // -0.0 equals 0 and must encode as it: one key, one group
	}
	bits := math.Float64bits(f)
	// Flip so that lexicographic byte order equals numeric order.
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

func appendKeyString(dst []byte, s string) []byte {
	dst = append(dst, 0x03)
	for i := 0; i < len(s); i++ {
		c := s[i]
		dst = append(dst, c)
		if c == 0x00 {
			dst = append(dst, 0xFF)
		}
	}
	return append(dst, 0x00, 0x00)
}

// KeyString returns EncodeKey as a string, suitable as a map key.
func KeyString(vals ...Value) string {
	return string(EncodeKey(nil, vals...))
}

// PartitionRows splits rows into at most parts contiguous, near-equal
// sub-slices — the unit of work of the executor's parallel partitioned
// scan. The partitions alias the input (no row is copied), cover it
// exactly and in order, and are all non-empty; fewer than parts slices
// are returned when there are not enough rows to go around.
func PartitionRows(rows []Row, parts int) [][]Row {
	if parts > len(rows) {
		parts = len(rows)
	}
	if parts <= 1 {
		if len(rows) == 0 {
			return nil
		}
		return [][]Row{rows}
	}
	out := make([][]Row, parts)
	for i := range out {
		lo, hi := i*len(rows)/parts, (i+1)*len(rows)/parts
		out[i] = rows[lo:hi]
	}
	return out
}
