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

// String renders the row as a pipe-separated line (shell output format).
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// EncodeKey appends a binary encoding of the values to dst such that
// byte-wise lexicographic comparison of encodings matches comparing the
// rows value by value (Compare), shorter prefix first.
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
// Compare; -0.0 encodes as 0, which it equals, and every NaN as one NaN
// above +Inf. An INTEGER that float64 would round (|i| > 2^53) encodes as
// the largest float below it, then 0x04 (above every tag that can follow)
// and its 2-byte distance from that float, so distinct INTEGERs keep
// distinct keys in Compare's order.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.T {
		case TypeNull:
			dst = append(dst, 0x00)
		case TypeBool:
			dst = appendKeyBool(dst, v.Bool())
		case TypeInt:
			dst = appendKeyInt(dst, v.I)
		case TypeFloat:
			dst = appendKeyNumber(dst, v.Float())
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

func appendKeyInt(dst []byte, i int64) []byte {
	const exact = 1 << 53
	if -exact <= i && i <= exact {
		return appendKeyNumber(dst, float64(i))
	}
	f := float64(i)
	if f >= 1<<63 || int64(f) > i {
		f = math.Nextafter(f, math.Inf(-1))
	}
	dst = appendKeyNumber(dst, f)
	if d := i - int64(f); d != 0 {
		dst = append(dst, 0x04, byte(d>>8), byte(d))
	}
	return dst
}

func appendKeyNumber(dst []byte, f float64) []byte {
	dst = append(dst, 0x02)
	switch {
	case f == 0:
		f = 0 // -0.0 equals 0 and must encode as it: one key, one group
	case f != f:
		f = math.NaN() // every NaN is one key, above +Inf
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
