package sqltypes

import (
	"bytes"
	"math"
	"math/big"
	"strings"
	"testing"
	"unsafe"
)

// TestValueIs32Bytes pins the layout: a type tag, one payload word that
// carries INTEGER, DOUBLE and BOOLEAN, and a string.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

// edgePayloads is one value of every payload edge the layout must carry.
func edgePayloads() []Value {
	return []Value{
		NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.SmallestNonzeroFloat64),
		NewBool(true), NewBool(false),
		NewString(""), NewString("\xff\xfe\x00"), NewString(strings.Repeat("z", 70000)),
	}
}

// keyOrderCases is every edge payload plus the integers around 2^53 and
// 2^63 and the DOUBLEs next to them, where a float64 image rounds.
func keyOrderCases() []Value {
	const p53 = 1 << 53
	return append(edgePayloads(), Null,
		NewInt(p53-1), NewInt(p53), NewInt(p53+1), NewInt(p53+2), NewInt(-p53-1),
		NewInt(math.MaxInt64-1), NewInt(math.MinInt64+1), NewInt(1<<62+1),
		NewFloat(p53), NewFloat(p53+2), NewFloat(1<<63), NewFloat(-(1 << 63)),
		NewFloat(math.Nextafter(1<<63, 0)), NewFloat(0.5), NewInt(0), NewInt(1), NewFloat(1),
		NewFloat(math.Float64frombits(0xFFF8000000000000)), // a negative NaN
		NewFloat(math.Float64frombits(0x7FF0000000000001)), // a signalling NaN
	)
}

// TestEncodeKeyAgreesWithCompare: for every pair, alone and followed by
// each kind of next column, the key bytes order as Compare does and are
// equal exactly when Compare calls the values equal.
func TestEncodeKeyAgreesWithCompare(t *testing.T) {
	vals := keyOrderCases()
	next := []Value{Null, NewBool(false), NewInt(0), NewString("")}
	rows := make([]Row, 0, len(vals)*(len(next)+1))
	for _, v := range vals {
		rows = append(rows, Row{v})
		for _, n := range next {
			rows = append(rows, Row{v, n})
		}
	}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = EncodeKey(nil, r...)
	}
	for i, a := range rows {
		for j, b := range rows {
			if len(a) != len(b) {
				continue
			}
			if got, want := bytes.Compare(keys[i], keys[j]), sign(CompareRows(a, b)); got != want {
				t.Errorf("%.40q vs %.40q: keys order %d, CompareRows %d", a.String(), b.String(), got, want)
			}
		}
	}
}

// exactCmp orders two numbers with math/big, NaN above every number.
func exactCmp(a, b Value) int {
	nan := func(v Value) bool { return v.T == TypeFloat && math.IsNaN(v.Float()) }
	switch {
	case nan(a) && nan(b):
		return 0
	case nan(a):
		return 1
	case nan(b):
		return -1
	}
	exact := func(v Value) *big.Float {
		if v.T == TypeInt {
			return new(big.Float).SetInt64(v.I)
		}
		return new(big.Float).SetFloat64(v.Float())
	}
	return exact(a).Cmp(exact(b))
}

// TestCompareBigIntegersExactly: distinct BIGINTs above 2^53 stay distinct
// (9007199254740993 <> 9007199254740992), and an INTEGER meets a DOUBLE
// without rounding.
func TestCompareBigIntegersExactly(t *testing.T) {
	const p53 = 1 << 53
	vals := []Value{
		NewInt(p53 - 1), NewInt(p53), NewInt(p53 + 1), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(p53), NewFloat(1 << 63), NewFloat(-(1 << 63)), NewInt(1 << 51), NewFloat(1<<51 + 0.5), NewFloat(-1.5),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := sign(Compare(a, b)), exactCmp(a, b); got != want {
				t.Errorf("Compare(%s %v, %s %v) = %d, want %d", a.T, a, b.T, b, got, want)
			}
			if ka, kb := KeyString(a), KeyString(b); (ka == kb) != (exactCmp(a, b) == 0) {
				t.Errorf("%s %v and %s %v: keys equal %v, values equal %v", a.T, a, b.T, b, ka == kb, exactCmp(a, b) == 0)
			}
		}
	}
}

// TestNaNOrder: NaN equals NaN, whatever its bits, and sorts above every
// other number, +Inf and MaxInt64 included; every NaN has one key.
func TestNaNOrder(t *testing.T) {
	nans := []Value{
		NewFloat(math.NaN()),
		NewFloat(math.Float64frombits(0xFFF8000000000000)),
		NewFloat(math.Float64frombits(0x7FF0000000000001)),
	}
	others := []Value{NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(1), NewInt(math.MaxInt64), NewInt(math.MinInt64)}
	for _, n := range nans {
		for _, m := range nans {
			if Compare(n, m) != 0 || KeyString(n) != KeyString(m) {
				t.Errorf("NaN %x vs NaN %x: Compare %d, keys %x / %x", n.I, m.I, Compare(n, m), KeyString(n), KeyString(m))
			}
		}
		for _, o := range others {
			if Compare(n, o) != 1 || Compare(o, n) != -1 || KeyString(n) <= KeyString(o) {
				t.Errorf("NaN %x must sort above %s %v", n.I, o.T, o)
			}
		}
	}
}
