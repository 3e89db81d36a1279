package sqltypes

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull: "NULL", TypeBool: "BOOLEAN", TypeInt: "INTEGER",
		TypeFloat: "DOUBLE", TypeString: "VARCHAR", TypeAny: "ANY",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INTEGER": TypeInt, "int": TypeInt, "BIGINT": TypeInt, "SERIAL": TypeInt,
		"VARCHAR": TypeString, "text": TypeString, "DATE": TypeString,
		"BOOLEAN": TypeBool, "bool": TypeBool,
		"DOUBLE": TypeFloat, "DECIMAL": TypeFloat, "real": TypeFloat,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil {
			t.Fatalf("ParseType(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := ParseType("BLOB7"); err == nil {
		t.Error("ParseType(BLOB7) should fail")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-42), "-42"},
		{NewFloat(1.5), "1.5"},
		{NewFloat(3), "3.0"},
		{NewString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSQLLiteralRoundtripQuotes(t *testing.T) {
	v := NewString("it's a 'test'")
	if got, want := v.SQLLiteral(), "'it''s a ''test'''"; got != want {
		t.Errorf("SQLLiteral = %q, want %q", got, want)
	}
	if got, want := NewBool(true).SQLLiteral(), "TRUE"; got != want {
		t.Errorf("SQLLiteral = %q, want %q", got, want)
	}
	if got, want := Null.SQLLiteral(), "NULL"; got != want {
		t.Errorf("SQLLiteral = %q, want %q", got, want)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// NULL < bool < numbers < strings, numbers compare across int/float.
	ordered := []Value{
		Null, NewBool(false), NewBool(true),
		NewInt(-5), NewFloat(-1.5), NewInt(0), NewFloat(0.5), NewInt(1),
		NewFloat(1.5), NewInt(2), NewString("a"), NewString("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if sign(got) != want {
				t.Errorf("Compare(%v,%v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareMixedNumeric(t *testing.T) {
	if Compare(NewInt(1), NewFloat(1.0)) != 0 {
		t.Error("1 should equal 1.0")
	}
	if Compare(NewInt(2), NewFloat(1.5)) != 1 {
		t.Error("2 > 1.5")
	}
}

func TestCompareSQLNullUnknown(t *testing.T) {
	if _, ok := CompareSQL(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if _, ok := CompareSQL(NewInt(1), Null); ok {
		t.Error("NULL comparison must be unknown")
	}
	if c, ok := CompareSQL(NewInt(1), NewInt(2)); !ok || c >= 0 {
		t.Error("1 < 2 must be known")
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   byte
		a, b int64
		want int64
	}{
		{'+', 2, 3, 5}, {'-', 2, 3, -1}, {'*', 4, 3, 12},
		{'/', 7, 2, 3}, {'%', 7, 2, 1},
	}
	for _, c := range cases {
		got, err := Arith(c.op, NewInt(c.a), NewInt(c.b))
		if err != nil {
			t.Fatalf("Arith(%c): %v", c.op, err)
		}
		if got.T != TypeInt || got.I != c.want {
			t.Errorf("%d %c %d = %v, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	got, err := Arith('+', NewInt(1), NewFloat(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got.T != TypeFloat || got.Float() != 1.5 {
		t.Errorf("1 + 0.5 = %v, want 1.5", got)
	}
}

func TestArithNullPropagation(t *testing.T) {
	for _, op := range []byte{'+', '-', '*', '/', '%'} {
		got, err := Arith(op, Null, NewInt(1))
		if err != nil || !got.IsNull() {
			t.Errorf("NULL %c 1 = %v, %v; want NULL", op, got, err)
		}
	}
}

func TestArithDivZeroIsNull(t *testing.T) {
	for _, b := range []Value{NewInt(0), NewFloat(0)} {
		got, err := Arith('/', NewInt(1), b)
		if err != nil || !got.IsNull() {
			t.Errorf("1 / %v = %v, %v; want NULL", b, got, err)
		}
	}
}

func TestArithStringConcat(t *testing.T) {
	got, err := Arith('+', NewString("a"), NewString("b"))
	if err != nil || got.S != "ab" {
		t.Errorf("'a'+'b' = %v, %v", got, err)
	}
	if _, err := Arith('*', NewString("a"), NewInt(1)); err == nil {
		t.Error("'a' * 1 should error")
	}
}

func TestNeg(t *testing.T) {
	if v, _ := Neg(NewInt(5)); v.I != -5 {
		t.Errorf("Neg(5) = %v", v)
	}
	if v, _ := Neg(NewFloat(1.5)); v.Float() != -1.5 {
		t.Errorf("Neg(1.5) = %v", v)
	}
	if v, _ := Neg(Null); !v.IsNull() {
		t.Errorf("Neg(NULL) = %v", v)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(string) should error")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		t    Type
		want Value
	}{
		{NewString("42"), TypeInt, NewInt(42)},
		{NewString("1.5"), TypeFloat, NewFloat(1.5)},
		{NewString("true"), TypeBool, NewBool(true)},
		{NewInt(1), TypeBool, NewBool(true)},
		{NewInt(0), TypeBool, NewBool(false)},
		{NewFloat(3.7), TypeInt, NewInt(3)},
		{NewInt(3), TypeFloat, NewFloat(3)},
		{NewInt(42), TypeString, NewString("42")},
		{Null, TypeInt, Null},
	}
	for _, c := range cases {
		got, err := Cast(c.v, c.t)
		if err != nil {
			t.Fatalf("Cast(%v, %v): %v", c.v, c.t, err)
		}
		if !Equal(got, c.want) || got.T != c.want.T {
			t.Errorf("Cast(%v, %v) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
	if _, err := Cast(NewString("zzz"), TypeInt); err == nil {
		t.Error("Cast('zzz', INT) should error")
	}
}

func TestCoerceToColumn(t *testing.T) {
	if v, err := CoerceToColumn(NewInt(1), TypeFloat); err != nil || v.T != TypeFloat {
		t.Errorf("int->float coerce: %v %v", v, err)
	}
	if v, err := CoerceToColumn(NewString("9"), TypeInt); err != nil || v.I != 9 {
		t.Errorf("string->int coerce: %v %v", v, err)
	}
	if _, err := CoerceToColumn(NewString("x"), TypeInt); err == nil {
		t.Error("bad string->int coerce should error")
	}
}

func TestRowEqualClone(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), Null}
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone must equal original")
	}
	c[0] = NewInt(2)
	if r.Equal(c) {
		t.Error("mutating clone must not affect original")
	}
	if r.Equal(Row{NewInt(1)}) {
		t.Error("rows of different length are unequal")
	}
}

func TestCompareRowsLexicographic(t *testing.T) {
	a := Row{NewInt(1), NewString("b")}
	b := Row{NewInt(1), NewString("c")}
	if CompareRows(a, b) >= 0 {
		t.Error("(1,b) < (1,c)")
	}
	if CompareRows(a, a) != 0 {
		t.Error("row equals itself")
	}
	if CompareRows(Row{NewInt(1)}, a) >= 0 {
		t.Error("prefix row sorts first")
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	vals := []Value{
		Null, NewBool(false), NewBool(true), NewInt(-100), NewFloat(-0.5),
		NewInt(0), NewFloat(0.25), NewInt(7), NewFloat(1e9),
		NewString(""), NewString("a"), NewString("a\x00b"), NewString("ab"), NewString("b"),
	}
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = KeyString(v)
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("encoded keys not in sorted order: %q", keys)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// Adjacent multi-column values must not collide: ("a","b") != ("ab","").
	k1 := KeyString(NewString("a"), NewString("b"))
	k2 := KeyString(NewString("ab"), NewString(""))
	if k1 == k2 {
		t.Error("key encoding not injective across column boundaries")
	}
	// 1 and 1.0 must collide (numeric grouping semantics).
	if KeyString(NewInt(1)) != KeyString(NewFloat(1)) {
		t.Error("1 and 1.0 must encode identically for grouping")
	}
}

func TestEncodeKeyQuickOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := KeyString(NewInt(a)), KeyString(NewInt(b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		}
		return ka == kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyQuickStringOrder(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := KeyString(NewString(a)), KeyString(NewString(b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		}
		return ka == kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyFloatSpecials(t *testing.T) {
	a := KeyString(NewFloat(math.Inf(-1)))
	b := KeyString(NewFloat(-1))
	c := KeyString(NewFloat(1))
	d := KeyString(NewFloat(math.Inf(1)))
	if !(a < b && b < c && c < d) {
		t.Error("float specials out of order")
	}
}

// TestEncodeKeyFoldsNegativeZero: -0.0 equals 0, so the key encoder writes
// it as 0.
func TestEncodeKeyFoldsNegativeZero(t *testing.T) {
	want := KeyString(NewInt(0))
	if got := KeyString(NewFloat(math.Copysign(0, -1))); got != want {
		t.Errorf("EncodeKey(-0.0) = %x, want %x", got, want)
	}
}

func TestArithQuickAddCommutes(t *testing.T) {
	f := func(a, b int32) bool {
		x, _ := Arith('+', NewInt(int64(a)), NewInt(int64(b)))
		y, _ := Arith('+', NewInt(int64(b)), NewInt(int64(a)))
		return Equal(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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
