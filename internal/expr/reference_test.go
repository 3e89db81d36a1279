package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

// fixtureCell is one row of the reference fixture as Go values: an
// INTEGER, a DOUBLE and a VARCHAR column, each nil where the row is NULL.
type fixtureCell struct {
	i *int64
	f *float64
	s *string
}

// referenceFixture builds n rows with interleaved NULLs, both as Go values
// and as the boxed rows Eval reads.
func referenceFixture(n int, seed int64) ([]fixtureCell, []sqltypes.Row) {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]fixtureCell, n)
	rows := make([]sqltypes.Row, n)
	for k := range cells {
		row := make(sqltypes.Row, 3)
		c := &cells[k]
		if rng.Intn(4) != 0 {
			x := int64(rng.Intn(11) - 5)
			c.i, row[0] = &x, sqltypes.NewInt(x)
		}
		if rng.Intn(4) != 0 {
			x := float64(rng.Intn(40)) / 8
			c.f, row[1] = &x, sqltypes.NewFloat(x)
		}
		if rng.Intn(4) != 0 {
			x := fmt.Sprintf("v%d", rng.Intn(5))
			c.s, row[2] = &x, sqltypes.NewString(x)
		}
		rows[k] = row
	}
	return cells, rows
}

func tcol(i int, t sqltypes.Type) *Column { return &Column{Idx: i, Typ: t} }

// sqlAnd and sqlOr are SQL's three-valued AND and OR over BOOLEAN-or-NULL
// values: FALSE (TRUE) decides, else NULL wins.
func sqlAnd(a, b sqltypes.Value) sqltypes.Value {
	switch {
	case a.T == sqltypes.TypeBool && !a.Bool(), b.T == sqltypes.TypeBool && !b.Bool():
		return sqltypes.NewBool(false)
	case a.IsNull() || b.IsNull():
		return sqltypes.Null
	}
	return sqltypes.NewBool(true)
}

func sqlOr(a, b sqltypes.Value) sqltypes.Value {
	switch {
	case a.IsTrue() || b.IsTrue():
		return sqltypes.NewBool(true)
	case a.IsNull() || b.IsNull():
		return sqltypes.Null
	}
	return sqltypes.NewBool(false)
}

// TestEvalMatchesReference evaluates a spread of expressions — arithmetic
// with division by zero, promotion, comparisons, LIKE, IS NULL, AND/OR/NOT,
// CAST, COALESCE and every CASE form — over NULL-heavy rows and checks each
// value and its type against the same computation written in Go.
func TestEvalMatchesReference(t *testing.T) {
	null := sqltypes.Null
	vi, vf, vb, vs := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewBool, sqltypes.NewString
	ic, fc, sc := tcol(0, sqltypes.TypeInt), tcol(1, sqltypes.TypeFloat), tcol(2, sqltypes.TypeString)
	// onInt applies fn to the INTEGER column, NULL in, NULL out.
	onInt := func(fn func(int64) sqltypes.Value) func(fixtureCell) sqltypes.Value {
		return func(c fixtureCell) sqltypes.Value {
			if c.i == nil {
				return null
			}
			return fn(*c.i)
		}
	}
	onFloat := func(fn func(float64) sqltypes.Value) func(fixtureCell) sqltypes.Value {
		return func(c fixtureCell) sqltypes.Value {
			if c.f == nil {
				return null
			}
			return fn(*c.f)
		}
	}
	onString := func(fn func(string) sqltypes.Value) func(fixtureCell) sqltypes.Value {
		return func(c fixtureCell) sqltypes.Value {
			if c.s == nil {
				return null
			}
			return fn(*c.s)
		}
	}
	cases := []struct {
		e    Expr
		want func(fixtureCell) sqltypes.Value
	}{
		{ic, onInt(vi)},
		{lit(vi(42)), func(fixtureCell) sqltypes.Value { return vi(42) }},
		{&Binary{Op: "+", Left: ic, Right: lit(vi(3))}, onInt(func(i int64) sqltypes.Value { return vi(i + 3) })},
		{&Binary{Op: "*", Left: ic, Right: ic}, onInt(func(i int64) sqltypes.Value { return vi(i * i) })},
		// Division and modulo by zero are NULL.
		{&Binary{Op: "/", Left: ic, Right: ic}, onInt(func(i int64) sqltypes.Value {
			if i == 0 {
				return null
			}
			return vi(1)
		})},
		{&Binary{Op: "%", Left: ic, Right: lit(vi(0))}, func(fixtureCell) sqltypes.Value { return null }},
		{&Binary{Op: "/", Left: fc, Right: lit(vf(0))}, func(fixtureCell) sqltypes.Value { return null }},
		// INTEGER + DOUBLE promotes.
		{&Binary{Op: "+", Left: ic, Right: fc}, func(c fixtureCell) sqltypes.Value {
			if c.i == nil || c.f == nil {
				return null
			}
			return vf(float64(*c.i) + *c.f)
		}},
		{&Unary{Op: "-", Operand: ic}, onInt(func(i int64) sqltypes.Value { return vi(-i) })},
		{&Unary{Op: "-", Operand: fc}, onFloat(func(f float64) sqltypes.Value { return vf(-f) })},
		{&Binary{Op: "=", Left: ic, Right: lit(vi(2))}, onInt(func(i int64) sqltypes.Value { return vb(i == 2) })},
		{&Binary{Op: "<>", Left: ic, Right: lit(vi(0))}, onInt(func(i int64) sqltypes.Value { return vb(i != 0) })},
		{&Binary{Op: "<", Left: ic, Right: fc}, func(c fixtureCell) sqltypes.Value {
			if c.i == nil || c.f == nil {
				return null
			}
			return vb(float64(*c.i) < *c.f)
		}},
		{&Binary{Op: ">=", Left: sc, Right: lit(vs("v2"))}, onString(func(s string) sqltypes.Value { return vb(s >= "v2") })},
		{&Binary{Op: "LIKE", Left: sc, Right: lit(vs("v%"))}, onString(func(s string) sqltypes.Value { return vb(strings.HasPrefix(s, "v")) })},
		{&Binary{Op: "LIKE", Left: sc, Right: lit(vs("_3"))}, onString(func(s string) sqltypes.Value { return vb(len(s) == 2 && s[1] == '3') })},
		{&IsNull{Operand: ic}, func(c fixtureCell) sqltypes.Value { return vb(c.i == nil) }},
		{&IsNull{Operand: sc, Negate: true}, func(c fixtureCell) sqltypes.Value { return vb(c.s != nil) }},
		{&Unary{Op: "NOT", Operand: &Binary{Op: ">", Left: ic, Right: lit(vi(0))}}, onInt(func(i int64) sqltypes.Value { return vb(i <= 0) })},
		{&Binary{Op: "AND",
			Left:  &Binary{Op: ">", Left: ic, Right: lit(vi(-2))},
			Right: &Binary{Op: "<", Left: fc, Right: lit(vf(3))}},
			func(c fixtureCell) sqltypes.Value {
				return sqlAnd(onInt(func(i int64) sqltypes.Value { return vb(i > -2) })(c),
					onFloat(func(f float64) sqltypes.Value { return vb(f < 3) })(c))
			}},
		{&Binary{Op: "OR",
			Left:  &IsNull{Operand: ic},
			Right: &Binary{Op: "=", Left: sc, Right: lit(vs("v1"))}},
			func(c fixtureCell) sqltypes.Value {
				return sqlOr(vb(c.i == nil), onString(func(s string) sqltypes.Value { return vb(s == "v1") })(c))
			}},
		{&Cast{Operand: ic, Target: sqltypes.TypeFloat}, onInt(func(i int64) sqltypes.Value { return vf(float64(i)) })},
		// DOUBLE → INTEGER truncates toward zero.
		{&Cast{Operand: fc, Target: sqltypes.TypeInt}, onFloat(func(f float64) sqltypes.Value { return vi(int64(f)) })},
		{&Cast{Operand: ic, Target: sqltypes.TypeInt}, onInt(vi)},
		{&ScalarFunc{Name: "COALESCE", Typ: sqltypes.TypeInt, Args: []Expr{ic, lit(vi(0))}},
			func(c fixtureCell) sqltypes.Value {
				if c.i == nil {
					return vi(0)
				}
				return vi(*c.i)
			}},
		{&ScalarFunc{Name: "COALESCE", Typ: sqltypes.TypeString, Args: []Expr{sc, sc, lit(vs("dflt"))}},
			func(c fixtureCell) sqltypes.Value {
				if c.s == nil {
					return vs("dflt")
				}
				return vs(*c.s)
			}},
		// The IVM multiplicity shape: searched CASE, negated branch; a NULL
		// condition falls to ELSE.
		{&Case{Whens: []CaseWhen{{When: &Binary{Op: "<", Left: ic, Right: lit(vi(0))}, Then: &Unary{Op: "-", Operand: ic}}}, Else: ic},
			onInt(func(i int64) sqltypes.Value { return vi(max(i, -i)) })},
		// No ELSE -> NULL; a NULL condition is not matched.
		{&Case{Whens: []CaseWhen{{When: &Binary{Op: ">", Left: fc, Right: lit(vf(2))}, Then: fc}}},
			onFloat(func(f float64) sqltypes.Value {
				if f > 2 {
					return vf(f)
				}
				return null
			})},
		// Multiple arms, first match wins.
		{&Case{Whens: []CaseWhen{
			{When: &Binary{Op: "=", Left: ic, Right: lit(vi(1))}, Then: lit(vi(100))},
			{When: &Binary{Op: ">", Left: ic, Right: lit(vi(1))}, Then: ic},
		}, Else: lit(vi(-100))},
			func(c fixtureCell) sqltypes.Value {
				switch {
				case c.i != nil && *c.i == 1:
					return vi(100)
				case c.i != nil && *c.i > 1:
					return vi(*c.i)
				}
				return vi(-100)
			}},
		// Simple CASE: a NULL operand matches nothing, the first equal arm wins.
		{&Case{Operand: ic, Whens: []CaseWhen{
			{When: lit(vi(1)), Then: lit(vi(10))},
			{When: lit(vi(2)), Then: lit(vi(20))},
		}, Else: lit(vi(0))},
			func(c fixtureCell) sqltypes.Value {
				if c.i != nil && (*c.i == 1 || *c.i == 2) {
					return vi(*c.i * 10)
				}
				return vi(0)
			}},
		// Operand equality under INTEGER/DOUBLE promotion; no ELSE -> NULL.
		{&Case{Operand: ic, Whens: []CaseWhen{{When: fc, Then: ic}}},
			func(c fixtureCell) sqltypes.Value {
				if c.i != nil && c.f != nil && float64(*c.i) == *c.f {
					return vi(*c.i)
				}
				return null
			}},
		{&Case{Operand: sc, Whens: []CaseWhen{{When: lit(vs("v1")), Then: lit(vi(1))}}, Else: lit(vi(0))},
			func(c fixtureCell) sqltypes.Value {
				if c.s != nil && *c.s == "v1" {
					return vi(1)
				}
				return vi(0)
			}},
	}
	for _, seed := range []int64{1, 2, 3} {
		cells, rows := referenceFixture(333, seed)
		for _, c := range cases {
			for k, r := range rows {
				got, err := c.e.Eval(r)
				if err != nil {
					t.Fatalf("%s row %d (%v): %v", c.e, k, r, err)
				}
				if want := c.want(cells[k]); got.T != want.T || !sqltypes.Equal(got, want) {
					t.Fatalf("%s row %d (%v): got %s %v, want %s %v", c.e, k, r, got.T, got, want.T, want)
				}
			}
		}
	}
}

// TestThreeValuedLogic pins the AND/OR truth tables over every combination
// of TRUE, FALSE and NULL.
func TestThreeValuedLogic(t *testing.T) {
	T, F, N := sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null
	vals := []sqltypes.Value{T, F, N}
	want := map[string][3][3]sqltypes.Value{
		"AND": {{T, F, N}, {F, F, F}, {N, F, N}},
		"OR":  {{T, T, T}, {T, F, N}, {T, N, N}},
	}
	for op, table := range want {
		e := &Binary{Op: op, Left: tcol(0, sqltypes.TypeBool), Right: tcol(1, sqltypes.TypeBool)}
		for l := range vals {
			for r := range vals {
				got, err := e.Eval(sqltypes.Row{vals[l], vals[r]})
				if err != nil || got.T != table[l][r].T || !sqltypes.Equal(got, table[l][r]) {
					t.Errorf("%v %s %v = %v (%v), want %v", vals[l], op, vals[r], got, err, table[l][r])
				}
			}
		}
	}
}

// cmpHolds reports whether comparison op holds for a three-way result c.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// TestNumberComparisons runs every comparison over NaN, the infinities, ±0
// and the BIGINTs around 2^53 and 2^63: NaN equals NaN and sorts above
// every other number, and an INTEGER meets a DOUBLE exactly, so Eval agrees
// with sqltypes.Compare.
func TestNumberComparisons(t *testing.T) {
	const p53 = 1 << 53
	nums := []sqltypes.Value{
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0xFFF8000000000000)),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(1),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(p53), sqltypes.NewFloat(1 << 63),
		sqltypes.NewInt(p53 - 1), sqltypes.NewInt(p53), sqltypes.NewInt(p53 + 1),
		sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(0), sqltypes.NewInt(1),
	}
	// Hand-checked verdicts the rule fixes.
	nan, one := sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(1)
	for _, c := range []struct {
		l, r sqltypes.Value
		op   string
		want bool
	}{
		{nan, nan, "=", true}, {nan, one, "=", false}, {nan, sqltypes.NewFloat(math.Inf(1)), ">", true},
		{one, nan, "<", true}, {nan, sqltypes.NewInt(math.MaxInt64), ">", true},
		{sqltypes.NewInt(p53 + 1), sqltypes.NewInt(p53), "=", false},
		{sqltypes.NewInt(p53 + 1), sqltypes.NewFloat(p53), ">", true},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(1 << 63), "<", true},
	} {
		got, err := (&Binary{Op: c.op, Left: lit(c.l), Right: lit(c.r)}).Eval(nil)
		if err != nil || got.IsTrue() != c.want {
			t.Errorf("%v %s %v = %v (%v), want %v", c.l, c.op, c.r, got, err, c.want)
		}
	}
	for _, a := range nums {
		for _, b := range nums {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				e := &Binary{Op: op, Left: tcol(0, a.T), Right: tcol(1, b.T)}
				want := cmpHolds(op, sqltypes.Compare(a, b))
				if got, err := e.Eval(sqltypes.Row{a, b}); err != nil || got.IsTrue() != want {
					t.Errorf("%s %v %s %s %v = %v (%v), want %v", a.T, a, op, b.T, b, got, err, want)
				}
			}
		}
	}
}
