package expr

import (
	"testing"

	"openivm/internal/sqltypes"
)

func lit(v sqltypes.Value) Expr { return &Literal{Val: v} }
func intv(i int64) Expr         { return lit(sqltypes.NewInt(i)) }
func strv(s string) Expr        { return lit(sqltypes.NewString(s)) }
func boolv(b bool) Expr         { return lit(sqltypes.NewBool(b)) }
func nullv() Expr               { return lit(sqltypes.Null) }
func col(i int) Expr            { return &Column{Idx: i} }

func eval(t *testing.T, e Expr, row sqltypes.Row) sqltypes.Value {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestColumnEval(t *testing.T) {
	row := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewString("x")}
	if v := eval(t, col(1), row); v.S != "x" {
		t.Errorf("got %v", v)
	}
	if _, err := col(5).Eval(row); err == nil {
		t.Error("out of range should error")
	}
}

func TestBinaryArith(t *testing.T) {
	v := eval(t, &Binary{Op: "+", Left: intv(2), Right: intv(3)}, nil)
	if v.I != 5 {
		t.Errorf("got %v", v)
	}
	v = eval(t, &Binary{Op: "*", Left: intv(2), Right: lit(sqltypes.NewFloat(1.5))}, nil)
	if v.Float() != 3 {
		t.Errorf("got %v", v)
	}
}

func TestBinaryComparisons(t *testing.T) {
	cases := []struct {
		op   string
		want bool
	}{
		{"=", false}, {"<>", true}, {"<", true}, {"<=", true}, {">", false}, {">=", false},
	}
	for _, c := range cases {
		v := eval(t, &Binary{Op: c.op, Left: intv(1), Right: intv(2)}, nil)
		if v.Bool() != c.want {
			t.Errorf("1 %s 2 = %v, want %v", c.op, v.Bool(), c.want)
		}
	}
}

func TestBinaryNullComparison(t *testing.T) {
	v := eval(t, &Binary{Op: "=", Left: nullv(), Right: intv(1)}, nil)
	if !v.IsNull() {
		t.Errorf("NULL = 1 should be NULL, got %v", v)
	}
}

func TestThreeValuedAndOr(t *testing.T) {
	// FALSE AND NULL = FALSE; TRUE AND NULL = NULL
	v := eval(t, &Binary{Op: "AND", Left: boolv(false), Right: nullv()}, nil)
	if v.IsNull() || v.Bool() {
		t.Errorf("FALSE AND NULL = %v", v)
	}
	v = eval(t, &Binary{Op: "AND", Left: boolv(true), Right: nullv()}, nil)
	if !v.IsNull() {
		t.Errorf("TRUE AND NULL = %v", v)
	}
	// TRUE OR NULL = TRUE; FALSE OR NULL = NULL
	v = eval(t, &Binary{Op: "OR", Left: boolv(true), Right: nullv()}, nil)
	if !v.IsTrue() {
		t.Errorf("TRUE OR NULL = %v", v)
	}
	v = eval(t, &Binary{Op: "OR", Left: boolv(false), Right: nullv()}, nil)
	if !v.IsNull() {
		t.Errorf("FALSE OR NULL = %v", v)
	}
}

func TestAndShortCircuit(t *testing.T) {
	// Right side errors, but left FALSE short-circuits.
	bad := &Column{Idx: 99}
	v, err := (&Binary{Op: "AND", Left: boolv(false), Right: bad}).Eval(sqltypes.Row{})
	if err != nil || v.IsTrue() {
		t.Errorf("short circuit failed: %v %v", v, err)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true}, {"hello", "h%", true}, {"hello", "%lo", true},
		{"hello", "h_llo", true}, {"hello", "x%", false}, {"hello", "%", true},
		{"", "%", true}, {"", "_", false}, {"abc", "%b%", true},
		{"abc", "a%c%", true}, {"abc", "a_c", true}, {"ab", "a_c", false},
	}
	for _, c := range cases {
		v := eval(t, &Binary{Op: "LIKE", Left: strv(c.s), Right: strv(c.p)}, nil)
		if v.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.Bool(), c.want)
		}
	}
}

func TestUnaryNot(t *testing.T) {
	if v := eval(t, &Unary{Op: "NOT", Operand: boolv(true)}, nil); v.Bool() {
		t.Error("NOT TRUE")
	}
	if v := eval(t, &Unary{Op: "NOT", Operand: nullv()}, nil); !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
}

func TestUnaryNeg(t *testing.T) {
	if v := eval(t, &Unary{Op: "-", Operand: intv(5)}, nil); v.I != -5 {
		t.Errorf("got %v", v)
	}
}

func TestIsNull(t *testing.T) {
	if v := eval(t, &IsNull{Operand: nullv()}, nil); !v.Bool() {
		t.Error("NULL IS NULL")
	}
	if v := eval(t, &IsNull{Operand: intv(1), Negate: true}, nil); !v.Bool() {
		t.Error("1 IS NOT NULL")
	}
}

func TestIn(t *testing.T) {
	e := &In{Operand: intv(2), List: []Expr{intv(1), intv(2)}}
	if v := eval(t, e, nil); !v.Bool() {
		t.Error("2 IN (1,2)")
	}
	e2 := &In{Operand: intv(3), List: []Expr{intv(1), nullv()}}
	if v := eval(t, e2, nil); !v.IsNull() {
		t.Error("3 IN (1, NULL) should be NULL")
	}
	e3 := &In{Operand: intv(3), List: []Expr{intv(1), intv(2)}, Negate: true}
	if v := eval(t, e3, nil); !v.Bool() {
		t.Error("3 NOT IN (1,2)")
	}
}

func TestBetween(t *testing.T) {
	e := &Between{Operand: intv(5), Lo: intv(1), Hi: intv(10)}
	if v := eval(t, e, nil); !v.Bool() {
		t.Error("5 BETWEEN 1 AND 10")
	}
	e2 := &Between{Operand: intv(0), Lo: intv(1), Hi: intv(10), Negate: true}
	if v := eval(t, e2, nil); !v.Bool() {
		t.Error("0 NOT BETWEEN 1 AND 10")
	}
	e3 := &Between{Operand: intv(5), Lo: nullv(), Hi: intv(10)}
	if v := eval(t, e3, nil); !v.IsNull() {
		t.Error("NULL bound should give NULL")
	}
}

func TestCaseSearched(t *testing.T) {
	// CASE WHEN col0 = FALSE THEN -col1 ELSE col1 END — the multiplicity
	// pattern the IVM compiler emits.
	e := &Case{
		Whens: []CaseWhen{{
			When: &Binary{Op: "=", Left: col(0), Right: boolv(false)},
			Then: &Unary{Op: "-", Operand: col(1)},
		}},
		Else: col(1),
	}
	row := sqltypes.Row{sqltypes.NewBool(false), sqltypes.NewInt(10)}
	if v := eval(t, e, row); v.I != -10 {
		t.Errorf("deletion arm = %v", v)
	}
	row[0] = sqltypes.NewBool(true)
	if v := eval(t, e, row); v.I != 10 {
		t.Errorf("insertion arm = %v", v)
	}
}

func TestCaseOperand(t *testing.T) {
	e := &Case{
		Operand: col(0),
		Whens:   []CaseWhen{{When: intv(1), Then: strv("one")}, {When: intv(2), Then: strv("two")}},
	}
	if v := eval(t, e, sqltypes.Row{sqltypes.NewInt(2)}); v.S != "two" {
		t.Errorf("got %v", v)
	}
	if v := eval(t, e, sqltypes.Row{sqltypes.NewInt(9)}); !v.IsNull() {
		t.Errorf("no match without ELSE should be NULL, got %v", v)
	}
}

func TestCast(t *testing.T) {
	e := &Cast{Operand: strv("42"), Target: sqltypes.TypeInt}
	if v := eval(t, e, nil); v.I != 42 {
		t.Errorf("got %v", v)
	}
}

func TestCoalesce(t *testing.T) {
	mk, typ, err := ScalarFuncs["COALESCE"]([]sqltypes.Type{sqltypes.TypeNull, sqltypes.TypeInt})
	if err != nil {
		t.Fatal(err)
	}
	if typ != sqltypes.TypeInt {
		t.Errorf("type = %v", typ)
	}
	e := &ScalarFunc{Name: "COALESCE", Args: []Expr{nullv(), intv(7)}, Fn: mk, Typ: typ}
	if v := eval(t, e, nil); v.I != 7 {
		t.Errorf("got %v", v)
	}
}

// TestNullIf: NULLIF(a, b) is NULL when a = b holds and a otherwise, with
// a's type — NULL arguments never compare equal, and an INTEGER equals the
// DOUBLE of the same number.
func TestNullIf(t *testing.T) {
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	cases := []struct{ a, b, want sqltypes.Value }{
		{i(1), i(1), sqltypes.Null},
		{i(1), i(2), i(1)},
		{sqltypes.Null, i(1), sqltypes.Null},
		{i(1), sqltypes.Null, i(1)},
		{sqltypes.Null, sqltypes.Null, sqltypes.Null},
		{i(1), f(1), sqltypes.Null},
		{f(1), i(1), sqltypes.Null},
		{i(2), f(1.5), i(2)},
		{f(2.5), i(2), f(2.5)},
		{sqltypes.NewString("x"), sqltypes.NewString("x"), sqltypes.Null},
	}
	for _, c := range cases {
		args := []Expr{lit(c.a), lit(c.b)}
		fn, typ, err := ScalarFuncs["NULLIF"]([]sqltypes.Type{c.a.T, c.b.T})
		if err != nil {
			t.Fatal(err)
		}
		if typ != c.a.T {
			t.Errorf("NULLIF(%v, %v) is typed %v, want its first argument's %v", c.a, c.b, typ, c.a.T)
		}
		if v := eval(t, &ScalarFunc{Name: "NULLIF", Args: args, Fn: fn, Typ: typ}, nil); v != c.want {
			t.Errorf("NULLIF(%v, %v) = %v (%v), want %v (%v)", c.a, c.b, v, v.T, c.want, c.want.T)
		}
	}
	if _, _, err := ScalarFuncs["NULLIF"]([]sqltypes.Type{sqltypes.TypeInt}); err == nil {
		t.Error("NULLIF with one argument bound")
	}
}

func TestScalarFuncs(t *testing.T) {
	cases := []struct {
		name string
		args []Expr
		want sqltypes.Value
	}{
		{"ABS", []Expr{intv(-5)}, sqltypes.NewInt(5)},
		{"LENGTH", []Expr{strv("abc")}, sqltypes.NewInt(3)},
		{"LOWER", []Expr{strv("ABC")}, sqltypes.NewString("abc")},
		{"UPPER", []Expr{strv("abc")}, sqltypes.NewString("ABC")},
		{"GREATEST", []Expr{intv(1), intv(9), intv(4)}, sqltypes.NewInt(9)},
		{"LEAST", []Expr{intv(1), intv(9), intv(4)}, sqltypes.NewInt(1)},
	}
	for _, c := range cases {
		var types []sqltypes.Type
		for _, a := range c.args {
			types = append(types, a.Type())
		}
		fn, typ, err := ScalarFuncs[c.name](types)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := &ScalarFunc{Name: c.name, Args: c.args, Fn: fn, Typ: typ}
		if v := eval(t, e, nil); !sqltypes.Equal(v, c.want) {
			t.Errorf("%s = %v, want %v", c.name, v, c.want)
		}
	}
}

// fold steps vals through a as the hash aggregate steps one group's rows —
// from Empty, each DISTINCT argument once, AVG divided by its count — and
// returns the aggregate.
func fold(t *testing.T, a *Aggregate, vals ...sqltypes.Value) sqltypes.Value {
	t.Helper()
	acc, n := a.Empty(), int64(0)
	seen := map[sqltypes.Value]bool{}
	for _, v := range vals {
		if a.Distinct {
			if seen[v] {
				continue
			}
			seen[v] = true
		}
		if err := a.Step(&acc, v); err != nil {
			t.Fatal(err)
		}
		if !v.IsNull() {
			n++
		}
	}
	if a.Kind == AggAvg {
		return Avg(acc, n)
	}
	return acc
}

func TestAggSum(t *testing.T) {
	a := &Aggregate{Kind: AggSum, Arg: col(0)}
	if v := fold(t, a, sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.Null, sqltypes.NewInt(3)); v.I != 6 || v.T != sqltypes.TypeInt {
		t.Errorf("SUM = %v", v)
	}
	// Empty SUM, and a SUM over only NULLs, is NULL.
	if v := fold(t, a); !v.IsNull() {
		t.Errorf("empty SUM = %v", v)
	}
	if v := fold(t, a, sqltypes.Null, sqltypes.Null); !v.IsNull() {
		t.Errorf("SUM over NULLs = %v", v)
	}
	// An INTEGER and a DOUBLE sum to a DOUBLE, whichever comes first.
	for _, vals := range [][]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewFloat(0.5)},
		{sqltypes.NewFloat(0.5), sqltypes.NewInt(1)},
	} {
		if v := fold(t, a, vals...); v.T != sqltypes.TypeFloat || v.Float() != 1.5 {
			t.Errorf("SUM%v = %v, want DOUBLE 1.5", vals, v)
		}
	}
}

func TestAggCount(t *testing.T) {
	a := &Aggregate{Kind: AggCount, Arg: col(0)}
	if v := fold(t, a, sqltypes.NewInt(1), sqltypes.Null, sqltypes.NewInt(3)); v.I != 2 {
		t.Errorf("COUNT = %v; NULLs must not count", v)
	}
	aStar := &Aggregate{Kind: AggCountStar}
	if v := fold(t, aStar, sqltypes.NewInt(1), sqltypes.Null); v.I != 2 {
		t.Errorf("COUNT(*) = %v", v)
	}
	// COUNT over no rows is 0, not NULL.
	for _, c := range []*Aggregate{a, aStar} {
		if v := fold(t, c); v.T != sqltypes.TypeInt || v.I != 0 {
			t.Errorf("empty %s = %v", c, v)
		}
	}
}

func TestAggMinMax(t *testing.T) {
	vals := []sqltypes.Value{sqltypes.NewInt(5), sqltypes.NewInt(1), sqltypes.Null, sqltypes.NewInt(9)}
	if v := fold(t, &Aggregate{Kind: AggMin, Arg: col(0)}, vals...); v.I != 1 {
		t.Errorf("MIN = %v", v)
	}
	if v := fold(t, &Aggregate{Kind: AggMax, Arg: col(0)}, vals...); v.I != 9 {
		t.Errorf("MAX = %v", v)
	}
	if v := fold(t, &Aggregate{Kind: AggMin, Arg: col(0)}, sqltypes.Null); !v.IsNull() {
		t.Errorf("MIN over NULL = %v", v)
	}
}

func TestAggAvg(t *testing.T) {
	a := &Aggregate{Kind: AggAvg, Arg: col(0)}
	if v := fold(t, a, sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(3), sqltypes.Null); v.Float() != 2 {
		t.Errorf("AVG = %v", v)
	}
	if v := fold(t, a, sqltypes.NewInt(1), sqltypes.NewFloat(2.5)); v.Float() != 1.75 {
		t.Errorf("AVG(1, 2.5) = %v", v)
	}
	if v := fold(t, a); !v.IsNull() {
		t.Errorf("empty AVG = %v", v)
	}
}

func TestAggDistinct(t *testing.T) {
	a := &Aggregate{Kind: AggCount, Arg: col(0), Distinct: true}
	if v := fold(t, a, sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(2)); v.I != 2 {
		t.Errorf("COUNT(DISTINCT) = %v", v)
	}
	s := &Aggregate{Kind: AggSum, Arg: col(0), Distinct: true}
	if v := fold(t, s, sqltypes.NewInt(5), sqltypes.NewInt(5), sqltypes.NewInt(3)); v.I != 8 {
		t.Errorf("SUM(DISTINCT) = %v", v)
	}
}

func TestParseAggKind(t *testing.T) {
	if k, ok := ParseAggKind("SUM", false); !ok || k != AggSum {
		t.Error("SUM")
	}
	if k, ok := ParseAggKind("COUNT", true); !ok || k != AggCountStar {
		t.Error("COUNT(*)")
	}
	if _, ok := ParseAggKind("NOPE", false); ok {
		t.Error("NOPE should not parse")
	}
	if !IsAggregateName("MIN") || IsAggregateName("COALESCE") {
		t.Error("IsAggregateName")
	}
}

func TestAggResultTypes(t *testing.T) {
	if (&Aggregate{Kind: AggCountStar}).ResultType() != sqltypes.TypeInt {
		t.Error("COUNT(*) type")
	}
	if (&Aggregate{Kind: AggAvg, Arg: col(0)}).ResultType() != sqltypes.TypeFloat {
		t.Error("AVG type")
	}
	fcol := &Column{Idx: 0, Typ: sqltypes.TypeFloat}
	if (&Aggregate{Kind: AggSum, Arg: fcol}).ResultType() != sqltypes.TypeFloat {
		t.Error("SUM(float) type")
	}
}

// TestIsDistinctFrom is the truth table of the NULL-safe comparison: never
// unknown, NULL equal to NULL and to nothing else, numbers compared by
// value; IS DISTINCT FROM is its negation.
func TestIsDistinctFrom(t *testing.T) {
	cases := []struct {
		l, r Expr
		same bool
	}{
		{nullv(), nullv(), true},
		{nullv(), intv(1), false},
		{strv("a"), nullv(), false},
		{intv(1), intv(1), true},
		{intv(1), lit(sqltypes.NewFloat(1)), true},
		{intv(1), intv(2), false},
		{strv("a"), strv("a"), true},
		{strv("a"), strv("b"), false},
	}
	for _, c := range cases {
		for op, want := range map[string]bool{"IS NOT DISTINCT FROM": c.same, "IS DISTINCT FROM": !c.same} {
			b := &Binary{Op: op, Left: c.l, Right: c.r}
			v := eval(t, b, nil)
			if v.T != sqltypes.TypeBool || v.Bool() != want {
				t.Errorf("%s = %v, want %v", b, v, want)
			}
			if b.Type() != sqltypes.TypeBool {
				t.Errorf("%s has type %v", b, b.Type())
			}
		}
	}
}
