package expr

import (
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

// Coverage for the display/typing surface used by EXPLAIN and the binder.

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Column{Idx: 2}, "#2"},
		{&Column{Idx: 0, Name: "a"}, "a"},
		{&Literal{Val: sqltypes.NewInt(5)}, "5"},
		{&Binary{Op: "+", Left: intv(1), Right: intv(2)}, "(1 + 2)"},
		{&Unary{Op: "NOT", Operand: boolv(true)}, "(NOT TRUE)"},
		{&IsNull{Operand: intv(1)}, "(1 IS NULL)"},
		{&IsNull{Operand: intv(1), Negate: true}, "(1 IS NOT NULL)"},
		{&In{Operand: intv(1), List: []Expr{intv(2), intv(3)}}, "(1 IN (2, 3))"},
		{&In{Operand: intv(1), List: []Expr{intv(2)}, Negate: true}, "(1 NOT IN (2))"},
		{&Between{Operand: intv(2), Lo: intv(1), Hi: intv(3)}, "(2 BETWEEN 1 AND 3)"},
		{&Cast{Operand: intv(1), Target: sqltypes.TypeString}, "CAST(1 AS VARCHAR)"},
		{&InQuery{Operands: []Expr{intv(1)}}, "(1 IN (<subquery>))"},
		{&InQuery{Operands: []Expr{intv(1)}, Negate: true}, "(1 NOT IN (<subquery>))"},
		{&InQuery{Operands: []Expr{intv(1), intv(2)}}, "((1, 2) IN (<subquery>))"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCaseString(t *testing.T) {
	e := &Case{
		Operand: intv(1),
		Whens:   []CaseWhen{{When: intv(1), Then: strv("one")}},
		Else:    strv("other"),
	}
	s := e.String()
	for _, want := range []string{"CASE 1", "WHEN 1 THEN 'one'", "ELSE 'other'", "END"} {
		if !strings.Contains(s, want) {
			t.Errorf("Case.String() = %q missing %q", s, want)
		}
	}
}

func TestScalarFuncString(t *testing.T) {
	fn, typ, _ := ScalarFuncs["COALESCE"]([]sqltypes.Type{sqltypes.TypeInt, sqltypes.TypeInt})
	e := &ScalarFunc{Name: "COALESCE", Args: []Expr{intv(1), intv(2)}, Fn: fn, Typ: typ}
	if e.String() != "COALESCE(1, 2)" {
		t.Errorf("got %q", e.String())
	}
}

func TestExprTypes(t *testing.T) {
	fcol := &Column{Idx: 0, Typ: sqltypes.TypeFloat}
	icol := &Column{Idx: 1, Typ: sqltypes.TypeInt}
	scol := &Column{Idx: 2, Typ: sqltypes.TypeString}
	cases := []struct {
		e    Expr
		want sqltypes.Type
	}{
		{&Binary{Op: "=", Left: icol, Right: icol}, sqltypes.TypeBool},
		{&Binary{Op: "+", Left: icol, Right: icol}, sqltypes.TypeInt},
		{&Binary{Op: "+", Left: icol, Right: fcol}, sqltypes.TypeFloat},
		{&Binary{Op: "+", Left: scol, Right: scol}, sqltypes.TypeString},
		{&Binary{Op: "||", Left: scol, Right: icol}, sqltypes.TypeString},
		{&Unary{Op: "NOT", Operand: icol}, sqltypes.TypeBool},
		{&Unary{Op: "-", Operand: fcol}, sqltypes.TypeFloat},
		{&IsNull{Operand: icol}, sqltypes.TypeBool},
		{&In{Operand: icol}, sqltypes.TypeBool},
		{&InQuery{Operands: []Expr{icol}}, sqltypes.TypeBool},
		{&Between{Operand: icol, Lo: icol, Hi: icol}, sqltypes.TypeBool},
		{&Cast{Operand: icol, Target: sqltypes.TypeString}, sqltypes.TypeString},
		{&Case{Whens: []CaseWhen{{When: icol, Then: fcol}}}, sqltypes.TypeFloat},
		{&Case{}, sqltypes.TypeAny},
	}
	for _, c := range cases {
		if got := c.e.Type(); got != c.want {
			t.Errorf("%s.Type() = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestAggKindStrings(t *testing.T) {
	cases := map[AggKind]string{
		AggSum: "SUM", AggCount: "COUNT", AggCountStar: "COUNT",
		AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	a := &Aggregate{Kind: AggCountStar}
	if a.String() != "COUNT(*)" {
		t.Errorf("got %q", a.String())
	}
	d := &Aggregate{Kind: AggSum, Arg: &Column{Idx: 0, Name: "x"}, Distinct: true}
	if d.String() != "SUM(DISTINCT x)" {
		t.Errorf("got %q", d.String())
	}
}
