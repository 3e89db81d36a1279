package expr

import (
	"fmt"
	"math"
	"testing"

	"openivm/internal/sqltypes"
)

// linearIn is the rule InQuery's hash set replaces: one pass over the
// subquery's rows per evaluation, comparing with sqltypes.CompareSQL. For a
// single operand it is the loop InQuery.Eval used to run — but for one
// case, a NULL operand against an empty result, which that loop called
// NULL and SQL (and this rule) calls FALSE; for a row value it is SQL's
// component-wise comparison (a row matches when every component is equal,
// and leaves the answer unknown when the only obstacles are NULLs).
func linearIn(vals []sqltypes.Value, rows []sqltypes.Row, negate bool) sqltypes.Value {
	unknown := false
	for _, r := range rows {
		equal, open := true, false
		for i := range vals {
			cmp, ok := sqltypes.CompareSQL(vals[i], r[i])
			switch {
			case !ok:
				open = true
			case cmp != 0:
				equal = false
			}
		}
		if equal && !open {
			return sqltypes.NewBool(!negate)
		}
		unknown = unknown || equal
	}
	if unknown {
		return sqltypes.Null
	}
	return sqltypes.NewBool(negate)
}

// TestInQueryMatchesLinearRule is the differential test of the hash-set
// membership: every operand against every subquery result, IN and NOT IN,
// must answer what the linear rule answers.
func TestInQueryMatchesLinearRule(t *testing.T) {
	i, f, s, b := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewBool
	null := sqltypes.Null
	scalars := []sqltypes.Value{
		null, i(0), i(1), i(2), i(-3), f(1), f(1.5), f(0), f(math.Copysign(0, -1)), f(-3),
		i(1 << 53), f(1 << 53), s(""), s("1"), s("a"), s("a\x00b"), s("a|"), b(true), b(false),
	}
	lists := [][]sqltypes.Value{
		{},
		{null},
		{i(1), i(2)},
		{f(1), null},
		{f(math.Copysign(0, -1))},
		{i(0), s("a"), b(true)},
		{s("1"), s("a|"), s("a\x00b"), null},
		{i(1 << 53), f(-3), f(1.5)},
		{i(2), i(2), i(2)},
	}
	for li, list := range lists {
		rows := make([]sqltypes.Row, len(list))
		for k, v := range list {
			rows[k] = sqltypes.Row{v}
		}
		for _, negate := range []bool{false, true} {
			e := &InQuery{Operands: []Expr{&Column{Idx: 0}}, Negate: negate,
				Fetch: func() ([]sqltypes.Row, error) { return rows, nil }}
			for _, v := range scalars {
				got, err := e.Eval(sqltypes.Row{v})
				if err != nil {
					t.Fatal(err)
				}
				if want := linearIn([]sqltypes.Value{v}, rows, negate); got != want {
					t.Errorf("list %d %v: %v IN (negate=%v) = %v, want %v", li, list, v, negate, got, want)
				}
			}
		}
	}

	// Row values: every pair of components against pair lists with NULLs in
	// either position.
	parts := []sqltypes.Value{null, i(1), f(1), i(2), s("a"), s("a|"), s("|b"), s("b")}
	pairLists := [][]sqltypes.Row{
		{},
		{{i(1), s("a")}},
		{{i(1), null}},
		{{null, s("a")}, {i(2), s("b")}},
		{{null, null}},
		{{s("a|"), s("b")}, {f(1), f(1)}},
		{{i(2), i(2)}, {i(2), i(2)}, {i(1), s("a")}, {null, s("b")}},
	}
	for li, rows := range pairLists {
		for _, negate := range []bool{false, true} {
			e := &InQuery{Operands: []Expr{&Column{Idx: 0}, &Column{Idx: 1}}, Negate: negate,
				Fetch: func() ([]sqltypes.Row, error) { return rows, nil }}
			for _, x := range parts {
				for _, y := range parts {
					got, err := e.Eval(sqltypes.Row{x, y})
					if err != nil {
						t.Fatal(err)
					}
					if want := linearIn([]sqltypes.Value{x, y}, rows, negate); got != want {
						t.Errorf("pairs %d %v: (%v, %v) IN (negate=%v) = %v, want %v", li, rows, x, y, negate, got, want)
					}
				}
			}
		}
	}
}

// TestInQueryNullSafe: a NULL-safe IN (DELETE … USING) compares each
// component as IS NOT DISTINCT FROM — a NULL equals a NULL and nothing
// else, other values as `=` does — and answers TRUE or FALSE, never NULL.
func TestInQueryNullSafe(t *testing.T) {
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString
	null := sqltypes.Null
	notDistinct := func(a, b sqltypes.Value) bool {
		if a.IsNull() || b.IsNull() {
			return a.IsNull() && b.IsNull()
		}
		cmp, ok := sqltypes.CompareSQL(a, b)
		return ok && cmp == 0
	}
	parts := []sqltypes.Value{null, i(1), f(1), i(2), s("a"), s("a|"), s("|b"), s("b")}
	for li, rows := range [][]sqltypes.Row{
		{},
		{{i(1), s("a")}},
		{{i(1), null}},
		{{null, s("a")}, {i(2), s("b")}},
		{{null, null}},
		{{s("a|"), s("b")}, {f(1), f(1)}},
		{{i(2), i(2)}, {i(2), i(2)}, {i(1), s("a")}, {null, s("b")}},
	} {
		e := &InQuery{Operands: []Expr{&Column{Idx: 0}, &Column{Idx: 1}}, NullSafe: true,
			Fetch: func() ([]sqltypes.Row, error) { return rows, nil }}
		for _, x := range parts {
			for _, y := range parts {
				got, err := e.Eval(sqltypes.Row{x, y})
				if err != nil {
					t.Fatal(err)
				}
				want := false
				for _, r := range rows {
					want = want || notDistinct(x, r[0]) && notDistinct(y, r[1])
				}
				if got != sqltypes.NewBool(want) {
					t.Errorf("pairs %d %v: (%v, %v) NULL-safe IN = %v, want %v", li, rows, x, y, got, want)
				}
			}
		}
	}
}

// TestInQueryFetch: the subquery is fetched once however often the node is
// evaluated, its error surfaces, and a result of the wrong width is an
// error rather than a silent miss.
func TestInQueryFetch(t *testing.T) {
	calls := 0
	rows := []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}
	e := &InQuery{Operands: []Expr{&Column{Idx: 0}}, Fetch: func() ([]sqltypes.Row, error) {
		calls++
		return rows, nil
	}}
	for k := 0; k < 5; k++ {
		if v, err := e.Eval(sqltypes.Row{sqltypes.NewInt(2)}); err != nil || !v.IsTrue() {
			t.Fatalf("2 IN (1, 2) = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("subquery fetched %d times, want once", calls)
	}
	if v, _ := e.Eval(sqltypes.Row{sqltypes.Null}); !v.IsNull() {
		t.Error("NULL IN (...) should be NULL")
	}

	wide := &InQuery{Operands: []Expr{&Column{Idx: 0}}, Fetch: func() ([]sqltypes.Row, error) {
		return []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(2)}}, nil
	}}
	if _, err := wide.Eval(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("a two-column subquery under a scalar IN should fail")
	}
	failing := &InQuery{Operands: []Expr{&Column{Idx: 0}}, Fetch: func() ([]sqltypes.Row, error) {
		return nil, fmt.Errorf("boom")
	}}
	if _, err := failing.Eval(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("a failing subquery should fail the IN")
	}
}
