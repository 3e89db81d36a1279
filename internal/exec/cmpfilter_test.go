package exec

import (
	"fmt"
	"math"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// TestCmpFilterMatchesEval: a scan filter run as comparisons keeps exactly
// the rows expr.Binary.Eval finds TRUE, for every operator, either operand
// order, a literal or a bound parameter, over NULL, NaN, ±0, the INTEGERs
// around 2^53 beside DOUBLEs, VARCHAR and BOOLEAN, alone and under AND.
func TestCmpFilterMatchesEval(t *testing.T) {
	p53 := int64(1) << 53
	vals := []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(1), sqltypes.NewFloat(1.5),
		sqltypes.NewFloat(float64(p53)), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(-3),
		sqltypes.NewInt(p53), sqltypes.NewInt(p53 + 1), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewString(""), sqltypes.NewString("a"), sqltypes.NewString("b"), sqltypes.NewString("1"),
		sqltypes.NewBool(false), sqltypes.NewBool(true),
	}
	col := &expr.Column{Idx: 1, Name: "c"}
	check := func(f expr.Expr, row sqltypes.Row) {
		t.Helper()
		terms := compileCmpFilter(nil, f, len(row))
		if terms == nil {
			t.Fatalf("%s: not compiled", f)
		}
		want, err := f.Eval(row)
		if err != nil {
			t.Fatal(err)
		}
		if got := holds(terms, row); got != want.IsTrue() {
			t.Fatalf("%s over %v: holds %v, Eval %v", f, row, got, want)
		}
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, v := range vals {
			for _, k := range vals {
				row := sqltypes.Row{sqltypes.NewInt(7), v}
				lit := &expr.Literal{Val: k}
				param := &expr.Param{Index: 1, Binding: &expr.ParamBinding{Vals: []sqltypes.Value{k}}}
				check(&expr.Binary{Op: op, Left: col, Right: lit}, row)
				check(&expr.Binary{Op: op, Left: lit, Right: col}, row)
				check(&expr.Binary{Op: op, Left: col, Right: param}, row)
				check(&expr.Binary{Op: "AND", Left: &expr.Binary{Op: op, Left: col, Right: lit},
					Right: &expr.Binary{Op: ">=", Left: &expr.Column{Idx: 0}, Right: &expr.Literal{Val: v}}}, row)
			}
		}
	}
}

// TestScanCmpFilter: a scan of at least a batch of rows runs its filter as
// comparisons and emits the rows Eval finds TRUE, in order, over every
// column kind, with NULLs, NaN and -0.
func TestScanCmpFilter(t *testing.T) {
	c := catalog.New()
	tbl, err := c.CreateTable("t", []catalog.Column{{Name: "i", Type: sqltypes.TypeInt}, {Name: "f", Type: sqltypes.TypeFloat},
		{Name: "s", Type: sqltypes.TypeString}, {Name: "b", Type: sqltypes.TypeBool}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	load(t, c, tbl,
		sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewString("a"), sqltypes.NewBool(true)},
		sqltypes.Row{sqltypes.Null, sqltypes.NewFloat(math.NaN()), sqltypes.Null, sqltypes.Null},
		sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewString("b"), sqltypes.NewBool(false)},
		sqltypes.Row{sqltypes.NewInt(0), sqltypes.NewFloat(2.5), sqltypes.NewString(""), sqltypes.NewBool(true)},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.Null, sqltypes.NewString("ab"), sqltypes.NewBool(false)})
	consts := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(0), sqltypes.NewFloat(math.NaN()),
		sqltypes.NewString("ab"), sqltypes.NewBool(true), sqltypes.Null}
	for col := range tbl.Columns {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, k := range consts {
				f := &expr.Binary{Op: "AND", Left: &expr.Binary{Op: op, Left: &expr.Column{Idx: col}, Right: &expr.Literal{Val: k}},
					Right: &expr.Binary{Op: "<>", Left: &expr.Literal{Val: sqltypes.NewInt(9)}, Right: &expr.Column{Idx: 0}}}
				scan := plan.NewScan(tbl, "")
				scan.Filter = f
				it := newBatchScan(scan, Options{BatchSize: 2})
				it.Close()
				if it.keep == nil {
					t.Fatalf("%s: not run as comparisons", f)
				}
				got, err := RunOpts(scan, Options{BatchSize: 2})
				if err != nil {
					t.Fatal(err)
				}
				var want []sqltypes.Row
				for _, r := range tbl.Rows() {
					if v, err := f.Eval(r); err == nil && v.IsTrue() {
						want = append(want, r)
					}
				}
				if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
					t.Errorf("%s: got %s, want %s", f, g, w)
				}
			}
		}
	}
}

// TestCmpFilterShapes: only comparisons of a column with a constant, under
// AND, compile; anything else is left to Eval.
func TestCmpFilterShapes(t *testing.T) {
	col, one := &expr.Column{Idx: 0}, &expr.Literal{Val: sqltypes.NewInt(1)}
	unbound := &expr.Param{Index: 1, Binding: &expr.ParamBinding{}}
	for _, tc := range []struct {
		f    expr.Expr
		want int
	}{
		{&expr.Binary{Op: "<", Left: col, Right: one}, 1},
		{&expr.Binary{Op: "AND", Left: &expr.Binary{Op: "=", Left: one, Right: col}, Right: &expr.Binary{Op: "<>", Left: col, Right: one}}, 2},
		{&expr.Binary{Op: "OR", Left: &expr.Binary{Op: "=", Left: col, Right: one}, Right: &expr.Binary{Op: "=", Left: col, Right: one}}, 0},
		{&expr.Binary{Op: "=", Left: col, Right: &expr.Column{Idx: 1}}, 0},
		{&expr.Binary{Op: "=", Left: &expr.Column{Idx: 2}, Right: one}, 0},
		{&expr.Binary{Op: "LIKE", Left: col, Right: one}, 0},
		{&expr.Binary{Op: "IS NOT DISTINCT FROM", Left: col, Right: one}, 0},
		{&expr.Binary{Op: "=", Left: col, Right: unbound}, 0},
		{&expr.IsNull{Operand: col}, 0},
		{nil, 0},
	} {
		if got := len(compileCmpFilter(nil, tc.f, 2)); got != tc.want {
			t.Errorf("%v: %d terms, want %d", tc.f, got, tc.want)
		}
	}
}
