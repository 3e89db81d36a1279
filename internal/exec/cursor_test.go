package exec

import (
	"sort"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/mvcc"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// TestScanMatchesVisibleRows: at batch size 2, a scan reading its table in
// place returns what a Go model says its snapshot sees, over holes (an
// aborted transaction's inserts), retired versions (committed updates and
// deletes) and another transaction's uncommitted writes — read from outside
// that transaction and from inside it. Full and keyed scans, with a filter
// compiled to comparisons and one left to Eval.
func TestScanMatchesVisibleRows(t *testing.T) {
	c := catalog.New()
	tbl, err := c.CreateTable("t", []catalog.Column{{Name: "k", Type: sqltypes.TypeInt}, {Name: "v", Type: sqltypes.TypeInt}}, []string{"k"}, false)
	if err != nil {
		t.Fatal(err)
	}
	mv := c.MVCC()
	kv := func(k, v int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(v)} }
	keyIs := func(pred func(k int64) bool) func(sqltypes.Row) (bool, error) {
		return func(r sqltypes.Row) (bool, error) { return pred(r[0].I), nil }
	}
	committed := map[int64]int64{}
	var rows []sqltypes.Row
	for k := int64(0); k < 40; k++ {
		rows = append(rows, kv(k, k%7))
		committed[k] = k % 7
	}
	load(t, c, tbl, rows...)

	aborted := mv.Begin() // its inserts leave holes
	if err := tbl.InsertBatchTxn(aborted, []sqltypes.Row{kv(100, 1), kv(101, 2), kv(102, 0)}); err != nil {
		t.Fatal(err)
	}
	mv.Abort(aborted)

	tx := mv.Begin() // retires versions: every fifth key updated, keys ≡ 1 (mod 6) deleted
	if _, _, err := tbl.UpdateTxn(tx, nil, keyIs(func(k int64) bool { return k%5 == 0 }),
		func(r sqltypes.Row) (sqltypes.Row, error) { return kv(r[0].I, r[1].I+1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteTxn(tx, nil, keyIs(func(k int64) bool { return k%6 == 1 })); err != nil {
		t.Fatal(err)
	}
	if err := mv.Commit(tx); err != nil {
		t.Fatal(err)
	}
	for k := range committed {
		if k%5 == 0 {
			committed[k]++
		}
		if k%6 == 1 {
			delete(committed, k)
		}
	}

	open := mv.Begin() // uncommitted: inserts, deletes and an update
	defer mv.Abort(open)
	if err := tbl.InsertBatchTxn(open, []sqltypes.Row{kv(200, 0), kv(201, 5), kv(202, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.DeleteTxn(open, nil, keyIs(func(k int64) bool { return k == 2 || k == 3 })); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.UpdateTxn(open, nil, keyIs(func(k int64) bool { return k == 4 || k == 10 }),
		func(r sqltypes.Row) (sqltypes.Row, error) { return kv(r[0].I, 0), nil }); err != nil {
		t.Fatal(err)
	}
	own := map[int64]int64{}
	for k, v := range committed {
		own[k] = v
	}
	own[200], own[201], own[202] = 0, 5, 2
	delete(own, 2)
	delete(own, 3)
	own[4], own[10] = 0, 0

	col := func(i int) *expr.Column { return &expr.Column{Idx: i, Typ: sqltypes.TypeInt} }
	lit := func(v int64) *expr.Literal { return &expr.Literal{Val: sqltypes.NewInt(v)} }
	compiled := &expr.Binary{Op: "<", Left: col(1), Right: lit(3)}
	evaluated := &expr.Binary{Op: "<", Left: &expr.Binary{Op: "+", Left: col(1), Right: lit(0)}, Right: lit(3)}
	keys := []int64{0, 1, 2, 3, 4, 5, 10, 15, 100, 200, 202, 999}
	keyed := idIn(keys...)
	keyed.Operand = col(0)
	picked := map[int64]bool{}
	for _, k := range keys {
		picked[k] = true
	}
	sn, release := mv.AcquireSnapshot()
	defer release()
	for _, view := range []struct {
		name  string
		sn    mvcc.Snapshot
		model map[int64]int64
	}{
		{"registered snapshot", sn, committed},
		{"zero snapshot", mvcc.Snapshot{}, committed},
		{"the writer's own snapshot", open.Snapshot(), own},
	} {
		for _, f := range []struct {
			name     string
			filter   expr.Expr
			keyed    bool
			compiled bool
			keep     func(k, v int64) bool
		}{
			{"full", nil, false, false, func(k, v int64) bool { return true }},
			{"full, compiled filter", compiled, false, true, func(k, v int64) bool { return v < 3 }},
			{"full, Eval filter", evaluated, false, false, func(k, v int64) bool { return v < 3 }},
			{"keyed", keyed, true, false, func(k, v int64) bool { return picked[k] }},
			{"keyed, residual filter", &expr.Binary{Op: "AND", Left: keyed, Right: compiled}, true, false,
				func(k, v int64) bool { return picked[k] && v < 3 }},
		} {
			var want []string
			for k, v := range view.model {
				if f.keep(k, v) {
					want = append(want, kv(k, v).String())
				}
			}
			sort.Strings(want)
			scan := plan.NewScan(tbl, "")
			scan.Filter = f.filter
			opts := Options{BatchSize: 2, Snap: view.sn}
			it := newBatchScan(scan, opts)
			if it.exact != (f.keyed || f.filter == nil) || (it.keep != nil) != f.compiled {
				t.Errorf("%s, %s: exact %v, compiled %v", view.name, f.name, it.exact, it.keep != nil)
			}
			it.Close()
			got, err := RunOpts(scan, opts)
			if err != nil {
				t.Fatal(err)
			}
			g := rowsToStrings(got)
			sort.Strings(g)
			if strings.Join(g, " ") != strings.Join(want, " ") {
				t.Errorf("%s, %s:\n got %v\nwant %v", view.name, f.name, g, want)
			}
			if n := tbl.OpenScans(); n != 0 {
				t.Errorf("%s, %s: %d cursors left open", view.name, f.name, n)
			}
		}
	}
}

// TestPrefixProjectionReslices: a projection onto the first columns of its
// input, in order, hands up the input's rows re-sliced; any other
// projection — reordered, skipping a column, an expression — builds rows.
func TestPrefixProjectionReslices(t *testing.T) {
	c := catalog.New()
	tbl, err := c.CreateTable("t", []catalog.Column{{Name: "a", Type: sqltypes.TypeInt}, {Name: "b", Type: sqltypes.TypeInt},
		{Name: "c", Type: sqltypes.TypeInt}}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var rows []sqltypes.Row
	for i := int64(0); i < 5; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(10 * i), sqltypes.NewInt(100 * i)})
	}
	load(t, c, tbl, rows...)
	stored := tbl.Rows()
	col := func(i int) expr.Expr { return &expr.Column{Idx: i, Typ: sqltypes.TypeInt} }
	plus0 := &expr.Binary{Op: "+", Left: col(0), Right: &expr.Literal{Val: sqltypes.NewInt(0)}}
	for _, c := range []struct {
		name    string
		scan    []int       // the scan's projection
		project []expr.Expr // a Project above the scan, when non-nil
		cols    []int       // the stored columns each output row holds
		reslice bool
	}{
		{"scan, prefix", []int{0, 1}, nil, []int{0, 1}, true},
		{"scan, reordered", []int{1, 0}, nil, []int{1, 0}, false},
		{"scan, skipping a column", []int{0, 2}, nil, []int{0, 2}, false},
		{"project, prefix", nil, []expr.Expr{col(0), col(1)}, []int{0, 1}, true},
		{"project, every column", nil, []expr.Expr{col(0), col(1), col(2)}, []int{0, 1, 2}, true},
		{"project, reordered", nil, []expr.Expr{col(1), col(0)}, []int{1, 0}, false},
		{"project, not from the first", nil, []expr.Expr{col(1), col(2)}, []int{1, 2}, false},
		{"project, an expression", nil, []expr.Expr{plus0, col(1)}, []int{0, 1}, false},
	} {
		scan := plan.NewScan(tbl, "")
		scan.Projection = c.scan
		var n plan.Node = scan
		if c.project != nil {
			n = &plan.Project{Input: scan, Exprs: c.project}
		}
		got, err := RunOpts(n, Options{BatchSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(stored) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(got), len(stored))
		}
		for i, r := range got {
			if len(r) != len(c.cols) || cap(r) != len(c.cols) {
				t.Fatalf("%s: row %d has length %d and capacity %d, want %d", c.name, i, len(r), cap(r), len(c.cols))
			}
			for j, p := range c.cols {
				if r[j] != stored[i][p] {
					t.Errorf("%s: row %d is %v, want columns %v of %v", c.name, i, r, c.cols, stored[i])
				}
			}
			if shared := &r[0] == &stored[i][0]; shared != c.reslice {
				t.Errorf("%s: row %d shares the stored row: %v, want %v", c.name, i, shared, c.reslice)
			}
		}
	}
}
