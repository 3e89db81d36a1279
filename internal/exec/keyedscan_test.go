package exec

import (
	"errors"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// keyedCatalog builds k(id INTEGER PRIMARY KEY, v INTEGER) holding ids
// n-1 … 0, so slot order is the reverse of key order.
func keyedCatalog(t *testing.T, n int) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	c := catalog.New()
	tbl, err := c.CreateTable("k", []catalog.Column{{Name: "id", Type: sqltypes.TypeInt}, {Name: "v", Type: sqltypes.TypeInt}}, []string{"id"}, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		id := int64(n - 1 - i)
		rows[i] = sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(id % 10)}
	}
	load(t, c, tbl, rows...)
	return c, tbl
}

func idIn(ids ...int64) *expr.In {
	in := &expr.In{Operand: &expr.Column{Idx: 0, Name: "id", Typ: sqltypes.TypeInt}}
	for _, id := range ids {
		in.List = append(in.List, &expr.Literal{Val: sqltypes.NewInt(id)})
	}
	return in
}

// TestScanRowsKeyed: every way a scan opens goes through newBatchScan,
// which takes a key-pinning filter's candidates in scan order, and the
// filter's residual still applies.
func TestScanRowsKeyed(t *testing.T) {
	_, tbl := keyedCatalog(t, 12288)
	vIs := func(v int64) expr.Expr {
		return &expr.Binary{Op: "=", Left: &expr.Column{Idx: 1, Name: "v", Typ: sqltypes.TypeInt}, Right: &expr.Literal{Val: sqltypes.NewInt(v)}}
	}
	scan := plan.NewScan(tbl, "")
	scan.Filter = idIn(7, 4093, 7, -1, 12)
	it := newBatchScan(scan, Options{})
	rows, _ := it.cur.Next(nil, 100, nil)
	it.Close()
	if got, want := strings.Join(rowsToStrings(rows), ";"), "4093|3;12|2;7|7"; got != want {
		t.Errorf("candidates %s, want %s (slot order, each key once)", got, want)
	}

	scan.Filter = &expr.Binary{Op: "AND", Left: scan.Filter, Right: vIs(2)}
	scan.Projection = []int{1, 0}
	agg := &plan.Aggregate{Input: scan, Aggs: []*expr.Aggregate{{Kind: expr.AggCountStar}}, Cols: []plan.ColumnInfo{{Name: "n", Type: sqltypes.TypeInt}}}
	for name, n := range map[string]plan.Node{"scan": scan, "pipeline": &plan.Filter{Input: scan, Pred: vIsAt(0, 2)}, "aggregate": agg} {
		it, err := OpenBatch(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(it, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := "2|12"
		if name == "aggregate" {
			want = "1"
		}
		if s := strings.Join(rowsToStrings(got), ";"); s != want {
			t.Errorf("%s: rows %s, want %s", name, s, want)
		}
	}
}

// vIsAt is `column at = v` over a scan's projected output.
func vIsAt(at int, v int64) expr.Expr {
	return &expr.Binary{Op: "=", Left: &expr.Column{Idx: at, Typ: sqltypes.TypeInt}, Right: &expr.Literal{Val: sqltypes.NewInt(v)}}
}

// TestScanRowsKeySubquery: a key subquery runs at open, before the table's
// lock is taken; when it fails the scan reads every row and the filter
// reports the failure on the first of them, as it did before scans probed.
func TestScanRowsKeySubquery(t *testing.T) {
	_, tbl := keyedCatalog(t, 16)
	id := &expr.Column{Idx: 0, Name: "id", Typ: sqltypes.TypeInt}
	fetched := 0
	q := &expr.InQuery{Operands: []expr.Expr{id}, Fetch: func() ([]sqltypes.Row, error) {
		fetched++
		// Reads the scanned table itself: fine, nothing is locked yet.
		var keys []sqltypes.Row
		for _, r := range tbl.Rows()[:3] {
			keys = append(keys, r[:1])
		}
		return keys, nil
	}}
	scan := plan.NewScan(tbl, "")
	scan.Filter = q
	it, err := OpenBatch(scan, Options{})
	if err != nil || fetched != 1 {
		t.Fatalf("open: %v, subquery fetched %d times", err, fetched)
	}
	got, err := drain(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(rowsToStrings(got), ";"); s != "15|5;14|4;13|3" {
		t.Errorf("rows %s", s)
	}

	boom := errors.New("subquery failed")
	scan.Filter = &expr.InQuery{Operands: []expr.Expr{id}, Fetch: func() ([]sqltypes.Row, error) { return nil, boom }}
	if _, err := RunOpts(scan, Options{}); !errors.Is(err, boom) {
		t.Errorf("the read returned %v, want the subquery's error", err)
	}
}
