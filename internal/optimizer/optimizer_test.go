package optimizer

import (
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tbl, err := c.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "b", Type: sqltypes.TypeString},
		{Name: "c", Type: sqltypes.TypeFloat},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	tx := c.MVCC().Begin()
	for i := 0; i < 10; i++ {
		if err := tbl.InsertTxn(tx, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("x"),
			sqltypes.NewFloat(float64(i) / 2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MVCC().Commit(tx); err != nil {
		t.Fatal(err)
	}
	return c
}

func bindSQL(t *testing.T, c *catalog.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPushFilterIntoScan(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT a FROM t WHERE a > 5")
	opt := Optimize(n)
	ex := plan.Explain(opt)
	if strings.Contains(ex, "Filter") {
		t.Errorf("filter not pushed:\n%s", ex)
	}
	if !strings.Contains(ex, "[filter:") {
		t.Errorf("scan filter missing:\n%s", ex)
	}
	rows, err := exec.RunOpts(opt, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestFoldConstants(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT a FROM t WHERE a > 2 + 3")
	opt := Optimize(n)
	ex := plan.Explain(opt)
	if strings.Contains(ex, "2 + 3") {
		t.Errorf("constant not folded:\n%s", ex)
	}
	if !strings.Contains(ex, "5") {
		t.Errorf("folded constant missing:\n%s", ex)
	}
}

func TestFoldWhereTrue(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT a FROM t WHERE 1 = 1")
	opt := Optimize(n)
	if strings.Contains(plan.Explain(opt), "Filter") {
		t.Errorf("WHERE TRUE should vanish:\n%s", plan.Explain(opt))
	}
	rows, _ := exec.RunOpts(opt, exec.Options{})
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestPruneScanColumns(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT b FROM t")
	opt := Optimize(n)
	// The scan should project only column b.
	var scan *plan.Scan
	plan.Walk(opt, func(x plan.Node) bool {
		if s, ok := x.(*plan.Scan); ok {
			scan = s
		}
		return true
	})
	if scan == nil {
		t.Fatal("no scan")
	}
	if len(scan.Projection) != 1 || scan.Projection[0] != 1 {
		t.Errorf("projection = %v", scan.Projection)
	}
	rows, err := exec.RunOpts(opt, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0][0].S != "x" {
		t.Errorf("rows = %v", rows[:1])
	}
}

func TestPruneSkippedWhenAllUsed(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT a, b, c FROM t")
	opt := Optimize(n)
	var scan *plan.Scan
	plan.Walk(opt, func(x plan.Node) bool {
		if s, ok := x.(*plan.Scan); ok {
			scan = s
		}
		return true
	})
	if scan.Projection != nil {
		t.Errorf("all-columns scan should not be pruned: %v", scan.Projection)
	}
}

func TestOptimizedAggStillCorrect(t *testing.T) {
	c := testCatalog(t)
	n := bindSQL(t, c, "SELECT b, SUM(a) FROM t WHERE a >= 2 GROUP BY b")
	rows, err := exec.RunOpts(Optimize(n), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].I != 44 {
		t.Errorf("rows = %v", rows)
	}
}

func TestFoldUnaryAndCast(t *testing.T) {
	e := foldExpr(&expr.Unary{Op: "-", Operand: &expr.Literal{Val: sqltypes.NewInt(3)}})
	lit, ok := e.(*expr.Literal)
	if !ok || lit.Val.I != -3 {
		t.Errorf("got %#v", e)
	}
	e2 := foldExpr(&expr.Cast{Operand: &expr.Literal{Val: sqltypes.NewString("7")}, Target: sqltypes.TypeInt})
	lit2, ok := e2.(*expr.Literal)
	if !ok || lit2.Val.I != 7 {
		t.Errorf("got %#v", e2)
	}
}
