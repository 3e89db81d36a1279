package plan

import (
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "b", Type: sqltypes.TypeString},
		{Name: "c", Type: sqltypes.TypeFloat},
	}, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("u", []catalog.Column{
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "d", Type: sqltypes.TypeString},
	}, nil, false); err != nil {
		t.Fatal(err)
	}
	return c
}

func bind(t *testing.T, c *catalog.Catalog, sql string) Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	return n
}

func bindErr(t *testing.T, c *catalog.Catalog, sql string) error {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err == nil {
		t.Fatalf("bind %q should fail", sql)
	}
	return err
}

func TestBindSchemaNamesAndTypes(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT a, b AS label, a * c AS prod FROM t")
	s := n.Schema()
	if len(s) != 3 {
		t.Fatalf("schema = %v", s)
	}
	if s[0].Name != "a" || s[0].Type != sqltypes.TypeInt {
		t.Errorf("col0 = %+v", s[0])
	}
	if s[1].Name != "label" {
		t.Errorf("col1 = %+v", s[1])
	}
	if s[2].Name != "prod" || s[2].Type != sqltypes.TypeFloat {
		t.Errorf("col2 = %+v", s[2])
	}
}

func TestBindStarExpansion(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT * FROM t")
	if len(n.Schema()) != 3 {
		t.Fatalf("schema = %v", n.Schema())
	}
	n2 := bind(t, c, "SELECT t.*, u.d FROM t JOIN u ON t.a = u.a")
	if len(n2.Schema()) != 4 {
		t.Fatalf("schema = %v", n2.Schema())
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT a FROM t JOIN u ON t.a = u.a")
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("err = %v", err)
	}
}

func TestBindUnknownColumn(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT zzz FROM t")
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("err = %v", err)
	}
}

func TestBindQualifiedResolution(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT x.a FROM t AS x")
	if n.Schema()[0].Name != "a" {
		t.Fatalf("schema = %v", n.Schema())
	}
	bindErr(t, c, "SELECT t.a FROM t AS x") // original name hidden by alias? DuckDB allows; we require alias
}

func TestBindAggregateSchema(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT b, SUM(a) AS s, COUNT(*) FROM t GROUP BY b")
	s := n.Schema()
	if s[1].Name != "s" || s[1].Type != sqltypes.TypeInt {
		t.Errorf("sum col = %+v", s[1])
	}
	if s[2].Name != "count(*)" {
		t.Errorf("count col = %+v", s[2])
	}
}

func TestBindGroupByOrdinalAndAlias(t *testing.T) {
	c := testCatalog(t)
	bind(t, c, "SELECT b AS grp, SUM(a) FROM t GROUP BY 1")
	bind(t, c, "SELECT b AS grp, SUM(a) FROM t GROUP BY grp")
	err := bindErr(t, c, "SELECT b, SUM(a) FROM t GROUP BY 9")
	if !strings.Contains(err.Error(), "ordinal") {
		t.Errorf("err = %v", err)
	}
}

func TestBindNonGroupedColumnRejected(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT b, c, SUM(a) FROM t GROUP BY b")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("err = %v", err)
	}
}

func TestBindHavingWithoutSelect(t *testing.T) {
	c := testCatalog(t)
	// HAVING may reference an aggregate that is not in the select list.
	bind(t, c, "SELECT b FROM t GROUP BY b HAVING SUM(a) > 10")
}

func TestBindJoinEquiKeyExtraction(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT t.a FROM t JOIN u ON t.a = u.a AND t.b = u.d")
	var j *Join
	Walk(n, func(x Node) bool {
		if jj, ok := x.(*Join); ok {
			j = jj
		}
		return true
	})
	if j == nil {
		t.Fatal("no join")
	}
	if len(j.EquiLeft) != 2 || j.On != nil {
		t.Errorf("keys = %v/%v residual = %v", j.EquiLeft, j.EquiRight, j.On)
	}
}

func TestBindJoinResidualKept(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT t.a FROM t JOIN u ON t.a = u.a AND t.c > 1.5")
	var j *Join
	Walk(n, func(x Node) bool {
		if jj, ok := x.(*Join); ok {
			j = jj
		}
		return true
	})
	if len(j.EquiLeft) != 1 || j.On == nil {
		t.Errorf("keys = %v residual = %v", j.EquiLeft, j.On)
	}
}

func TestBindSetOpArityMismatch(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT a FROM t UNION SELECT a, d FROM u")
	if !strings.Contains(err.Error(), "column counts") {
		t.Errorf("err = %v", err)
	}
}

func TestBindCTEShadowing(t *testing.T) {
	c := testCatalog(t)
	// A CTE named t shadows the base table t.
	n := bind(t, c, "WITH t AS (SELECT 1 AS one) SELECT one FROM t")
	if n.Schema()[0].Name != "one" {
		t.Fatalf("schema = %v", n.Schema())
	}
}

func TestBindNestedCTE(t *testing.T) {
	c := testCatalog(t)
	bind(t, c, `WITH x AS (SELECT a FROM t), y AS (SELECT a FROM x) SELECT a FROM y`)
}

func TestBindValuesWidths(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "VALUES (1, 'a'), (2, 'b')")
	if len(n.Schema()) != 2 {
		t.Fatalf("schema = %v", n.Schema())
	}
	bindErr(t, c, "VALUES (1), (2, 3)")
}

func TestBindLimitMustBeConst(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT a FROM t LIMIT a")
	if !strings.Contains(err.Error(), "LIMIT") {
		t.Errorf("err = %v", err)
	}
}

func TestBindSubqueryUnsupportedWithoutHook(t *testing.T) {
	c := testCatalog(t)
	err := bindErr(t, c, "SELECT (SELECT 1) FROM t")
	if !strings.Contains(err.Error(), "subquer") {
		t.Errorf("err = %v", err)
	}
}

func TestExplainTree(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT b, SUM(a) FROM t WHERE a > 0 GROUP BY b ORDER BY b LIMIT 2")
	ex := Explain(n)
	for _, want := range []string{"Limit", "Sort", "Project", "HashAggregate", "Filter", "Scan t"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain missing %q:\n%s", want, ex)
		}
	}
	// Indentation reflects tree depth.
	if !strings.Contains(ex, "  Sort") {
		t.Errorf("no indentation:\n%s", ex)
	}
}

func TestDescribeMethods(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT DISTINCT t.a FROM t JOIN u USING (a) UNION ALL SELECT a FROM u")
	var descs []string
	Walk(n, func(x Node) bool {
		descs = append(descs, x.Describe())
		return true
	})
	joined := strings.Join(descs, "\n")
	for _, want := range []string{"UnionAll", "Distinct", "HashJoin"} {
		if !strings.Contains(joined, want) {
			t.Errorf("descriptions missing %q:\n%s", want, joined)
		}
	}
}

// TestJoinDescribeNamesTheStrategy: EXPLAIN prints what the executor would
// run — one case per strategy, plus the three ways an indexed probe side
// still ends up hashed (a build side past the threshold, an index with too
// few keys for the build side, a preserved probe side).
func TestJoinDescribeNamesTheStrategy(t *testing.T) {
	c := catalog.New()
	fks := 7 // distinct fk values
	mk := func(name string, pk []string, rows int) *catalog.Table {
		tbl, err := c.CreateTable(name, []catalog.Column{
			{Name: "k", Type: sqltypes.TypeInt}, {Name: "fk", Type: sqltypes.TypeInt},
		}, pk, false)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]sqltypes.Row, rows)
		for i := range batch {
			batch[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % fks))}
		}
		tx := c.MVCC().Begin()
		if err := tbl.InsertBatchTxn(tx, batch); err != nil {
			t.Fatal(err)
		}
		if err := c.MVCC().Commit(tx); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	mk("delta", nil, 10)
	mk("bulk", nil, 11)
	few := mk("few", nil, 10*indexJoinMinFanout) // 80 rows over 7 fk values
	fks = 10 * indexJoinMinFanout
	base := mk("base", []string{"k"}, 10*indexJoinMinFanout)
	for _, tbl := range []*catalog.Table{base, few} {
		if _, err := tbl.CreateIndex(tbl.Name+"_fk", []string{"fk"}, false, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ from, want string }{
		{"delta JOIN base ON delta.k = base.k", "IndexJoin base[pk] build=left JOIN (keys: [0]=[0])"},
		{"base LEFT JOIN delta ON delta.k = base.fk", "HashJoin build=right LEFT JOIN"}, // base preserved
		{"base JOIN delta ON delta.k = base.fk", "IndexJoin base[base_fk] build=right JOIN (keys: [1]=[0])"},
		{"few JOIN delta ON delta.k = few.fk", "HashJoin build=right JOIN (keys: [1]=[0])"}, // 10 × 8 > 7 keys
		{"bulk JOIN base ON bulk.k = base.k", "HashJoin build=left JOIN (keys: [0]=[0])"},   // 11 × 8 > 80
		{"delta LEFT JOIN base ON delta.k = base.k AND base.fk > 1", "IndexJoin base[pk] build=left LEFT JOIN (keys: [0]=[0]) [residual: "},
		{"delta JOIN base ON delta.k < base.k", "NestedLoop build=left JOIN [residual: "},
		{"delta CROSS JOIN base", "NestedLoop build=left CROSS JOIN"},
	} {
		ex := Explain(bind(t, c, "SELECT * FROM "+tc.from))
		if !strings.Contains(ex, tc.want) {
			t.Errorf("%s: EXPLAIN lacks %q:\n%s", tc.from, tc.want, ex)
		}
	}
}

func TestBindExprSchemaHelper(t *testing.T) {
	c := testCatalog(t)
	b := NewBinder(c)
	stmt, err := sqlparser.Parse("SELECT x + 1")
	if err != nil {
		t.Fatal(err)
	}
	be, err := b.BindExprSchema(stmt.(*sqlparser.SelectStmt).Items[0].Expr, []ColumnInfo{{Name: "x", Type: sqltypes.TypeInt}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := be.Eval(sqltypes.Row{sqltypes.NewInt(41)})
	if err != nil || v.I != 42 {
		t.Fatalf("v = %v, %v", v, err)
	}
}

func TestBindOrderByHiddenColumn(t *testing.T) {
	c := testCatalog(t)
	n := bind(t, c, "SELECT b FROM t ORDER BY a")
	// Output schema must still be just b.
	if len(n.Schema()) != 1 || n.Schema()[0].Name != "b" {
		t.Fatalf("schema = %v", n.Schema())
	}
}
