package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/enginerr"
	"openivm/internal/sqltypes"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st := mustParse(t, sql)
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", sql, st)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b AS x FROM t WHERE a > 1")
	if len(sel.Items) != 2 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "x" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	nt, ok := sel.From.(*NamedTable)
	if !ok || nt.Name != "t" {
		t.Errorf("from = %#v", sel.From)
	}
	be, ok := sel.Where.(*BinaryExpr)
	if !ok || be.Op != ">" {
		t.Errorf("where = %#v", sel.Where)
	}
}

func TestParseImplicitAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT a x FROM t y")
	if sel.Items[0].Alias != "x" {
		t.Errorf("alias = %q", sel.Items[0].Alias)
	}
	if sel.From.(*NamedTable).Alias != "y" {
		t.Errorf("table alias = %q", sel.From.(*NamedTable).Alias)
	}
}

func TestParseGroupByAggregates(t *testing.T) {
	sel := mustSelect(t, `SELECT group_index, SUM(group_value) AS total_value
		FROM groups GROUP BY group_index`)
	if len(sel.GroupBy) != 1 {
		t.Fatalf("groupby = %d", len(sel.GroupBy))
	}
	fe, ok := sel.Items[1].Expr.(*FuncExpr)
	if !ok || fe.Name != "SUM" {
		t.Fatalf("item 1 = %#v", sel.Items[1].Expr)
	}
}

func TestParseCountStar(t *testing.T) {
	sel := mustSelect(t, "SELECT COUNT(*) FROM t")
	fe := sel.Items[0].Expr.(*FuncExpr)
	if !fe.Star || fe.Name != "COUNT" {
		t.Errorf("got %#v", fe)
	}
}

func TestParseCountDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT COUNT(DISTINCT a) FROM t")
	fe := sel.Items[0].Expr.(*FuncExpr)
	if !fe.Distinct {
		t.Errorf("got %#v", fe)
	}
}

func TestParseJoins(t *testing.T) {
	cases := map[string]JoinKind{
		"SELECT * FROM a JOIN b ON a.x = b.x":            JoinInner,
		"SELECT * FROM a INNER JOIN b ON a.x = b.x":      JoinInner,
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x":       JoinLeft,
		"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x": JoinLeft,
		"SELECT * FROM a RIGHT JOIN b ON a.x = b.x":      JoinRight,
		"SELECT * FROM a FULL OUTER JOIN b ON a.x = b.x": JoinFull,
		"SELECT * FROM a CROSS JOIN b":                   JoinCross,
		"SELECT * FROM a, b":                             JoinCross,
	}
	for sql, kind := range cases {
		sel := mustSelect(t, sql)
		jt, ok := sel.From.(*JoinTable)
		if !ok {
			t.Fatalf("%q: from = %#v", sql, sel.From)
		}
		if jt.Kind != kind {
			t.Errorf("%q: kind = %v, want %v", sql, jt.Kind, kind)
		}
	}
}

func TestParseJoinUsing(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM a JOIN b USING (x, y)")
	jt := sel.From.(*JoinTable)
	if len(jt.Using) != 2 || jt.Using[0] != "x" {
		t.Errorf("using = %v", jt.Using)
	}
}

func TestParseJoinChain(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM a JOIN b ON a.x=b.x LEFT JOIN c ON b.y=c.y")
	outer, ok := sel.From.(*JoinTable)
	if !ok || outer.Kind != JoinLeft {
		t.Fatalf("outer = %#v", sel.From)
	}
	inner, ok := outer.Left.(*JoinTable)
	if !ok || inner.Kind != JoinInner {
		t.Fatalf("inner = %#v", outer.Left)
	}
}

func TestParseCTE(t *testing.T) {
	sel := mustSelect(t, `WITH ivm_cte AS (SELECT a FROM t), two AS (SELECT 2)
		SELECT * FROM ivm_cte`)
	if len(sel.CTEs) != 2 || sel.CTEs[0].Name != "ivm_cte" || sel.CTEs[1].Name != "two" {
		t.Fatalf("ctes = %#v", sel.CTEs)
	}
}

func TestParseSetOps(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 UNION ALL SELECT 2 UNION SELECT 3 EXCEPT SELECT 4")
	if sel.NextOp != SetUnionAll {
		t.Fatalf("op1 = %v", sel.NextOp)
	}
	if sel.Next.NextOp != SetUnion {
		t.Fatalf("op2 = %v", sel.Next.NextOp)
	}
	if sel.Next.Next.NextOp != SetExcept {
		t.Fatalf("op3 = %v", sel.Next.Next.NextOp)
	}
}

func TestParseOrderLimitOffset(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("orderby = %#v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Fatal("limit/offset missing")
	}
}

func TestParseValues(t *testing.T) {
	sel := mustSelect(t, "VALUES (1, 'a'), (2, 'b')")
	if len(sel.Values) != 2 || len(sel.Values[0]) != 2 {
		t.Fatalf("values = %#v", sel.Values)
	}
}

func TestParseSubqueryTable(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM (SELECT a FROM t) AS sub")
	st, ok := sel.From.(*SubqueryTable)
	if !ok || st.Alias != "sub" {
		t.Fatalf("from = %#v", sel.From)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	be := e.(*BinaryExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %q", be.Op)
	}
	if be.Right.(*BinaryExpr).Op != "*" {
		t.Fatalf("rhs = %#v", be.Right)
	}
}

func TestParseExprBoolPrecedence(t *testing.T) {
	e, err := ParseExpr("a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	be := e.(*BinaryExpr)
	if be.Op != "OR" {
		t.Fatalf("top = %q", be.Op)
	}
	if be.Right.(*BinaryExpr).Op != "AND" {
		t.Fatalf("rhs = %#v", be.Right)
	}
}

func TestParseExprForms(t *testing.T) {
	for _, sql := range []string{
		"x IS NULL", "x IS NOT NULL", "x IN (1,2,3)", "x NOT IN (1)",
		"x BETWEEN 1 AND 10", "x NOT BETWEEN 1 AND 10",
		"x LIKE 'a%'", "x NOT LIKE 'a%'",
		"CASE WHEN a THEN 1 ELSE 2 END", "CASE x WHEN 1 THEN 'a' END",
		"CAST(a AS INTEGER)", "a::VARCHAR",
		"COALESCE(a, 0)", "-a + 3", "NOT a", "a || b",
		"SUM(CASE WHEN m = FALSE THEN -v ELSE v END)",
	} {
		if _, err := ParseExpr(sql); err != nil {
			t.Errorf("ParseExpr(%q): %v", sql, err)
		}
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE groups (
		group_index VARCHAR NOT NULL,
		group_value INTEGER,
		PRIMARY KEY (group_index))`).(*CreateTableStmt)
	if st.Name != "groups" || len(st.Columns) != 2 {
		t.Fatalf("got %#v", st)
	}
	if !st.Columns[0].NotNull || st.Columns[0].Type != sqltypes.TypeString {
		t.Errorf("col0 = %#v", st.Columns[0])
	}
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "group_index" {
		t.Errorf("pk = %v", st.PrimaryKey)
	}
}

func TestParseCreateTableInlinePK(t *testing.T) {
	st := mustParse(t, "CREATE TABLE t (id INTEGER PRIMARY KEY, v DOUBLE DEFAULT 0)").(*CreateTableStmt)
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", st.PrimaryKey)
	}
	if st.Columns[1].Default == nil {
		t.Error("default missing")
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st := mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT)").(*CreateTableStmt)
	if !st.IfNotExists {
		t.Error("IfNotExists not set")
	}
}

func TestParseCreateTableAsSelect(t *testing.T) {
	st := mustParse(t, "CREATE TABLE t AS SELECT a FROM s").(*CreateTableStmt)
	if st.AsSelect == nil {
		t.Error("AsSelect missing")
	}
}

func TestParseCreateMaterializedView(t *testing.T) {
	sql := `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`
	st := mustParse(t, sql).(*CreateViewStmt)
	if !st.Materialized || st.Name != "query_groups" {
		t.Fatalf("got %#v", st)
	}
	if !strings.HasPrefix(st.SourceSQL, "SELECT") {
		t.Errorf("source = %q", st.SourceSQL)
	}
}

func TestParseCreateIndex(t *testing.T) {
	st := mustParse(t, "CREATE UNIQUE INDEX idx ON t (a, b)").(*CreateIndexStmt)
	if !st.Unique || st.Table != "t" || len(st.Columns) != 2 {
		t.Fatalf("got %#v", st)
	}
}

func TestParseDrop(t *testing.T) {
	st := mustParse(t, "DROP TABLE IF EXISTS t").(*DropStmt)
	if st.Kind != "TABLE" || !st.IfExists {
		t.Fatalf("got %#v", st)
	}
	st2 := mustParse(t, "DROP MATERIALIZED VIEW v").(*DropStmt)
	if st2.Kind != "VIEW" {
		t.Fatalf("got %#v", st2)
	}
}

func TestParseInsertValues(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*InsertStmt)
	if st.Table != "t" || len(st.Columns) != 2 || len(st.Select.Values) != 2 {
		t.Fatalf("got %#v", st)
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := mustParse(t, "INSERT INTO t SELECT * FROM s WHERE a > 0").(*InsertStmt)
	if st.Select.From == nil {
		t.Fatalf("got %#v", st)
	}
}

func TestParseInsertOrReplace(t *testing.T) {
	st := mustParse(t, "INSERT OR REPLACE INTO t VALUES (1)").(*InsertStmt)
	if !st.OrReplace {
		t.Error("OrReplace not set")
	}
}

func TestParseInsertOnConflict(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 2)
		ON CONFLICT (a) DO UPDATE SET b = EXCLUDED.b`).(*InsertStmt)
	if st.Conflict == nil || len(st.Conflict.Columns) != 1 || len(st.Conflict.Set) != 1 {
		t.Fatalf("got %#v", st.Conflict)
	}
	cr := st.Conflict.Set[0].Value.(*ColumnRef)
	if cr.Table != "excluded" || cr.Column != "b" {
		t.Errorf("excluded ref = %#v", cr)
	}
}

func TestParseInsertOnConflictDoNothing(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (1) ON CONFLICT (a) DO NOTHING").(*InsertStmt)
	if st.Conflict == nil || !st.Conflict.DoNothing {
		t.Fatalf("got %#v", st.Conflict)
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").(*UpdateStmt)
	if len(st.Set) != 2 || st.Where == nil {
		t.Fatalf("got %#v", st)
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, "DELETE FROM t WHERE a < 0").(*DeleteStmt)
	if st.Table != "t" || st.Where == nil {
		t.Fatalf("got %#v", st)
	}
	st2 := mustParse(t, "DELETE FROM t").(*DeleteStmt)
	if st2.Where != nil {
		t.Fatal("unexpected where")
	}
}

// TestParseDeleteUsing: DELETE … USING parses into the NULL-safe IN its
// keyed shape stands for — one key column or several, either side of IS
// NOT DISTINCT FROM, the target's columns qualified or not, residual
// conjuncts kept beside it — and every other shape is refused with 0A000.
func TestParseDeleteUsing(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.k IS NOT DISTINCT FROM x.k",
			"v.k IN (SELECT x.k)"},
		{"DELETE FROM v USING (SELECT a, b FROM d WHERE m = FALSE) AS x WHERE x.a IS NOT DISTINCT FROM v.g AND h IS NOT DISTINCT FROM x.b AND n = 0",
			"(v.g, h) IN (SELECT x.a, x.b) AND (n = 0)"},
		{"DELETE FROM v USING (SELECT k FROM d) d WHERE (v.n > 1 AND v.k IS NOT DISTINCT FROM d.k) AND v.n < 9",
			"v.k IN (SELECT d.k) AND (v.n > 1) AND (v.n < 9)"},
	} {
		st := mustParse(t, c.sql).(*DeleteStmt)
		var in *InExpr
		var rest []string
		for _, term := range Conjuncts(st.Where) {
			if x, ok := term.(*InExpr); ok && in == nil {
				in = x
				continue
			}
			rest = append(rest, ExprString(term))
		}
		if in == nil || !in.NullSafe || in.Negate || len(in.List) != 1 {
			t.Errorf("%s: no NULL-safe IN in %s", c.sql, ExprString(st.Where))
			continue
		}
		sel := in.List[0].(*SubqueryExpr).Select
		var items []string
		for _, it := range sel.Items {
			items = append(items, ExprString(it.Expr))
		}
		got := ExprString(in.Operand) + " IN (SELECT " + strings.Join(items, ", ") + ")"
		if _, ok := sel.From.(*SubqueryTable); !ok {
			got += fmt.Sprintf(" FROM %T", sel.From)
		}
		if len(rest) > 0 {
			got += " AND " + strings.Join(rest, " AND ")
		}
		if st.Table != "v" || got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
	for _, bad := range []string{
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.k = x.k",                                       // a join through =
		"DELETE FROM v USING (SELECT k, m FROM d) AS x WHERE v.k IS NOT DISTINCT FROM x.k AND x.m = FALSE", // a residual on the alias
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.k IS NOT DISTINCT FROM x.k OR v.n = 0",         // a disjunction
		"DELETE FROM v USING (SELECT k FROM d) WHERE v.k IS NOT DISTINCT FROM k",                           // no alias
		"DELETE FROM v USING d AS x WHERE v.k IS NOT DISTINCT FROM x.k",                                    // a table, not a subquery
		"DELETE FROM v USING (SELECT k FROM d) AS x",                                                       // no key at all
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.n = 0",                                         // the same
		"DELETE FROM v USING (SELECT k, j FROM d) AS x WHERE x.k IS NOT DISTINCT FROM x.j",                 // no column of v
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.k + 1 IS NOT DISTINCT FROM x.k",                // an expression
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE w.k IS NOT DISTINCT FROM x.k",                    // another table's column
		"DELETE FROM v USING (SELECT k FROM d) AS x WHERE v.k IS NOT DISTINCT FROM x.k + 1",                // an expression on the alias
		"DELETE FROM v USING generate_series(1, 3) AS x WHERE v.k IS NOT DISTINCT FROM x.x",                // a function
		"DELETE FROM v USING (SELECT k FROM d) AS v WHERE v.k IS NOT DISTINCT FROM v.k",                    // the target's name
	} {
		_, err := Parse(bad)
		if code := enginerr.CodeOf(err); code != enginerr.CodeFeatureNotSupported {
			t.Errorf("Parse(%q) = %v (SQLSTATE %q), want 0A000", bad, err, code)
		}
	}
}

func TestParseTruncate(t *testing.T) {
	st := mustParse(t, "TRUNCATE TABLE t").(*TruncateStmt)
	if st.Table != "t" {
		t.Fatalf("got %#v", st)
	}
}

func TestParseTransactionControl(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "COMMIT").(*CommitStmt); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Error("ROLLBACK")
	}
}

func TestParseRefresh(t *testing.T) {
	st := mustParse(t, "REFRESH MATERIALIZED VIEW mv").(*RefreshStmt)
	if st.View != "mv" {
		t.Fatalf("got %#v", st)
	}
}

// TestParsePragma: PRAGMA is no statement and no keyword; the statement is
// refused and the word is an ordinary identifier.
func TestParsePragma(t *testing.T) {
	for _, sql := range []string{"PRAGMA ivm_empty='hidden_count'", "PRAGMA workers"} {
		_, err := Parse(sql)
		if err == nil || !strings.Contains(err.Error(), "expected statement") {
			t.Errorf("Parse(%q): err = %v, want expected statement", sql, err)
		}
	}
	if _, ok := mustParse(t, "SELECT pragma FROM t").(*SelectStmt); !ok {
		t.Error("pragma should parse as a column name")
	}
}

func TestParseCreateTrigger(t *testing.T) {
	st := mustParse(t, `CREATE TRIGGER cap AFTER INSERT OR DELETE OR UPDATE ON orders
		FOR EACH ROW EXECUTE 'ivm_capture'`).(*CreateTriggerStmt)
	if st.Table != "orders" || len(st.Events) != 3 || st.Handler != "ivm_capture" {
		t.Fatalf("got %#v", st)
	}
}

func TestParseScriptMultiple(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParsePaperListing2(t *testing.T) {
	// The exact shape of SQL the paper's compiler emits (Listing 2) must
	// round-trip through our parser.
	stmts, err := ParseScript(`
INSERT INTO delta_query_groups
SELECT group_index, SUM(group_value) AS total_value, _duckdb_ivm_multiplicity
FROM delta_groups
GROUP BY group_index, _duckdb_ivm_multiplicity;
INSERT OR REPLACE INTO query_groups
WITH ivm_cte AS (
  SELECT group_index,
    SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE THEN -total_value ELSE total_value END) AS total_value
  FROM delta_query_groups
  GROUP BY group_index)
SELECT query_groups.group_index,
  SUM(COALESCE(query_groups.total_value, 0) + delta_query_groups.total_value)
FROM ivm_cte AS delta_query_groups
LEFT JOIN query_groups ON query_groups.group_index = delta_query_groups.group_index
GROUP BY query_groups.group_index;
DELETE FROM query_groups WHERE total_value = 0;
DELETE FROM delta_query_groups;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("got %d statements", len(stmts))
	}
	ins, ok := stmts[1].(*InsertStmt)
	if !ok || !ins.OrReplace {
		t.Fatalf("stmt[1] = %#v", stmts[1])
	}
	if len(ins.Select.CTEs) != 1 || ins.Select.CTEs[0].Name != "ivm_cte" {
		t.Fatalf("cte = %#v", ins.Select.CTEs)
	}
}

func TestParseErrorsHaveLineInfo(t *testing.T) {
	_, err := Parse("SELECT a\nFROM")
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT", "SELECT FROM t", "INSERT t VALUES (1)",
		"CREATE TABLE t", "SELECT * FROM t WHERE", "DELETE t",
		"SELECT * FROM a JOIN b", "CASE END", "SELECT 1 2 3 FROM",
		"PRAGMA workers = 4",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestExprString(t *testing.T) {
	e, err := ParseExpr("SUM(CASE WHEN m = FALSE THEN -v ELSE v END)")
	if err != nil {
		t.Fatal(err)
	}
	s := ExprString(e)
	if !strings.Contains(s, "SUM(CASE WHEN") || !strings.Contains(s, "ELSE v END)") {
		t.Errorf("ExprString = %q", s)
	}
	// Must re-parse.
	if _, err := ParseExpr(s); err != nil {
		t.Errorf("ExprString output %q does not re-parse: %v", s, err)
	}
}

func TestExprStringRoundtripMany(t *testing.T) {
	for _, sql := range []string{
		"a + b * c", "(a + b) * c", "a IS NULL AND b IS NOT NULL",
		"x IN (1, 2)", "x BETWEEN 1 AND 2", "COALESCE(a, b, 0)",
		"CAST(x AS INTEGER)", "NOT (a OR b)", "a LIKE 'x%'",
	} {
		e, err := ParseExpr(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		s := ExprString(e)
		e2, err := ParseExpr(s)
		if err != nil {
			t.Fatalf("roundtrip %q -> %q: %v", sql, s, err)
		}
		if ExprString(e2) != s {
			t.Errorf("unstable roundtrip: %q -> %q -> %q", sql, s, ExprString(e2))
		}
	}
}

func TestWalkExpr(t *testing.T) {
	e, _ := ParseExpr("a + SUM(b) * CASE WHEN c THEN d ELSE e END")
	var cols []string
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			cols = append(cols, c.Column)
		}
		return true
	})
	if len(cols) != 5 {
		t.Errorf("cols = %v", cols)
	}
}

func TestDisplayName(t *testing.T) {
	e, _ := ParseExpr("foo")
	if DisplayName(e) != "foo" {
		t.Errorf("got %q", DisplayName(e))
	}
	e2, _ := ParseExpr("SUM(x)")
	if DisplayName(e2) != "sum(x)" {
		t.Errorf("got %q", DisplayName(e2))
	}
}

func TestParseQualifiedTable(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM pg.orders")
	nt := sel.From.(*NamedTable)
	if nt.Schema != "pg" || nt.Name != "orders" {
		t.Fatalf("got %#v", nt)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	sel := mustSelect(t, "SELECT (SELECT MAX(a) FROM t) FROM s")
	if _, ok := sel.Items[0].Expr.(*SubqueryExpr); !ok {
		t.Fatalf("got %#v", sel.Items[0].Expr)
	}
}

func TestParseInSubquery(t *testing.T) {
	e, err := ParseExpr("x IN (SELECT a FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	ie := e.(*InExpr)
	if _, ok := ie.List[0].(*SubqueryExpr); !ok {
		t.Fatalf("got %#v", ie.List[0])
	}
}

// TestParseIsDistinctFrom: `IS [NOT] DISTINCT FROM` parses to a comparison
// at `=`'s precedence — looser than arithmetic, tighter than AND — and
// round-trips through ExprString; `IS [NOT] NULL` is unaffected.
func TestParseIsDistinctFrom(t *testing.T) {
	for sql, want := range map[string]string{
		"a IS NOT DISTINCT FROM b":              "(a IS NOT DISTINCT FROM b)",
		"a IS DISTINCT FROM b + 1":              "(a IS DISTINCT FROM (b + 1))",
		"a IS NOT DISTINCT FROM b AND c":        "((a IS NOT DISTINCT FROM b) AND c)",
		"t.x IS NOT DISTINCT FROM NULL":         "(t.x IS NOT DISTINCT FROM NULL)",
		"a IS NOT NULL OR b IS DISTINCT FROM c": "((a IS NOT NULL) OR (b IS DISTINCT FROM c))",
	} {
		e, err := ParseExpr(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if got := ExprString(e); got != want {
			t.Errorf("%q renders as %q, want %q", sql, got, want)
		}
		e2, err := ParseExpr(want)
		if err != nil || ExprString(e2) != want {
			t.Errorf("%q does not round-trip: %v", want, err)
		}
	}
	for _, bad := range []string{"a IS DISTINCT b", "a IS NOT DISTINCT", "a IS DISTINCT FROM"} {
		if _, err := ParseExpr(bad); err == nil {
			t.Errorf("ParseExpr(%q) should fail", bad)
		}
	}
}

// TestParseUniqueNullsNotDistinct: UNIQUE NULLS NOT DISTINCT (…) is the
// table's key, as a table-level PRIMARY KEY (…) is; a table has one key,
// and a bare UNIQUE (…) is not one.
func TestParseUniqueNullsNotDistinct(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE v (k VARCHAR, j INTEGER, n BIGINT, unique nulls not distinct (k, j))").(*CreateTableStmt)
	if strings.Join(ct.PrimaryKey, ",") != "k,j" || len(ct.Columns) != 3 {
		t.Errorf("key %v, %d columns", ct.PrimaryKey, len(ct.Columns))
	}
	for _, sql := range []string{
		"CREATE TABLE v (k VARCHAR, UNIQUE (k))",
		"CREATE TABLE v (k VARCHAR, UNIQUE NULLS DISTINCT (k))",
		"CREATE TABLE v (k VARCHAR PRIMARY KEY, UNIQUE NULLS NOT DISTINCT (k))",
		"CREATE TABLE v (k VARCHAR, PRIMARY KEY (k), PRIMARY KEY (k))",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
}

// TestParseGenerateSeries: generate_series(lo, hi) [AS alias] is a FROM
// item whose bounds are expressions; no other function is one.
func TestParseGenerateSeries(t *testing.T) {
	sel := mustSelect(t, "SELECT k FROM t, generate_series(1, n + 1) AS g")
	jt, ok := sel.From.(*JoinTable)
	if !ok || jt.Kind != JoinCross {
		t.Fatalf("from = %#v", sel.From)
	}
	st, ok := jt.Right.(*SeriesTable)
	if !ok || st.Alias != "g" || ExprString(st.Lo) != "1" || ExprString(st.Hi) != "(n + 1)" {
		t.Fatalf("series = %#v", jt.Right)
	}
	if st, ok := mustSelect(t, "SELECT * FROM GENERATE_SERIES(1, 3)").From.(*SeriesTable); !ok || st.Alias != "" {
		t.Errorf("from = %#v", st)
	}
	if _, err := Parse("SELECT * FROM unnest(1, 2)"); err == nil {
		t.Error("a function other than generate_series accepted in FROM")
	}
}
