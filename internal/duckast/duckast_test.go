package duckast

import "testing"

func TestSelectSQL(t *testing.T) {
	sel := &Select{
		Items: []SelectItem{
			{Expr: &Col{Name: "a"}},
			{Expr: &Raw{Text: "SUM(b)"}, Alias: "s"},
		},
		From:    &Raw{Text: "t"},
		Where:   &Raw{Text: "a > 1"},
		GroupBy: []Node{&Col{Name: "a"}},
	}
	want := "SELECT a, SUM(b) AS s FROM t WHERE a > 1 GROUP BY a"
	if got := sel.SQL(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestSelectGroupByHaving(t *testing.T) {
	sel := &Select{
		Items:   []SelectItem{{Expr: &Col{Name: "a"}}},
		From:    &Raw{Text: "t AS x"},
		Having:  &Raw{Text: "COUNT(*) > 1"},
		GroupBy: []Node{&Col{Name: "a"}, &Col{Table: "x", Name: "b"}},
	}
	want := "SELECT a FROM t AS x GROUP BY a, x.b HAVING COUNT(*) > 1"
	if got := sel.SQL(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestInsertUpsertDialects: an upsert is one ON CONFLICT … DO UPDATE
// statement, the one text DuckDB and PostgreSQL both run.
func TestInsertUpsertDialects(t *testing.T) {
	ins := &Insert{
		Table:        "v",
		Columns:      []string{"k", "s", "n"},
		Select:       &Select{Items: []SelectItem{{Expr: &Raw{Text: "1"}}, {Expr: &Raw{Text: "2"}}}},
		ConflictKeys: []string{"k"},
		Set:          []string{"s = v.s + EXCLUDED.s", "n = v.n + EXCLUDED.n"},
	}
	want := "INSERT INTO v (k, s, n) SELECT 1, 2 ON CONFLICT (k) DO UPDATE SET s = v.s + EXCLUDED.s, n = v.n + EXCLUDED.n"
	if got := ins.SQL(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestInsertPlain(t *testing.T) {
	ins := &Insert{Table: "t", Select: &Select{Items: []SelectItem{{Expr: &Raw{Text: "1"}}}}}
	if got := ins.SQL(); got != "INSERT INTO t SELECT 1" {
		t.Errorf("got %q", got)
	}
}

func TestDeleteSQL(t *testing.T) {
	d := &Delete{Table: "t", Where: &Raw{Text: "a = 1"}}
	if got := d.SQL(); got != "DELETE FROM t WHERE a = 1" {
		t.Errorf("got %q", got)
	}
	d2 := &Delete{Table: "t"}
	if got := d2.SQL(); got != "DELETE FROM t" {
		t.Errorf("got %q", got)
	}
	d3 := &Delete{Table: "t", Using: &Raw{Text: "(SELECT a FROM d) AS x"}, Where: &Raw{Text: "t.a IS NOT DISTINCT FROM x.a"}}
	if got := d3.SQL(); got != "DELETE FROM t USING (SELECT a FROM d) AS x WHERE t.a IS NOT DISTINCT FROM x.a" {
		t.Errorf("got %q", got)
	}
}

// TestCreateTableDialectTypes: one type map for both targets. The
// engine's 64-bit INTEGER is BIGINT (INTEGER is 32 bits on DuckDB and
// PostgreSQL), DOUBLE is DOUBLE PRECISION (PostgreSQL has no DOUBLE), and
// VARCHAR and BOOLEAN keep their names. The key is UNIQUE NULLS NOT
// DISTINCT, which admits the NULL group a PRIMARY KEY would refuse.
func TestCreateTableDialectTypes(t *testing.T) {
	ct := &CreateTable{
		Name:        "t",
		IfNotExists: true,
		Columns: []ColumnDef{
			{Name: "a", Type: "VARCHAR"},
			{Name: "b", Type: "DOUBLE"},
			{Name: "c", Type: "INTEGER"},
			{Name: "d", Type: "BOOLEAN"},
		},
		Key: []string{"a"},
	}
	want := "CREATE TABLE IF NOT EXISTS t (a VARCHAR, b DOUBLE PRECISION, c BIGINT, d BOOLEAN, UNIQUE NULLS NOT DISTINCT (a))"
	if got := ct.SQL(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestScript(t *testing.T) {
	s := &Script{}
	s.Add(&Delete{Table: "a"}, &Delete{Table: "b"})
	want := "DELETE FROM a;\nDELETE FROM b;\n"
	if got := s.SQL(); got != want {
		t.Errorf("got %q", got)
	}
}

func TestExprHelpers(t *testing.T) {
	if got := (&Col{Table: "t", Name: "c"}).SQL(); got != "t.c" {
		t.Errorf("got %q", got)
	}
	if got := (&Col{Name: "c"}).SQL(); got != "c" {
		t.Errorf("got %q", got)
	}
	if got := (&Raw{Text: "a IS NOT DISTINCT FROM b"}).SQL(); got != "a IS NOT DISTINCT FROM b" {
		t.Errorf("got %q", got)
	}
}
