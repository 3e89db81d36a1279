package duckast

import (
	"strings"
	"testing"
)

func TestParseDialect(t *testing.T) {
	cases := map[string]Dialect{
		"": DialectDuckDB, "duckdb": DialectDuckDB,
		"postgres": DialectPostgres, "pg": DialectPostgres, "PostgreSQL": DialectPostgres,
	}
	for in, want := range cases {
		got, err := ParseDialect(in)
		if err != nil || got != want {
			t.Errorf("ParseDialect(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseDialect("oracle"); err == nil {
		t.Error("unknown dialect should fail")
	}
	if DialectPostgres.String() != "postgres" || DialectDuckDB.String() != "duckdb" {
		t.Error("dialect names")
	}
}

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
	if got := sel.SQL(DialectDuckDB); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestSelectWithCTE(t *testing.T) {
	sel := &Select{
		CTEs: []CTE{{Name: "c", Select: &Select{
			Items: []SelectItem{{Expr: &Raw{Text: "1"}}},
		}}},
		Items: []SelectItem{{Expr: &Col{Name: "x"}}},
		From:  &Raw{Text: "c"},
	}
	got := sel.SQL(DialectDuckDB)
	want := "WITH c AS (SELECT 1) SELECT x FROM c"
	if got != want {
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
	if got := sel.SQL(DialectDuckDB); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestInsertUpsertDialects: an upsert is one ON CONFLICT … DO UPDATE
// statement, spelled the same in both dialects.
func TestInsertUpsertDialects(t *testing.T) {
	ins := &Insert{
		Table:        "v",
		Columns:      []string{"k", "s", "n"},
		Select:       &Select{Items: []SelectItem{{Expr: &Raw{Text: "1"}}, {Expr: &Raw{Text: "2"}}}},
		ConflictKeys: []string{"k"},
		Set:          []string{"s = v.s + EXCLUDED.s", "n = v.n + EXCLUDED.n"},
	}
	want := "INSERT INTO v (k, s, n) SELECT 1, 2 ON CONFLICT (k) DO UPDATE SET s = v.s + EXCLUDED.s, n = v.n + EXCLUDED.n"
	for _, d := range []Dialect{DialectDuckDB, DialectPostgres} {
		if got := ins.SQL(d); got != want {
			t.Errorf("%v: got %q, want %q", d, got, want)
		}
	}
}

func TestInsertPlain(t *testing.T) {
	ins := &Insert{Table: "t", Select: &Select{Items: []SelectItem{{Expr: &Raw{Text: "1"}}}}}
	if got := ins.SQL(DialectDuckDB); got != "INSERT INTO t SELECT 1" {
		t.Errorf("got %q", got)
	}
}

func TestDeleteSQL(t *testing.T) {
	d := &Delete{Table: "t", Where: &Raw{Text: "a = 1"}}
	if got := d.SQL(DialectDuckDB); got != "DELETE FROM t WHERE a = 1" {
		t.Errorf("got %q", got)
	}
	d2 := &Delete{Table: "t"}
	if got := d2.SQL(DialectDuckDB); got != "DELETE FROM t" {
		t.Errorf("got %q", got)
	}
}

func TestCreateTableDialectTypes(t *testing.T) {
	ct := &CreateTable{
		Name:        "t",
		IfNotExists: true,
		Columns: []ColumnDef{
			{Name: "a", Type: "VARCHAR"},
			{Name: "b", Type: "DOUBLE"},
			{Name: "c", Type: "INTEGER"},
		},
		PrimaryKey: []string{"a"},
	}
	duck := ct.SQL(DialectDuckDB)
	if !strings.Contains(duck, "a VARCHAR") || !strings.Contains(duck, "b DOUBLE,") {
		t.Errorf("duckdb: %q", duck)
	}
	pg := ct.SQL(DialectPostgres)
	if !strings.Contains(pg, "a TEXT") || !strings.Contains(pg, "b DOUBLE PRECISION") {
		t.Errorf("postgres: %q", pg)
	}
	if !strings.Contains(pg, "PRIMARY KEY (a)") {
		t.Errorf("pk missing: %q", pg)
	}
}

func TestScript(t *testing.T) {
	s := &Script{}
	s.Add(&Delete{Table: "a"}, &Delete{Table: "b"})
	want := "DELETE FROM a;\nDELETE FROM b;\n"
	if got := s.SQL(DialectDuckDB); got != want {
		t.Errorf("got %q", got)
	}
}

func TestExprHelpers(t *testing.T) {
	if got := (&Col{Table: "t", Name: "c"}).SQL(DialectDuckDB); got != "t.c" {
		t.Errorf("got %q", got)
	}
	if got := (&Col{Name: "c"}).SQL(DialectPostgres); got != "c" {
		t.Errorf("got %q", got)
	}
	if got := (&Raw{Text: "a IS NOT DISTINCT FROM b"}).SQL(DialectPostgres); got != "a IS NOT DISTINCT FROM b" {
		t.Errorf("got %q", got)
	}
}
