package engine

import (
	"strings"
	"testing"

	"openivm/internal/enginerr"
)

// TestSyntaxErrorCode: what the lexer or the parser cannot read fails with
// SQLSTATE 42601 (syntax_error), the statement and its text the error's
// only cause.
func TestSyntaxErrorCode(t *testing.T) {
	db := Open("syntax", DialectDuckDB)
	for _, sql := range []string{"SELEC 1", "PRAGMA x = 1", "SELECT 'abc", "CREATE TABLE t (a INTEGER, UNIQUE (a))"} {
		_, err := db.Exec(sql)
		if err == nil || Code(err) != enginerr.CodeSyntaxError {
			t.Errorf("%s: error %v with code %q, want 42601", sql, err, Code(err))
		}
	}
	// A statement that parses and fails to bind is no syntax error.
	if _, err := db.Exec("SELECT * FROM nosuch"); Code(err) == enginerr.CodeSyntaxError {
		t.Errorf("a missing table is classed as a syntax error: %v", err)
	}
}

// TestGenerateSeries: generate_series(lo, hi) in FROM yields lo through hi,
// one row each; its bounds may read the columns of the FROM items to its
// left, a NULL bound or lo > hi yields no row, and a bound that is not an
// INTEGER is refused. A conjunct that does not read the series moves below
// it, to the scan, and a series whose integer nothing reads is bare.
func TestGenerateSeries(t *testing.T) {
	db := Open("series", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 2), ('b', 0), ('c', NULL), ('d', 3)")
	rows := func(sql string) string {
		t.Helper()
		var out []string
		for _, r := range mustExec(t, db, sql).Rows {
			out = append(out, r.String())
		}
		return strings.Join(out, " ")
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT * FROM generate_series(2, 4)", "2 3 4"},
		{"SELECT g FROM generate_series(-1, 1) AS g ORDER BY g DESC", "1 0 -1"},
		// Lateral: each row of t once per integer up to its n; an empty
		// range (n = 0) and a NULL bound (n NULL) repeat their row no time.
		{"SELECT k, generate_series FROM t, generate_series(1, n) ORDER BY k, generate_series", "a|1 a|2 d|1 d|2 d|3"},
		{"SELECT k, s FROM t CROSS JOIN generate_series(n, n + 1) AS s WHERE s > 2 ORDER BY k, s", "a|3 d|3 d|4"},
		// Nothing reads the series' integer: each row repeats its input row.
		{"SELECT k FROM t, generate_series(1, n) ORDER BY k", "a a d d d"},
		{"SELECT COUNT(*), MIN(k) FROM (SELECT k FROM t, generate_series(1, n * 1000)) AS x", "5000|a"},
		{"SELECT COUNT(*) FROM generate_series(5, 4)", "0"},
		{"SELECT COUNT(*) FROM generate_series(1, NULL)", "0"},
		{"SELECT COUNT(*) FROM generate_series(1, 2500)", "2500"},
		{"SELECT COUNT(*) FROM generate_series(9223372036854775806, 9223372036854775807)", "2"},
	} {
		if got := rows(c.sql); got != c.want {
			t.Errorf("%s: %q, want %q", c.sql, got, c.want)
		}
	}
	for _, sql := range []string{
		"SELECT * FROM generate_series(1, 'x')",
		"SELECT * FROM generate_series(1, 2.5)",
		"SELECT k FROM t, generate_series(1, k)",
		"SELECT k FROM t JOIN generate_series(1, n) ON k = 'a'",
		"SELECT * FROM generate_sequence(1, 2)",
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
	explain := rows("EXPLAIN SELECT k FROM t, generate_series(1, n) AS g WHERE k = 'a'")
	for _, want := range []string{"Series g = generate_series(1, n) [bare]", "KeyedScan t[pk] keys=1 [filter: (k = 'a')]"} {
		if !strings.Contains(explain, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, explain)
		}
	}
	if explain := rows("EXPLAIN SELECT k, g FROM t, generate_series(1, n) AS g"); strings.Contains(explain, "[bare]") {
		t.Errorf("a series whose integer is read is bare:\n%s", explain)
	}
}
