package ivmext

import (
	"sort"
	"strings"
	"testing"

	"openivm/internal/engine"
)

// TestZSetRepros: a projection or join view without a key holds each
// distinct row once with its number of copies as its weight, and reads it
// that many times. Before, such a view inserted the rows a window added
// and then deleted every copy of a row it retracted: one copy of two that
// changed took the other with it, and so did one of two rows holding a
// NULL. Each step is a change, a refresh and what `SELECT *` then reads.
func TestZSetRepros(t *testing.T) {
	type step struct{ change, want string }
	for _, c := range []struct {
		name, schema, view string
		steps              []step
	}{
		{"projection_duplicates", "CREATE TABLE t (id INTEGER, k VARCHAR); INSERT INTO t VALUES (1, 'a'), (2, 'a')",
			"SELECT k FROM t",
			[]step{{"UPDATE t SET k = 'b' WHERE id = 1", "a b"}, {"UPDATE t SET k = 'b'", "b b"}, {"DELETE FROM t WHERE id = 2", "b"}}},
		{"projection_null_rows", "CREATE TABLE t (id INTEGER, k VARCHAR, v INTEGER); INSERT INTO t VALUES (1, 'x', NULL), (2, 'x', NULL)",
			"SELECT k, v FROM t",
			[]step{{"DELETE FROM t WHERE id = 1", "x|NULL"}, {"INSERT INTO t VALUES (3, 'x', NULL), (4, NULL, NULL)", "NULL|NULL x|NULL x|NULL"},
				{"DELETE FROM t WHERE k = 'x'", "NULL|NULL"}}},
		{"join_duplicates", "CREATE TABLE t (id INTEGER, k VARCHAR); CREATE TABLE u (k VARCHAR, w VARCHAR); " +
			"INSERT INTO t VALUES (1, 'a'), (2, 'a'); INSERT INTO u VALUES ('a', 'x'), ('b', 'x')",
			"SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
			[]step{{"UPDATE t SET k = 'b' WHERE id = 1", "a|x b|x"}, {"INSERT INTO u VALUES ('a', 'x')", "a|x a|x b|x"}}},
		{"join_null_rows", "CREATE TABLE t (id INTEGER, k VARCHAR); CREATE TABLE u (k VARCHAR, w VARCHAR); " +
			"INSERT INTO t VALUES (1, 'x'), (2, 'x'); INSERT INTO u VALUES ('x', NULL)",
			"SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
			[]step{{"DELETE FROM t WHERE id = 1", "x|NULL"}, {"DELETE FROM u", ""}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := engine.Open("zset", engine.DialectDuckDB)
			Install(db)
			for _, stmt := range strings.Split(c.schema, "; ") {
				mustExec(t, db, stmt)
			}
			mustExec(t, db, "CREATE MATERIALIZED VIEW vw AS "+c.view)
			for _, st := range c.steps {
				mustExec(t, db, st.change)
				mustExec(t, db, "REFRESH MATERIALIZED VIEW vw")
				var got []string
				for _, r := range mustExec(t, db, "SELECT * FROM vw").Rows {
					got = append(got, r.String())
				}
				sort.Strings(got)
				if strings.Join(got, " ") != st.want {
					t.Errorf("after %s: view reads %q, want %q", st.change, got, st.want)
				}
			}
		})
	}
}
