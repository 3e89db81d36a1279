package ivmext

import (
	"fmt"
	"math/rand"
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

// TestPropertyDuplicateRows: keyless projection and join views equal their
// defining queries after random histories over few values, so that rows
// repeat, NULLs in every column, and writes that change or delete one copy
// of a row (by an id the views do not select) or all of them (by value),
// some inside one transaction — lazy and eager.
func TestPropertyDuplicateRows(t *testing.T) {
	views := []struct{ name, def, cols string }{
		{"pk", "SELECT k, v FROM t WHERE v IS NULL OR v < 5", "k, v"},
		{"pe", "SELECT k, v + 1 AS v1, 7 AS seven FROM t", "k, v1, seven"},
		{"jk", "SELECT t.k, u.w, t.v FROM t JOIN u ON t.k = u.k", "k, w, v"},
	}
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			db := engine.Open("duprows", engine.DialectDuckDB)
			ext := Install(db)
			mustExec(t, db, "CREATE TABLE t (id INTEGER, k VARCHAR, v INTEGER)")
			mustExec(t, db, "CREATE TABLE u (k VARCHAR, w VARCHAR)")
			rng := rand.New(rand.NewSource(int64(71 + len(mode))))
			pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
			key := func() string { return pick("NULL", "'a'", "'b'") }
			val := func() string { return pick("NULL", "0", "3", "7") }
			next := 0
			tRow := func() string {
				next++
				return fmt.Sprintf("(%d, %s, %s)", next, key(), val())
			}
			// match finds every copy of a value: IS NULL for a NULL.
			match := func(col, lit string) string {
				if lit == "NULL" {
					return col + " IS NULL"
				}
				return col + " = " + lit
			}
			for i := 0; i < 12; i++ {
				mustExec(t, db, "INSERT INTO t VALUES "+tRow())
				mustExec(t, db, fmt.Sprintf("INSERT INTO u VALUES (%s, %s)", key(), pick("NULL", "'x'", "'y'")))
			}
			for _, v := range views {
				mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
				if comp, _ := ext.Compilation(v.name); comp.Key != nil {
					t.Fatalf("%s is keyed by %v", v.name, comp.Key)
				}
			}
			write := armWrite(t, ext, mode)
			check := func(step int) {
				t.Helper()
				for _, v := range views {
					checkView(t, db, step, v.name, v.cols, v.def)
				}
			}
			for i := 0; i < 300; i++ {
				id := 1 + rng.Intn(next)
				switch rng.Intn(12) {
				case 0, 1:
					write("INSERT INTO t VALUES " + tRow())
				case 2: // a copy of a row t holds, under a new id
					next++
					write(fmt.Sprintf("INSERT INTO t SELECT %d, k, v FROM t WHERE id = %d", next, id))
				case 3: // one copy changes
					write(fmt.Sprintf("UPDATE t SET k = %s WHERE id = %d", key(), id))
				case 4: // every copy changes
					write(fmt.Sprintf("UPDATE t SET v = %s WHERE %s AND %s", val(), match("k", key()), match("v", val())))
				case 5: // one copy goes
					write(fmt.Sprintf("DELETE FROM t WHERE id = %d", id))
				case 6: // every copy goes
					write(fmt.Sprintf("DELETE FROM t WHERE %s AND %s", match("k", key()), match("v", val())))
				case 7: // one copy goes and comes back in one transaction
					write(fmt.Sprintf("BEGIN; DELETE FROM t WHERE id = %d; INSERT INTO t SELECT %d, k, v FROM t WHERE id = %d; COMMIT",
						id, id, 1+rng.Intn(next)))
				case 8:
					write(fmt.Sprintf("INSERT INTO u VALUES (%s, %s)", key(), pick("NULL", "'x'", "'y'")))
				case 9:
					write(fmt.Sprintf("DELETE FROM u WHERE %s AND %s", match("k", key()), match("w", pick("NULL", "'x'", "'y'"))))
				case 10:
					for _, v := range views {
						mustExec(t, db, "REFRESH MATERIALIZED VIEW "+v.name)
					}
				case 11:
					check(i)
				}
			}
			check(300)
		})
	}
}
