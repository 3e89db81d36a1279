package ivmext

import (
	"testing"

	"openivm/internal/engine"
)

// guardSetup opens a DB with t = ('a',1),('b',2),('a',3), u = ('a',10),
// and three views the extension maintains over them: v1 (a declared
// COUNT(*)), vh (a hidden count in vh_ivm_storage) and vj (a join, with its
// join delta delta_join_vj).
func guardSetup(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.Open("guard", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE u (k VARCHAR, w INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a',1),('b',2),('a',3)")
	mustExec(t, db, "INSERT INTO u VALUES ('a',10)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW v1 AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW vh AS SELECT k, SUM(v) AS s FROM t GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW vj AS SELECT t.k, SUM(u.w) AS sw, COUNT(*) AS n FROM t JOIN u ON t.k = u.k GROUP BY t.k")
	return db
}

// guardViewsMatch checks every view of guardSetup against its query.
func guardViewsMatch(t *testing.T, db *engine.DB) {
	t.Helper()
	viewEquals(t, db, "k, s, n", "v1", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
	viewEquals(t, db, "k, s", "vh", "SELECT k, SUM(v) FROM t GROUP BY k")
	viewEquals(t, db, "k, sw, n", "vj", "SELECT t.k, SUM(u.w), COUNT(*) FROM t JOIN u ON t.k = u.k GROUP BY t.k")
}

// TestViewOverViewRefused: a materialized view over a table the extension
// maintains is refused with 0A000. Such a view was refreshed only through
// the feeding edge between the two views, and read one refresh behind:
// after INSERT INTO t VALUES ('b',5),('c',1), v2 read 1|1 2|1 where its
// query gives 1|1 2|2, and v3 read a|4 where it gives a|4 b|7. v1 stays
// right through the writes. A materialized view over a plain view, vh's
// exposed view or a user's, is refused with 0A000 too: it failed with
// 42P01, as if the view did not exist.
func TestViewOverViewRefused(t *testing.T) {
	db := guardSetup(t)
	mustExec(t, db, "CREATE VIEW pv AS SELECT k, v FROM t")
	for _, sql := range []string{
		"CREATE MATERIALIZED VIEW v2 AS SELECT n, COUNT(*) AS c FROM v1 GROUP BY n",
		"CREATE MATERIALIZED VIEW v3 AS SELECT k, s FROM v1 WHERE s > 2",
		"CREATE MATERIALIZED VIEW v4 AS SELECT k, COUNT(*) AS c FROM vh_ivm_storage GROUP BY k",
		"CREATE MATERIALIZED VIEW v5 AS SELECT k, COUNT(*) AS c FROM delta_t GROUP BY k",
		"CREATE MATERIALIZED VIEW v6 AS SELECT k, COUNT(*) AS c FROM delta_join_vj GROUP BY k",
		"CREATE MATERIALIZED VIEW v7 AS SELECT k, COUNT(*) AS c FROM vh GROUP BY k",
		"CREATE MATERIALIZED VIEW v8 AS SELECT k, SUM(v) AS s FROM pv GROUP BY k",
	} {
		if _, err := db.Exec(sql); engine.Code(err) != "0A000" {
			t.Errorf("%s: %v (code %q), want code 0A000", sql, err, engine.Code(err))
		}
	}
	for _, name := range []string{"v2", "v3", "v4", "v5", "v6", "v7", "v8"} {
		if _, isView := db.Catalog().View(name); isView || db.Catalog().HasTable(name) {
			t.Errorf("a refused CREATE left table %s behind", name)
		}
	}
	mustExec(t, db, "INSERT INTO t VALUES ('b',5),('c',1)")
	guardViewsMatch(t, db)
	mustExec(t, db, "DELETE FROM t WHERE k = 'a'")
	guardViewsMatch(t, db)
}

// TestUserStatementsOnViewTables: a user statement that writes or drops a
// table a view maintains is refused with 42809, and DROP TABLE of a base
// table a view reads with 2BP01, inside a transaction as outside one. Each
// left a view that no longer equals its query: INSERT and UPDATE put rows
// into v1, TRUNCATE emptied it, DROP TABLE v1 left it registered with every
// later refresh failing, and DROP TABLE t left v1 never changing again.
// The views stay right after each refusal, and once the views over t are
// dropped, t drops.
func TestUserStatementsOnViewTables(t *testing.T) {
	for sql, code := range map[string]string{
		"INSERT INTO v1 VALUES ('x',9,9)":               "42809",
		"UPDATE v1 SET s = 100 WHERE k = 'a'":           "42809",
		"DELETE FROM v1 WHERE k = 'a'":                  "42809",
		"TRUNCATE v1":                                   "42809",
		"DROP TABLE v1":                                 "42809",
		"INSERT INTO vh_ivm_storage VALUES ('x',9,9)":   "42809",
		"DROP TABLE IF EXISTS vh_ivm_storage":           "42809",
		"INSERT INTO delta_t VALUES ('x',9)":            "42809",
		"DELETE FROM delta_join_vj":                     "42809",
		"DROP TABLE t":                                  "2BP01",
		"DROP TABLE u":                                  "2BP01",
		"BEGIN; UPDATE v1 SET n = 0; COMMIT":            "42809",
		"BEGIN; DROP TABLE t; COMMIT":                   "2BP01",
		"UPDATE vh_ivm_storage SET s = 0 WHERE k = 'a'": "42809",
	} {
		t.Run(sql, func(t *testing.T) {
			db := guardSetup(t)
			s := db.NewSession()
			defer s.Close()
			if _, err := s.ExecScript(sql); engine.Code(err) != code {
				t.Fatalf("%v (code %q), want code %s", err, engine.Code(err), code)
			}
			if s.InTxn() {
				if _, err := s.Exec("ROLLBACK"); err != nil {
					t.Fatal(err)
				}
			}
			guardViewsMatch(t, db)
			mustExec(t, db, "INSERT INTO t VALUES ('b',5),('c',1)")
			mustExec(t, db, "INSERT INTO u VALUES ('b',20)")
			guardViewsMatch(t, db)
			for _, v := range []string{"v1", "vh", "vj"} {
				mustExec(t, db, "DROP MATERIALIZED VIEW "+v)
			}
			mustExec(t, db, "DROP TABLE t")
			mustExec(t, db, "DROP TABLE u")
		})
	}
}
