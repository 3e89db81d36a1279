package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
)

// TestUniqueIndexHoldsOnEveryWrite: a unique index refuses a second row of
// its key on every write — INSERT, UPDATE, INSERT OR REPLACE (the in-place
// path) and ON CONFLICT — with 23505, and the refused statement applies
// nothing; NULLs never conflict, CREATE UNIQUE INDEX included (PostgreSQL's
// NULLS DISTINCT). A database that holds the index checkpoints and reopens.
func TestUniqueIndexHoldsOnEveryWrite(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (k INTEGER PRIMARY KEY, c INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (3, NULL), (4, NULL)")
	mustExec(t, s, "CREATE UNIQUE INDEX u ON t (c)")
	const before = "[1|10 3|NULL 4|NULL]"
	state := func(s *engine.Session) string {
		return fmt.Sprint(mustExec(t, s, "SELECT k, c FROM t ORDER BY k").Rows)
	}
	for _, sql := range []string{
		"INSERT INTO t VALUES (2, 10)",
		"INSERT INTO t VALUES (5, 50), (6, 50)",
		"UPDATE t SET c = 10 WHERE k = 3",
		"INSERT OR REPLACE INTO t VALUES (3, 10)",
		"INSERT INTO t VALUES (3, 10) ON CONFLICT (k) DO UPDATE SET c = EXCLUDED.c",
	} {
		if _, err := s.Exec(sql); !enginerr.HasCode(err, enginerr.CodeDuplicateKey) {
			t.Errorf("%s: err %v, want 23505", sql, err)
		}
		if got := state(s); got != before {
			t.Fatalf("%s applied: t is %s", sql, got)
		}
	}
	mustExec(t, s, "INSERT INTO t VALUES (5, NULL)")
	mustExec(t, s, "UPDATE t SET c = c + 1 WHERE k = 1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO t VALUES (6, 10)")
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	s2 := db2.NewSession()
	defer s2.Close()
	if got := state(s2); got != "[1|11 3|NULL 4|NULL 5|NULL 6|10]" {
		t.Errorf("reopened: t is %s", got)
	}
	if _, err := s2.Exec("INSERT INTO t VALUES (7, 11)"); !enginerr.HasCode(err, enginerr.CodeDuplicateKey) {
		t.Errorf("reopened: a duplicate gives %v, want 23505", err)
	}
}

// TestDropIndex: DROP INDEX removes an index from whichever table holds it,
// is logged, and names one namespace with tables, views and every table's
// indexes, as in PostgreSQL.
func TestDropIndex(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, s, "CREATE INDEX a_n ON a (n)")
	mustExec(t, s, "CREATE INDEX b_n ON b (n)")
	for _, sql := range []string{"CREATE INDEX a_n ON b (n)", "CREATE INDEX a ON b (n)"} {
		if _, err := s.Exec(sql); !enginerr.HasCode(err, enginerr.CodeDuplicateTable) {
			t.Errorf("%s: err %v, want 42P07", sql, err)
		}
	}
	mustExec(t, s, "CREATE INDEX IF NOT EXISTS a_n ON b (n)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "DROP INDEX a_n")
	if _, err := s.Exec("DROP INDEX a_n"); !enginerr.HasCode(err, enginerr.CodeUndefinedObject) {
		t.Errorf("dropping a dropped index: err %v, want 42704", err)
	}
	mustExec(t, s, "DROP INDEX IF EXISTS a_n")
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir)
	defer db2.Close()
	for name, want := range map[string]bool{"a_n": false, "b_n": true} {
		if _, got := db2.Catalog().IndexTable(name); got != want {
			t.Errorf("reopened: index %s exists %v, want %v", name, got, want)
		}
	}
}

// TestRecoveryViewIndex: the index a view's setup creates on a base is
// derived state. Its CREATE is not logged: recovery re-executes the view's
// creation, over a checkpoint that may hold the index already. Its DROP,
// with the view's, is logged, so a checkpoint's copy does not outlive the
// view. Recovered, the index answers as one built afresh.
func TestRecoveryViewIndex(t *testing.T) {
	const view = "CREATE MATERIALIZED VIEW order_regions AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid"
	setup := func(t *testing.T, s *engine.Session) {
		mustExec(t, s, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
		mustExec(t, s, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
		mustExec(t, s, "CREATE TABLE probe (k INTEGER)")
		mustExec(t, s, "INSERT INTO customers SELECT g, 'r' || CAST(g % 3 AS VARCHAR) FROM generate_series(0, 99) AS g")
		mustExec(t, s, "INSERT INTO orders SELECT g, CASE WHEN g % 13 = 0 THEN NULL ELSE g % 100 END, g FROM generate_series(1, 400) AS g")
		mustExec(t, s, "INSERT INTO probe VALUES (1), (4), (NULL)")
		mustExec(t, s, view)
	}
	hasIndex := func(db *engine.DB) bool {
		_, ok := db.Catalog().IndexTable("orders_cid_ivm_idx")
		return ok
	}

	t.Run("dropped after checkpoint", func(t *testing.T) {
		dir, crash := t.TempDir(), t.TempDir()
		db := openDurable(t, dir)
		s := db.NewSession()
		setup(t, s)
		if !hasIndex(db) {
			t.Fatal("the view's setup created no index on orders (cid)")
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "DROP VIEW order_regions")
		if hasIndex(db) {
			t.Fatal("the index outlived its view")
		}
		copyDir(t, dir, crash)
		s.Close()
		db.Close()
		db2 := openDurable(t, crash)
		defer db2.Close()
		if hasIndex(db2) {
			t.Error("recovered: the checkpoint's index outlived the view's logged drop")
		}
	})

	t.Run("crash before checkpoint", func(t *testing.T) {
		dir, crash := t.TempDir(), t.TempDir()
		db := openDurable(t, dir)
		s := db.NewSession()
		setup(t, s)
		mustExec(t, s, "UPDATE orders SET cid = 4 WHERE oid % 5 = 0")
		mustExec(t, s, "DELETE FROM orders WHERE oid % 7 = 0")
		copyDir(t, dir, crash)
		s.Close()
		db.Close()
		db2 := openDurable(t, crash)
		defer db2.Close()
		s2 := db2.NewSession()
		defer s2.Close()
		if !hasIndex(db2) {
			t.Fatal("recovered: no index on orders (cid)")
		}
		// The recovered index and one built now, each probed by the same
		// joins; the planner takes the first by name.
		mustExec(t, s2, "CREATE INDEX zz_rebuilt ON orders (cid)")
		probe := func(idx string) string {
			var out []string
			for _, on := range []string{"probe.k = orders.cid", "probe.k IS NOT DISTINCT FROM orders.cid"} {
				sql := "SELECT probe.k, orders.oid, orders.amount FROM probe JOIN orders ON " + on
				if plan := fmt.Sprint(mustExec(t, s2, "EXPLAIN "+sql).Rows); !strings.Contains(plan, "IndexJoin orders["+idx+"]") {
					t.Fatalf("%s does not probe %s:\n%s", sql, idx, plan)
				}
				out = append(out, fmt.Sprint(mustExec(t, s2, sql).Rows))
			}
			return strings.Join(out, "\n")
		}
		recovered := probe("orders_cid_ivm_idx")
		mustExec(t, s2, "DROP INDEX orders_cid_ivm_idx")
		if rebuilt := probe("zz_rebuilt"); recovered != rebuilt {
			t.Errorf("through the recovered index:\n%s\nthrough a rebuilt one:\n%s", recovered, rebuilt)
		}
	})
}
