package ivmext

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/fault"
)

// storageRows reads a view's storage through the catalog, sorted: a SELECT
// would refresh it first.
func storageRows(t *testing.T, db *engine.DB, storage string) string {
	t.Helper()
	tbl, err := db.Catalog().Table(storage)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range tbl.Rows() {
		out = append(out, r.String())
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestFailedBodyLandsNothing fails the commit of one refresh, for every
// view class whose body has more than one statement, at each of the
// refresh's commits in turn (engine/commit armed after k of them, k from 0
// to the body's length): the failed refresh must leave V as it was, and
// the retry must make V equal its query. Each round's writes insert,
// update and delete on both sides of the joins and empty a group, so every
// statement of each body has work.
func TestFailedBodyLandsNothing(t *testing.T) {
	defer fault.Reset()
	views := []struct{ name, def, cols, query string }{
		{"agg", "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k", "k, s, n",
			"SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k"},
		{"minmax", "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k", "k, lo, hi",
			"SELECT k, MIN(v), MAX(v) FROM t GROUP BY k"},
		{"joinagg", "SELECT u.g, SUM(t.v) AS s, COUNT(*) AS n FROM t JOIN u ON t.k = u.k GROUP BY u.g", "g, s, n",
			"SELECT u.g, SUM(t.v), COUNT(*) FROM t JOIN u ON t.k = u.k GROUP BY u.g"},
		{"joinv", "SELECT t.k, t.v, u.g FROM t JOIN u ON t.k = u.k", "k, v, g",
			"SELECT t.k, t.v, u.g FROM t JOIN u ON t.k = u.k"},
		{"keyed", "SELECT id, k, v FROM t WHERE v > 0", "id, k, v",
			"SELECT id, k, v FROM t WHERE v > 0"},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			db := engine.Open("landsnothing", engine.DialectDuckDB)
			ext := Install(db)
			mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, k VARCHAR, v INTEGER)")
			mustExec(t, db, "CREATE TABLE u (k VARCHAR PRIMARY KEY, g VARCHAR)")
			mustExec(t, db, "INSERT INTO t VALUES (1, 'a', 3), (2, 'b', 4)")
			mustExec(t, db, "INSERT INTO u VALUES ('a', 'g0'), ('b', 'g1')")
			mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
			comp, _ := ext.Compilation(v.name)
			if len(comp.Body.Stmts) < 2 {
				t.Fatalf("%s: body has %d statements", v.name, len(comp.Body.Stmts))
			}
			for k := 0; k <= len(comp.Body.Stmts); k++ {
				r := k + 1
				for _, sql := range []string{
					fmt.Sprintf("INSERT INTO t VALUES (%d, 'a', %d), (%d, 'b', -2), (%d, 'c%d', 5)", 10*r+1, r, 10*r+2, 10*r+3, r),
					fmt.Sprintf("INSERT INTO u VALUES ('c%d', 'g%d')", r, r%2),
					fmt.Sprintf("UPDATE u SET g = 'g%d' WHERE k = 'a'", r%3),
					fmt.Sprintf("DELETE FROM t WHERE k = 'c%d'", r-1),
					fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", 10*(r-1)+1),
				} {
					mustExec(t, db, sql)
				}
				before := storageRows(t, db, comp.Storage)
				if err := fault.Activate(fault.EngineCommit, fmt.Sprintf("error(boom)@after%d@times1", k)); err != nil {
					t.Fatal(err)
				}
				err := ext.Refresh(v.name)
				fault.Reset()
				if err != nil {
					if !strings.Contains(err.Error(), "boom") {
						t.Fatalf("k=%d: refresh error %v, want the injected failure", k, err)
					}
					if after := storageRows(t, db, comp.Storage); after != before {
						t.Fatalf("k=%d: the failed refresh changed V\nbefore:\n%s\nafter:\n%s", k, before, after)
					}
				}
				if err := ext.Refresh(v.name); err != nil {
					t.Fatalf("k=%d: retry: %v", k, err)
				}
				viewEquals(t, db, v.cols, v.name, v.query)
			}
		})
	}
}

// TestRefreshCommitsOnce: one refresh of a group is one transaction, so it
// commits once, whatever its views and their bodies: here a join-aggregate
// view and an aggregate view over a shared base, both with changes to
// apply.
func TestRefreshCommitsOnce(t *testing.T) {
	db := engine.Open("once", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO customers VALUES (1, 'r0'), (2, 'r1')")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 5), (2, 2, 3)")
	const regions = "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region"
	const custs = "SELECT cid, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cid"
	mustExec(t, db, "CREATE MATERIALIZED VIEW region_totals AS "+regions)
	mustExec(t, db, "CREATE MATERIALIZED VIEW cust_totals AS "+custs)
	mustExec(t, db, "INSERT INTO customers VALUES (3, 'r1')")
	mustExec(t, db, "INSERT INTO orders VALUES (3, 3, 7), (4, 1, 2)")
	mustExec(t, db, "DELETE FROM orders WHERE oid = 2")

	commits := func() int64 { return db.Metrics().Snapshot()["txn.commits"] }
	bodies := db.Metrics().Snapshot()["ivm.propagations"]
	before := commits()
	if err := ext.Refresh("region_totals"); err != nil {
		t.Fatal(err)
	}
	if got := commits() - before; got != 1 {
		t.Fatalf("one refresh of the group committed %d times, want 1", got)
	}
	if got := db.Metrics().Snapshot()["ivm.propagations"] - bodies; got != 2 {
		t.Fatalf("the refresh ran %d bodies, want both views'", got)
	}
	viewEquals(t, db, "region, total, n", "region_totals", regions)
	viewEquals(t, db, "cid, total, n", "cust_totals", custs)
}
