package ivmext

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
)

// TestBodyReadsNoWholeTable is the static half of the claim that a refresh
// visits rows in proportion to its delta: for every view class the compiler
// supports, each holding a NULL group, no statement of the body reads a base
// table or V by a full scan. EXPLAIN prints every plan in full; a base or
// V may appear only behind an index path — the probe side of an IndexJoin
// (or of a join that picks one from its drained build side), a KeyedScan, a
// KeyedDelete or the Upsert's own key probe. The bases' probed columns hold
// over 8 keys per row of the delta, so the planner's fan-out test picks an
// index wherever one exists. knownScans lists the statements allowed to scan still, by view
// and statement index; it is empty.
func TestBodyReadsNoWholeTable(t *testing.T) {
	db := engine.Open("bodyvisits", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR, ref INTEGER)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, ref INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO t SELECT i, CASE WHEN i % 10 = 0 THEN NULL ELSE 'g' || CAST(i % 400 AS VARCHAR) END, i FROM generate_series(1, 2000) AS i")
	mustExec(t, db, "INSERT INTO customers SELECT i, CASE WHEN i % 7 = 0 THEN NULL ELSE 'r' || CAST(i % 5 AS VARCHAR) END, CASE WHEN i % 9 = 0 THEN NULL ELSE i * 3 END FROM generate_series(1, 400) AS i")
	mustExec(t, db, "INSERT INTO orders SELECT i, CASE WHEN i % 11 = 0 THEN NULL ELSE i % 400 + 1 END, (i % 400 + 1) * 3, i FROM generate_series(1, 800) AS i")

	views := []struct{ name, def string }{
		{"agg_counted", "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"},
		{"agg_uncounted", "SELECT g, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g"},
		{"minmax", "SELECT g, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY g"},
		{"proj_keyed", "SELECT id, g, v FROM t WHERE v >= 0"},
		{"proj_keyless", "SELECT g, v FROM t"},
		{"join_fk_pk", "SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid"},
		{"join_nonkey", "SELECT o.oid, c.cid, o.amount FROM orders AS o JOIN customers AS c ON o.ref = c.ref"},
		{"join_agg", "SELECT c.region, SUM(o.amount) AS total, COUNT(*) AS n FROM orders AS o JOIN customers AS c ON o.cid = c.cid GROUP BY c.region"},
	}
	knownScans := map[string]bool{}
	for _, v := range views {
		mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
	}
	// A delta of each kind: inserts, deletes, key updates and NULL keys.
	mustExec(t, db, "INSERT INTO t VALUES (5001, NULL, 5), (5002, 'g1', 6)")
	mustExec(t, db, "DELETE FROM t WHERE id IN (10, 11)")
	mustExec(t, db, "UPDATE t SET g = NULL WHERE id = 12")
	mustExec(t, db, "INSERT INTO orders VALUES (2001, NULL, 6, 5), (2002, 3, NULL, 6)")
	mustExec(t, db, "DELETE FROM orders WHERE oid IN (22, 23)")
	mustExec(t, db, "UPDATE customers SET region = NULL, ref = NULL WHERE cid = 4")
	mustExec(t, db, "DELETE FROM customers WHERE cid = 5")

	for _, v := range views {
		comp, _ := ext.Compilation(v.name)
		whole := map[string]bool{strings.ToLower(comp.Storage): true}
		for _, b := range comp.Bases {
			whole[strings.ToLower(b.Name)] = true
		}
		for i, stmt := range comp.Body.Stmts {
			var lines []string
			for _, r := range mustExec(t, db, "EXPLAIN "+stmt.SQL()).Rows {
				lines = append(lines, r[0].S)
			}
			plan := strings.Join(lines, "\n")
			if bad := wholeScans(lines, whole); len(bad) > 0 && !knownScans[fmt.Sprintf("%s/%d", v.name, i)] {
				t.Errorf("%s statement %d reads %v whole:\n%s\n%s", v.name, i, bad, stmt.SQL(), plan)
			}
		}
	}
	for _, v := range views {
		comp, _ := ext.Compilation(v.name)
		var cols []string
		for _, c := range comp.Columns {
			cols = append(cols, c.Name)
		}
		viewEquals(t, db, strings.Join(cols, ", "), v.name, v.def)
	}
}

// wholeScans returns the tables of whole that a plan's lines scan in full:
// a Scan or ScanDelete of one that is not the probe side of an index join
// on the same table.
func wholeScans(lines []string, whole map[string]bool) []string {
	var bad []string
	for i, l := range lines {
		node := strings.TrimLeft(l, " ")
		f := strings.Fields(node)
		if len(f) < 2 || (f[0] != "Scan" && f[0] != "ScanDelete") || !whole[strings.ToLower(f[1])] {
			continue
		}
		// The parent is the nearest line above indented less.
		depth := len(l) - len(node)
		parent := ""
		for j := i - 1; j >= 0; j-- {
			if p := strings.TrimLeft(lines[j], " "); len(lines[j])-len(p) < depth {
				parent = p
				break
			}
		}
		if !strings.Contains(parent, "IndexJoin "+f[1]+"[") {
			bad = append(bad, f[1])
		}
	}
	return bad
}

// TestViewIndexLifecycle: a view's setup creates the index its body probes
// a base by, unless an index already covers those columns; views probing
// the same columns share it, and the last of them to go drops it. Its name
// is in the relation namespace: a table, a view or another table's index
// of that name refuses the CREATE with 42P07, as PostgreSQL would.
func TestViewIndexLifecycle(t *testing.T) {
	setup := func(t *testing.T) (*engine.DB, *Extension) {
		db := engine.Open("viewindex", engine.DialectDuckDB)
		ext := Install(db)
		mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
		mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
		mustExec(t, db, "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')")
		mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 300), (2, 2, 100), (3, NULL, 5)")
		return db, ext
	}
	const (
		joinView = "CREATE MATERIALIZED VIEW %s AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid"
		idx      = "orders_cid_ivm_idx"
	)
	indexes := func(db *engine.DB) string {
		tbl, _ := db.Catalog().Table("orders")
		var names []string
		for _, ix := range tbl.Indexes() {
			names = append(names, ix.Name)
		}
		return strings.Join(names, " ")
	}

	t.Run("shared", func(t *testing.T) {
		db, ext := setup(t)
		mustExec(t, db, fmt.Sprintf(joinView, "v1"))
		mustExec(t, db, fmt.Sprintf(joinView, "v2"))
		mustExec(t, db, "CREATE MATERIALIZED VIEW v3 AS SELECT cid, MIN(amount) AS lo, COUNT(*) AS n FROM orders GROUP BY cid")
		for _, v := range []string{"v1", "v2", "v3"} {
			if comp, _ := ext.Compilation(v); len(comp.Indexes) != 1 || comp.Indexes[0].Name != idx {
				t.Fatalf("%s needs indexes %v, want %s", v, comp.Indexes, idx)
			}
		}
		for _, step := range []struct{ drop, want string }{{"v1", idx}, {"v3", idx}, {"v2", ""}} {
			mustExec(t, db, "DROP VIEW "+step.drop)
			if got := indexes(db); got != step.want {
				t.Errorf("after DROP VIEW %s orders holds indexes %q, want %q", step.drop, got, step.want)
			}
		}
	})

	t.Run("covered", func(t *testing.T) {
		db, ext := setup(t)
		mustExec(t, db, "CREATE INDEX by_customer ON orders (cid)")
		mustExec(t, db, fmt.Sprintf(joinView, "v1"))
		if comp, _ := ext.Compilation("v1"); len(comp.Indexes) != 0 || strings.Contains(comp.SetupSQL(), "CREATE INDEX") {
			t.Errorf("a view over an indexed column creates %v:\n%s", comp.Indexes, comp.SetupSQL())
		}
		mustExec(t, db, "DROP VIEW v1")
		if got := indexes(db); got != "by_customer" {
			t.Errorf("the user's index went with the view: orders holds %q", got)
		}
	})

	for kind, taken := range map[string]string{"table": "CREATE TABLE " + idx + " (x INTEGER)",
		"view": "CREATE VIEW " + idx + " AS SELECT 1 AS x", "index": "CREATE INDEX " + idx + " ON customers (region)"} {
		t.Run("taken by a "+kind, func(t *testing.T) {
			db, _ := setup(t)
			mustExec(t, db, taken)
			if _, err := db.Exec(fmt.Sprintf(joinView, "v1")); enginerr.CodeOf(err) != enginerr.CodeDuplicateTable {
				t.Errorf("CREATE over a taken index name: %v, want 42P07", err)
			}
			if db.Catalog().HasTable("v1_ivm_storage") || indexes(db) != "" {
				t.Errorf("the refused CREATE left its tables or indexes: orders holds %q", indexes(db))
			}
		})
	}
}
