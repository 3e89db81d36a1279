package ivmext

import (
	"sort"
	"strings"
	"testing"

	"openivm/internal/engine"
)

// setup creates an engine with the IVM extension and the paper's Listing 1
// schema loaded.
func setup(t *testing.T) (*engine.DB, *Extension) {
	t.Helper()
	db := engine.Open("test", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	return db, ext
}

func mustExec(t *testing.T, db *engine.DB, sql string) *engine.Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

// viewEquals checks that the maintained view, read through viewCols,
// holds the rows of its query (rowsDiff): the IVM correctness invariant.
func viewEquals(t *testing.T, db *engine.DB, viewCols string, view, query string) {
	t.Helper()
	if d := rowsDiff(mustExec(t, db, "SELECT "+viewCols+" FROM "+view).Rows, mustExec(t, db, query).Rows); d != "" {
		t.Fatalf("view %s diverged from its query\n%s", view, d)
	}
}

func TestListing1CreateMaterializedView(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	// Paper's generated artifacts exist:
	for _, tbl := range []string{"query_groups_ivm_storage", "delta_groups"} {
		if !db.Catalog().HasTable(tbl) {
			t.Errorf("table %q missing after CREATE MATERIALIZED VIEW", tbl)
		}
	}
	meta, ok := db.Catalog().IVM("query_groups")
	if !ok {
		t.Fatal("metadata missing")
	}
	if meta.QueryType != "aggregate" {
		t.Errorf("query type = %q", meta.QueryType)
	}
	if !strings.Contains(meta.PropagateSQL, "INSERT INTO query_groups_ivm_storage") ||
		!strings.Contains(meta.PropagateSQL, "ON CONFLICT (group_index) DO UPDATE SET") {
		t.Errorf("propagate SQL missing upsert:\n%s", meta.PropagateSQL)
	}
	if len(ext.Views()) != 1 {
		t.Errorf("views = %v", ext.Views())
	}
}

func TestAggregateInsertPropagation(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	// Initial population.
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")

	// Insert into an existing group and a new group; lazy refresh on query.
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 5), ('c', 7)")
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

func TestAggregateDeletePropagation(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		COUNT(*) AS n, SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	mustExec(t, db, "DELETE FROM groups WHERE group_value = 2")
	viewEquals(t, db, "group_index, n, total_value", "qg",
		"SELECT group_index, COUNT(*), SUM(group_value) FROM groups GROUP BY group_index")

	// Delete the whole 'b' group: the COUNT=0 row must disappear (step 3).
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'b'")
	viewEquals(t, db, "group_index, n, total_value", "qg",
		"SELECT group_index, COUNT(*), SUM(group_value) FROM groups GROUP BY group_index")
}

func TestAggregateUpdatePropagation(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index`)
	mustExec(t, db, "UPDATE groups SET group_value = group_value + 100 WHERE group_index = 'a'")
	viewEquals(t, db, "group_index, total_value, n", "qg",
		"SELECT group_index, SUM(group_value), COUNT(*) FROM groups GROUP BY group_index")
}

func TestLazyModeRefreshOnQuery(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('x', 5)")
	dt, _ := db.Catalog().Table("delta_groups")
	if dt.RowCount() != 1 {
		t.Fatalf("a write should buffer its deltas, got %d", dt.RowCount())
	}
	rows := mustExec(t, db, "SELECT total_value FROM qg").Rows
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("got %v", rows)
	}
	if dt.RowCount() != 0 {
		t.Error("delta not drained after lazy refresh")
	}
	if ext.db.Metrics().Snapshot()["ivm.lazyRefreshes"] == 0 {
		t.Error("no lazy refresh recorded")
	}
}

func TestExplicitRefresh(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('x', 5)")
	mustExec(t, db, "REFRESH MATERIALIZED VIEW qg")
	dt, _ := db.Catalog().Table("delta_groups")
	if dt.RowCount() != 0 {
		t.Error("REFRESH did not drain deltas")
	}
}

func TestProjectionView(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', -5), ('c', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW pos AS SELECT group_index, group_value
		FROM groups WHERE group_value > 0`)
	viewEquals(t, db, "group_index, group_value", "pos",
		"SELECT group_index, group_value FROM groups WHERE group_value > 0")

	mustExec(t, db, "INSERT INTO groups VALUES ('d', 4), ('e', -1)")
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'a'")
	viewEquals(t, db, "group_index, group_value", "pos",
		"SELECT group_index, group_value FROM groups WHERE group_value > 0")
}

func TestProjectionExpression(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW doubled AS SELECT group_index,
		group_value * 2 AS dv FROM groups`)
	mustExec(t, db, "INSERT INTO groups VALUES ('b', 21)")
	viewEquals(t, db, "group_index, dv", "doubled",
		"SELECT group_index, group_value * 2 FROM groups")
}

func TestMinMaxView(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 5), ('a', 3), ('b', 7)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW mm AS SELECT group_index,
		MIN(group_value) AS lo, MAX(group_value) AS hi, COUNT(*) AS n
		FROM groups GROUP BY group_index`)
	viewEquals(t, db, "group_index, lo, hi, n", "mm",
		"SELECT group_index, MIN(group_value), MAX(group_value), COUNT(*) FROM groups GROUP BY group_index")

	// Inserts extend min/max incrementally.
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 100)")
	viewEquals(t, db, "group_index, lo, hi, n", "mm",
		"SELECT group_index, MIN(group_value), MAX(group_value), COUNT(*) FROM groups GROUP BY group_index")

	// Deleting the current minimum forces the rescan repair.
	mustExec(t, db, "DELETE FROM groups WHERE group_value = 1")
	viewEquals(t, db, "group_index, lo, hi, n", "mm",
		"SELECT group_index, MIN(group_value), MAX(group_value), COUNT(*) FROM groups GROUP BY group_index")

	// Deleting a whole group removes its row.
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'b'")
	viewEquals(t, db, "group_index, lo, hi, n", "mm",
		"SELECT group_index, MIN(group_value), MAX(group_value), COUNT(*) FROM groups GROUP BY group_index")
}

func TestJoinView(t *testing.T) {
	db := engine.Open("test", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER, name VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO customers VALUES (1, 'ann'), (2, 'bob')")
	mustExec(t, db, "INSERT INTO orders VALUES (100, 1, 10), (101, 2, 20)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW ordnames AS
		SELECT o.oid, c.name, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid`)

	recompute := "SELECT o.oid, c.name, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid"
	viewEquals(t, db, "oid, name, amount", "ordnames", recompute)

	// New order for existing customer.
	mustExec(t, db, "INSERT INTO orders VALUES (102, 1, 30)")
	viewEquals(t, db, "oid, name, amount", "ordnames", recompute)

	// New customer plus their order in the same batch window (tests the
	// ΔA⋈ΔB compensation term).
	mustExec(t, db, "INSERT INTO customers VALUES (3, 'cyn')")
	mustExec(t, db, "INSERT INTO orders VALUES (103, 3, 40)")
	viewEquals(t, db, "oid, name, amount", "ordnames", recompute)

	// Deletions on both sides.
	mustExec(t, db, "DELETE FROM orders WHERE oid = 100")
	viewEquals(t, db, "oid, name, amount", "ordnames", recompute)
	mustExec(t, db, "DELETE FROM customers WHERE cid = 2")
	viewEquals(t, db, "oid, name, amount", "ordnames", recompute)
}

func TestJoinAggregateView(t *testing.T) {
	db := engine.Open("test", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO customers VALUES (1, 'eu'), (2, 'us'), (3, 'eu')")
	mustExec(t, db, "INSERT INTO orders VALUES (100, 1, 10), (101, 2, 20), (102, 3, 30)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW region_sales AS
		SELECT c.region, SUM(o.amount) AS total, COUNT(*) AS n
		FROM orders AS o JOIN customers AS c ON o.cid = c.cid
		GROUP BY c.region`)

	recompute := `SELECT c.region, SUM(o.amount), COUNT(*)
		FROM orders AS o JOIN customers AS c ON o.cid = c.cid GROUP BY c.region`
	viewEquals(t, db, "region, total, n", "region_sales", recompute)

	mustExec(t, db, "INSERT INTO orders VALUES (103, 1, 100)")
	viewEquals(t, db, "region, total, n", "region_sales", recompute)

	mustExec(t, db, "DELETE FROM orders WHERE cid = 2")
	viewEquals(t, db, "region, total, n", "region_sales", recompute)

	// Moving a customer between regions is an update on the build side.
	mustExec(t, db, "UPDATE customers SET region = 'us' WHERE cid = 3")
	viewEquals(t, db, "region, total, n", "region_sales", recompute)
}

func TestFilteredAggregate(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('a', -2), ('b', 10)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value, COUNT(*) AS n FROM groups
		WHERE group_value > 0 GROUP BY group_index`)
	recompute := `SELECT group_index, SUM(group_value), COUNT(*) FROM groups
		WHERE group_value > 0 GROUP BY group_index`
	viewEquals(t, db, "group_index, total_value, n", "qg", recompute)

	// Deltas that fail the filter must not affect the view.
	mustExec(t, db, "INSERT INTO groups VALUES ('a', -100), ('c', 3)")
	viewEquals(t, db, "group_index, total_value, n", "qg", recompute)
}

// TestCombineRepros replays recorded wrong answers of step 2 and step 3:
// a NULL group that gains a row (the combine's join once compared keys with
// `=`, and the upsert replaced the group by its delta), a NULL group of a
// MIN/MAX view that loses its least row, a group whose COUNT(col) reaches
// zero while its COUNT(*) does not (the first COUNT column, of either kind,
// used to mark the emptied group), and views without GROUP BY, whose step 2
// once joined on an empty ON and failed to refresh. Three more are views
// that declare no COUNT(*), whose step 3 once tested a SUM or a COUNT(col):
// a group whose SUM nets to 0 was dropped, a new group whose COUNT(col) is
// 0 was left out, and a global SUM that nets to 0 read NULL. A SUM over
// only NULL arguments read 0, in a group and in an emptied view without
// GROUP BY, where the query reads NULL. Each step is a
// change, a refresh and what `SELECT *` then reads, which also shows a
// hidden column leaking into the view.
func TestCombineRepros(t *testing.T) {
	type step struct{ change, want string }
	for _, c := range []struct {
		name, table, rows, view string
		steps                   []step
	}{
		{"null_group_sum", "t (k VARCHAR, v INTEGER)", "(NULL, 5), (NULL, 6)",
			"SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES (NULL, 7)", "NULL|18|3"}}},
		{"null_group_minmax", "t (k VARCHAR, v INTEGER)", "(NULL, 5), (NULL, 6), ('a', 1), ('a', 2)",
			"SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"DELETE FROM t WHERE v = 5 OR v = 1", "NULL|6|6|1 a|2|2|1"}}},
		{"count_column", "t (k VARCHAR, v INTEGER)", "('a', NULL), ('a', NULL), ('b', 1)",
			"SELECT k, COUNT(v) AS c, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES ('a', NULL)", "a|0|3 b|1|1"}}},
		{"no_group_by", "t (k VARCHAR, v INTEGER)", "('a', 1), ('b', 2)",
			"SELECT SUM(v) AS s, COUNT(*) AS n FROM t",
			[]step{{"INSERT INTO t VALUES ('c', 5)", "8|3"}, {"DELETE FROM t WHERE k = 'a'", "7|2"},
				{"DELETE FROM t", "NULL|0"}, {"INSERT INTO t VALUES ('d', 4)", "4|1"}}},
		{"no_group_by_sum_only", "t (k VARCHAR, v INTEGER)", "('a', 1), ('b', 2)",
			"SELECT SUM(v) AS s FROM t",
			[]step{{"INSERT INTO t VALUES ('c', 5)", "8"}, {"DELETE FROM t WHERE k = 'a'", "7"}}},
		{"no_group_by_minmax", "t (k VARCHAR, v INTEGER)", "('a', 1), ('b', 2)",
			"SELECT MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t",
			[]step{{"INSERT INTO t VALUES ('c', 5)", "1|5|3"}, {"DELETE FROM t WHERE k = 'a'", "2|5|2"},
				{"DELETE FROM t", "NULL|NULL|0"}}},
		{"zero_sum_group", "t (k VARCHAR, v INTEGER)", "('a', 5), ('b', 0)",
			"SELECT k, SUM(v) AS s FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES ('a', -5)", "a|0 b|0"}, {"DELETE FROM t WHERE k = 'b'", "a|0"}}},
		{"count_column_only", "t (id INTEGER, k VARCHAR, v INTEGER)", "(1, 'a', 5), (2, 'b', 0), (3, 'c', NULL)",
			"SELECT k, COUNT(v) AS c FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES (4, 'd', NULL)", "a|1 b|1 c|0 d|0"}, {"DELETE FROM t WHERE k = 'c'", "a|1 b|1 d|0"}}},
		{"no_group_by_zero_sum", "t (k VARCHAR, v INTEGER)", "('a', 1)",
			"SELECT SUM(v) AS s FROM t",
			[]step{{"INSERT INTO t VALUES ('b', -1)", "0"}, {"DELETE FROM t", "NULL"}, {"INSERT INTO t VALUES ('c', 2)", "2"}}},
		{"minmax_only", "t (k VARCHAR, v INTEGER)", "('a', 1), ('b', 2), ('b', 3)",
			"SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k",
			[]step{{"DELETE FROM t WHERE v = 1 OR v = 3", "b|2|2"}, {"INSERT INTO t VALUES ('a', 4)", "a|4|4 b|2|2"}}},
		// Step 3 visits only the groups the window retracts a row of: one
		// created and emptied inside a window is among them.
		{"group_born_and_emptied", "t (k VARCHAR, v INTEGER)", "('a', 1)",
			"SELECT k, SUM(v) AS s FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES ('b', 2), ('c', 3); DELETE FROM t WHERE k = 'b'", "a|1 c|3"},
				{"INSERT INTO t VALUES ('d', 4); INSERT INTO t VALUES ('d', 5); DELETE FROM t WHERE k = 'd' OR k = 'a'", "c|3"}}},
		// A replace that moves a group's last row elsewhere empties it.
		{"replace_empties_group", "t (id INTEGER PRIMARY KEY, k VARCHAR, v INTEGER)", "(1, 'a', 5), (2, 'b', 6)",
			"SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"INSERT OR REPLACE INTO t VALUES (1, 'b', 7)", "b|13|2"},
				{"INSERT INTO t VALUES (2, 'c', 0) ON CONFLICT (id) DO UPDATE SET k = EXCLUDED.k", "b|7|1 c|6|1"}}},
		// Step 2 lists V's columns in storage order: an aggregate before
		// its group key once received the key's value.
		{"aggregate_before_group_key", "t (k VARCHAR, v INTEGER)", "('a', 1)",
			"SELECT SUM(v) AS s, k FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES ('b', 2), ('a', 5)", "2|b 6|a"}}},
		{"sum_over_only_nulls", "t (k VARCHAR, v INTEGER)", "('a', NULL), ('b', 2)",
			"SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES ('a', NULL)", "a|NULL|2 b|2|1"}, {"INSERT INTO t VALUES ('a', 3), ('c', NULL)", "a|3|3 b|2|1 c|NULL|1"},
				{"DELETE FROM t WHERE v = 3 OR v = 2", "a|NULL|2 c|NULL|1"}}},
		{"no_group_by_emptied", "t (k VARCHAR, v INTEGER)", "('a', 1), ('b', 2)",
			"SELECT SUM(v) AS s, AVG(v) AS m, MIN(v) AS lo, MAX(v) AS hi, COUNT(v) AS c, COUNT(*) AS n FROM t",
			[]step{{"DELETE FROM t", "NULL|NULL|NULL|NULL|0|0"}, {"INSERT INTO t VALUES ('c', NULL)", "NULL|NULL|NULL|NULL|0|1"},
				{"INSERT INTO t VALUES ('d', 4)", "4|4.0|4|4|1|2"}, {"DELETE FROM t WHERE k = 'd'", "NULL|NULL|NULL|NULL|0|1"}}},
		// ΔT is read under the base's name: a column qualified by it failed
		// to bind ("t.k" not found in delta_t).
		{"qualified_by_table_name", "t (k VARCHAR, v INTEGER)", "('a', 1)",
			"SELECT t.k, SUM(t.v) AS s, MIN(t.v) AS lo FROM t GROUP BY t.k",
			[]step{{"INSERT INTO t VALUES ('a', 2), ('b', NULL)", "a|3|1 b|NULL|NULL"}, {"DELETE FROM t WHERE v = 1", "a|2|2 b|NULL|NULL"}}},
		{"bigint_groups", "t (k INTEGER, v INTEGER)", "(9007199254740992, 1)",
			"SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			[]step{{"INSERT INTO t VALUES (9007199254740993, 2)", "9007199254740992|1|1 9007199254740993|2|1"},
				{"DELETE FROM t WHERE k = 9007199254740992", "9007199254740993|2|1"}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := engine.Open("repro", engine.DialectDuckDB)
			Install(db)
			mustExec(t, db, "CREATE TABLE "+c.table)
			mustExec(t, db, "INSERT INTO t VALUES "+c.rows)
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

// TestPragmaRefused: there is no PRAGMA statement, so no switch makes a
// write refresh the views over its base. A write runs no propagation; the
// statement that next reads the view runs it.
func TestPragmaRefused(t *testing.T) {
	db, ext := setup(t)
	for _, sql := range []string{"PRAGMA ivm_mode", "PRAGMA ivm_mode = 'lazy'", "PRAGMA ivm_mode = 'eager'"} {
		if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "PRAGMA") {
			t.Errorf("%s: %v, want it refused", sql, err)
		}
	}
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	before := ext.db.Metrics().Snapshot()["ivm.propagations"]
	mustExec(t, db, "INSERT INTO groups VALUES ('x', 5)")
	if n := ext.db.Metrics().Snapshot()["ivm.propagations"] - before; n != 0 {
		t.Fatalf("the write ran %d propagations, want none", n)
	}
	if rows := mustExec(t, db, "SELECT total_value FROM qg").Rows; len(rows) != 1 || rows[0][0].I != 5 {
		t.Fatalf("qg reads %v, want 5", rows)
	}
	if ext.db.Metrics().Snapshot()["ivm.propagations"] == before {
		t.Error("reading the stale view ran no propagation")
	}
}

func TestHiddenCountDetection(t *testing.T) {
	db, _ := setup(t)
	// A view whose SUM can legitimately reach zero: Listing 2's test of
	// the SUM would wrongly delete the group; its hidden row count must not.
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 5), ('a', -5)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('b', 1)")
	rows := mustExec(t, db, "SELECT group_index, total_value FROM qg").Rows
	if len(rows) != 2 {
		t.Fatalf("the hidden count lost the zero-sum group: %v", rows)
	}
	// And a fully deleted group must still disappear.
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'a'")
	rows = mustExec(t, db, "SELECT group_index FROM qg").Rows
	if len(rows) != 1 || rows[0][0].S != "b" {
		t.Fatalf("got %v", rows)
	}
}

func TestSumZeroPaperSemantics(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 5)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'a'")
	rows := mustExec(t, db, "SELECT group_index FROM qg").Rows
	if len(rows) != 0 {
		t.Fatalf("emptied group should be deleted (Listing 2 step 3): %v", rows)
	}
}

func TestMultiColumnGroupKeys(t *testing.T) {
	db := engine.Open("test", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE sales (region VARCHAR, product VARCHAR, amount INTEGER)")
	mustExec(t, db, "INSERT INTO sales VALUES ('eu', 'x', 1), ('eu', 'y', 2), ('us', 'x', 3)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW s2 AS SELECT region, product,
		SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region, product`)
	recompute := "SELECT region, product, SUM(amount), COUNT(*) FROM sales GROUP BY region, product"
	viewEquals(t, db, "region, product, total, n", "s2", recompute)
	mustExec(t, db, "INSERT INTO sales VALUES ('eu', 'x', 10), ('ap', 'z', 5)")
	mustExec(t, db, "DELETE FROM sales WHERE region = 'us'")
	viewEquals(t, db, "region, product, total, n", "s2", recompute)
}

func TestMultipleViewsOneBase(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW v1 AS SELECT group_index,
		SUM(group_value) AS s FROM groups GROUP BY group_index`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v2 AS SELECT group_index, group_value
		FROM groups WHERE group_value > 1`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 5), ('c', 9)")
	viewEquals(t, db, "group_index, s", "v1",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
	viewEquals(t, db, "group_index, group_value", "v2",
		"SELECT group_index, group_value FROM groups WHERE group_value > 1")
}

func TestScriptsSavedAndInspectable(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	setupSQL, prop, err := ext.Scripts("qg")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CREATE TABLE IF NOT EXISTS delta_groups", "_duckdb_ivm_multiplicity BOOLEAN"} {
		if !strings.Contains(setupSQL, want) {
			t.Errorf("setup missing %q:\n%s", want, setupSQL)
		}
	}
	for _, want := range []string{
		"INSERT INTO qg",
		"FROM delta_groups AS groups GROUP BY group_index ON CONFLICT (group_index) DO UPDATE SET",
		"DELETE FROM delta_groups",
	} {
		if !strings.Contains(prop, want) {
			t.Errorf("propagate missing %q:\n%s", want, prop)
		}
	}
}

func TestUnsupportedViewsRejected(t *testing.T) {
	db, _ := setup(t)
	for _, bad := range []string{
		"CREATE MATERIALIZED VIEW b1 AS SELECT DISTINCT group_index FROM groups",
		"CREATE MATERIALIZED VIEW b2 AS SELECT group_index FROM groups ORDER BY group_index",
		"CREATE MATERIALIZED VIEW b3 AS SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index HAVING SUM(group_value) > 0",
		"CREATE MATERIALIZED VIEW b4 AS SELECT AVG(group_value) FROM groups GROUP BY group_index",
		"CREATE MATERIALIZED VIEW b5 AS SELECT group_index FROM groups UNION SELECT group_index FROM groups",
		"CREATE MATERIALIZED VIEW b6 AS SELECT COUNT(DISTINCT group_value) FROM groups GROUP BY group_index",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("%q should be rejected", bad)
		}
	}
}

func TestDeltaRowsCounted(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2)")
	mustExec(t, db, "UPDATE groups SET group_value = 3 WHERE group_index = 'a'")
	// 2 inserts + update (1 delete + 1 insert) = 4 delta rows.
	if ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"] != 4 {
		t.Errorf("deltas = %d, want 4", ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"])
	}
}

func TestViewWithAlias(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW qa AS SELECT g.group_index,
		SUM(g.group_value) AS s FROM groups AS g GROUP BY g.group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 4)")
	viewEquals(t, db, "group_index, s", "qa",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestPostgresDialectScripts: the scripts a view keeps (ext.Scripts) are
// the one text PostgreSQL runs — ON CONFLICT, no INSERT OR REPLACE, no
// DOUBLE — and the engine runs the same text.
func TestPostgresDialectScripts(t *testing.T) {
	db := engine.Open("one_text", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR, v INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW vsum AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW vavg AS SELECT k, AVG(v) AS m FROM t GROUP BY k`)
	_, prop, err := ext.Scripts("vsum")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prop, "ON CONFLICT (k) DO UPDATE SET") {
		t.Errorf("script lacks ON CONFLICT:\n%s", prop)
	}
	if strings.Contains(prop, "INSERT OR REPLACE") {
		t.Errorf("script holds INSERT OR REPLACE, which PostgreSQL lacks:\n%s", prop)
	}
	setup, _, err := ext.Scripts("vavg")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ReplaceAll(setup, "DOUBLE PRECISION", ""), "DOUBLE") {
		t.Errorf("setup names DOUBLE, which PostgreSQL lacks:\n%s", setup)
	}
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)")
	viewEquals(t, db, "k, s, n", "vsum", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
	viewEquals(t, db, "k, m", "vavg", "SELECT k, AVG(v) FROM t GROUP BY k")
	mustExec(t, db, "DELETE FROM t WHERE k = 'b'")
	viewEquals(t, db, "k, s, n", "vsum", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
	viewEquals(t, db, "k, m", "vavg", "SELECT k, AVG(v) FROM t GROUP BY k")
}
