package ivmext

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
)

// TestDropMaterializedView: DROP VIEW on a materialized view must remove
// the view, its delta tables, its capture trigger, and its metadata —
// subsequent base-table DML runs without capture, and the view name is
// free for reuse.
func TestDropMaterializedView(t *testing.T) {
	db, ext := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2)")
	mustExec(t, db, "REFRESH MATERIALIZED VIEW query_groups")

	mustExec(t, db, "DROP VIEW query_groups")

	for _, tbl := range []string{"query_groups", "delta_groups"} {
		if db.Catalog().HasTable(tbl) {
			t.Errorf("table %q survived DROP VIEW", tbl)
		}
	}
	if len(ext.Views()) != 0 {
		t.Errorf("extension still registers views: %v", ext.Views())
	}
	// Capture trigger is gone: DML must not try to write a dropped delta
	// table, and no deltas accumulate.
	before := ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"]
	mustExec(t, db, "INSERT INTO groups VALUES ('c', 3)")
	if ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"] != before {
		t.Errorf("delta capture still active after drop")
	}
	// Name is reusable.
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	viewEquals(t, db, "group_index, total_value", "query_groups",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestDropSharedBaseKeepsSiblingCapture: two views over one base table
// share the base delta; dropping one must keep the other's capture and
// propagation intact.
func TestDropSharedBaseKeepsSiblingCapture(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_sum AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_cnt AS SELECT group_index,
		COUNT(*) AS n FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	mustExec(t, db, "DROP VIEW v_sum")

	if !db.Catalog().HasTable("delta_groups") {
		t.Fatal("shared delta table dropped while a sibling view still needs it")
	}
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 2), ('b', 5)")
	mustExec(t, db, "REFRESH MATERIALIZED VIEW v_cnt")
	viewEquals(t, db, "group_index, n", "v_cnt",
		"SELECT group_index, COUNT(*) FROM groups GROUP BY group_index")
}

// TestDropFreesPreparedScripts is the plan-cache lifecycle test: a
// view's prepared propagation scripts belong to the view's registry entry,
// so churning through thousands of CREATE/DROP MATERIALIZED VIEW cycles
// leaves nothing behind, and a view created afterwards still plans its
// propagation once and finds the plans in the statement cache on every
// refresh after the first.
func TestDropFreesPreparedScripts(t *testing.T) {
	db, ext := setup(t)
	const view = `CREATE MATERIALIZED VIEW churn AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`
	cycles := 5000
	if testing.Short() {
		cycles = 200
	}
	for i := 0; i < cycles; i++ {
		mustExec(t, db, view)
		// Exercise the propagation script so it is prepared and planned.
		mustExec(t, db, "INSERT INTO groups VALUES ('x', 1)")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW churn")
		mustExec(t, db, "DROP VIEW churn")
	}
	if n := len(ext.views); n != 0 {
		t.Fatalf("%d views' registry entries, prepared scripts included, survived their DROP", n)
	}

	mustExec(t, db, view)
	refresh := func() {
		t.Helper()
		mustExec(t, db, "INSERT INTO groups VALUES ('y', 2)")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW churn")
	}
	refresh()
	churn := ext.view("churn")
	body := churn.prepared
	if body == nil {
		t.Fatal("no prepared script after one refresh")
	}
	cache := db.StmtCacheStats()
	refresh()
	refresh()
	if churn.prepared != body {
		t.Fatal("refresh re-prepared its propagation script")
	}
	if after := db.StmtCacheStats(); after.Misses != cache.Misses || after.Hits == cache.Hits {
		t.Fatalf("refreshes after the first missed the statement cache: %+v -> %+v", cache, after)
	}
	viewEquals(t, db, "group_index, total_value", "churn",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestDropMaterializedViewAvgDecomposition covers the hidden-storage
// shape: AVG decomposes into SUM/COUNT columns in a storage table with a
// plain view on top; DROP must remove all three names.
func TestDropMaterializedViewAvgDecomposition(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_avg AS SELECT group_index,
		AVG(group_value) AS a FROM groups GROUP BY group_index`)
	mustExec(t, db, "DROP VIEW v_avg")
	if db.Catalog().HasTable("v_avg") || db.Catalog().HasTable("v_avg_ivm_storage") {
		t.Fatal("AVG-decomposed storage survived DROP VIEW")
	}
	if _, ok := db.Catalog().View("v_avg"); ok {
		t.Fatal("exposed plain view survived DROP VIEW")
	}
	if _, err := db.Exec("SELECT * FROM v_avg"); err == nil {
		t.Fatal("querying a dropped materialized view succeeded")
	}
}

// TestCreateKeepsUserTables: CREATE MATERIALIZED VIEW never takes over a
// user's table that has a name it would generate. A table named like a
// view's former ΔV is not the view's business; a table named like a ΔT the
// view needs refuses the CREATE with SQLSTATE 42P07. In
// each case the user's rows survive, and a refused name is free for the
// view once the user's table is gone.
func TestCreateKeepsUserTables(t *testing.T) {
	cases := []struct {
		name, userTable, row, view, query string
		refused                           bool
	}{
		{"delta_view", "delta_mv (k INTEGER, s INTEGER, n INTEGER, _duckdb_ivm_multiplicity BOOLEAN)", "9|9|9|true",
			"mv AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			"SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k", false},
		{"delta_base", "delta_t (k INTEGER, v INTEGER, _duckdb_ivm_multiplicity BOOLEAN)", "9|9|true",
			"mv AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
			"SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := engine.Open("names", engine.DialectDuckDB)
			Install(db)
			mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
			mustExec(t, db, "CREATE TABLE u (k INTEGER, w INTEGER)")
			mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)")
			mustExec(t, db, "INSERT INTO u VALUES (1, 5)")
			user := c.userTable[:strings.Index(c.userTable, " ")]
			mustExec(t, db, "CREATE TABLE "+c.userTable)
			mustExec(t, db, "INSERT INTO "+user+" VALUES ("+strings.ReplaceAll(c.row, "|", ", ")+")")
			userRows := func() {
				t.Helper()
				if got := fmt.Sprint(mustExec(t, db, "SELECT * FROM "+user).Rows); got != "["+c.row+"]" {
					t.Errorf("%s reads %s, want the user's row %s", user, got, c.row)
				}
			}

			_, err := db.Exec("CREATE MATERIALIZED VIEW " + c.view)
			viewName := c.view[:strings.Index(c.view, " ")]
			if c.refused {
				if code := enginerr.CodeOf(err); code != enginerr.CodeDuplicateTable {
					t.Fatalf("CREATE over the user's %s: error %v (SQLSTATE %q), want 42P07", user, err, code)
				}
				userRows()
				if db.Catalog().HasTable(viewName) {
					t.Errorf("the refused CREATE left table %s behind", viewName)
				}
				mustExec(t, db, "DROP TABLE "+user)
				mustExec(t, db, "CREATE MATERIALIZED VIEW "+c.view)
			} else if err != nil {
				t.Fatalf("CREATE beside the user's %s: %v", user, err)
			}
			mustExec(t, db, "INSERT INTO t VALUES (1, 1), (3, 30)")
			mustExec(t, db, "INSERT INTO u VALUES (3, 7)")
			mustExec(t, db, "REFRESH MATERIALIZED VIEW "+viewName)
			viewEquals(t, db, "*", viewName, c.query)
			if !c.refused {
				userRows()
			}
		})
	}
}

// TestConcurrentCreatesShareDelta: views created at once over one base,
// beside drops of views over it, all find its ΔT free or shared — never
// taken — and each equals its query afterwards.
func TestConcurrentCreatesShareDelta(t *testing.T) {
	db := engine.Open("concurrent-create", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)")
	const n = 6
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			view := fmt.Sprintf("v%d", i)
			if _, errs[i] = db.Exec("CREATE MATERIALIZED VIEW " + view + " AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k"); errs[i] != nil || i%2 == 0 {
				return
			}
			_, errs[i] = db.Exec("DROP VIEW " + view)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("v%d: %v", i, err)
		}
	}
	mustExec(t, db, "INSERT INTO t VALUES (1, 1), (3, 30)")
	for i := 0; i < n; i += 2 {
		viewEquals(t, db, "*", fmt.Sprintf("v%d", i), "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
	}
}
