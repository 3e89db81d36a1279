package engine

import (
	"testing"

	"openivm/internal/sqlparser"
)

// TestPreparedPlanCacheHit: executing a prepared SELECT twice must bind
// and plan once — the second execution reuses the cached plan and still
// sees current table contents (plans snapshot rows at open, not at plan).
func TestPreparedPlanCacheHit(t *testing.T) {
	db := Open("pc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)")

	sess := db.NewSession()
	defer sess.Close()
	stmts, err := db.PrepareScript("SELECT k, v FROM t WHERE v > 5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("first execution returned %d rows, want 2", len(res.Rows))
	}
	if cached := stmts.CachedPlans(); cached != 1 {
		t.Fatalf("handle holds %d plans after prepared exec, want 1", cached)
	}
	first := stmts.plans[stmts.stmts[0].(*sqlparser.SelectStmt)].node

	// A cached plan must observe rows inserted after it was planned.
	mustExec(t, db, "INSERT INTO t VALUES (3, 30)")
	res, err = sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("cached plan returned %d rows after insert, want 3", len(res.Rows))
	}
	if again := stmts.plans[stmts.stmts[0].(*sqlparser.SelectStmt)].node; again != first {
		t.Fatal("second execution re-planned instead of reusing the handle's plan")
	}
	// The plan lives in the handle, not in the engine: ad-hoc executions
	// of the same text leave it alone, and the shared cache is untouched
	// by prepared execution.
	if st := db.StmtCacheStats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("prepared execution touched the shared cache: %+v", st)
	}
}

// TestPreparedPlanCacheInvalidation: DDL and pragma writes must force a
// re-plan — a table recreated under the same name or a changed workers
// hint would otherwise execute against stale plan state.
func TestPreparedPlanCacheInvalidation(t *testing.T) {
	db := Open("pc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	sess := db.NewSession()
	defer sess.Close()
	stmts, err := db.PrepareScript("SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}

	// Recreate the table: the cached plan holds the old *catalog.Table,
	// whose snapshot would silently show the dropped data.
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (7), (8)")
	res, err := sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 7 {
		t.Fatalf("prepared select after table recreation returned %v", res.Rows)
	}

	// A pragma write must invalidate too (batch_size/workers are baked
	// into the plan as Hint nodes).
	db.mu.Lock()
	before := db.schemaEpoch
	db.mu.Unlock()
	mustExec(t, db, "PRAGMA workers = 2")
	db.mu.Lock()
	after := db.schemaEpoch
	db.mu.Unlock()
	if after == before {
		t.Fatal("PRAGMA write did not bump the schema epoch")
	}
}

// TestPreparedPlanCacheRefusesSubqueries: plans with lazily cached
// subquery results must never be cached — a second execution would replay
// the first execution's rows.
func TestPreparedPlanCacheRefusesSubqueries(t *testing.T) {
	db := Open("pc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (k INTEGER)")
	mustExec(t, db, "CREATE TABLE b (k INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2), (3)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")

	sess := db.NewSession()
	defer sess.Close()
	stmts, err := db.PrepareScript("SELECT k FROM a WHERE k IN (SELECT k FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("first execution: %d rows, want 1", len(res.Rows))
	}
	if cached := stmts.CachedPlans(); cached != 0 {
		t.Fatalf("subquery plan was cached (%d entries)", cached)
	}
	// The subquery must re-evaluate against current b contents.
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	res, err = sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("re-execution after b changed: %d rows, want 2", len(res.Rows))
	}
}

// TestIdentityInsertAdoptsRows: INSERT ... SELECT with the full column
// list (the IVM propagation shape) must not clone source rows, and must
// still coerce and reject through table validation.
func TestIdentityInsertAdoptsRows(t *testing.T) {
	db := Open("pc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE src (k INTEGER, v INTEGER)")
	mustExec(t, db, "CREATE TABLE dst (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO src VALUES (1, 10), (2, 20)")
	mustExec(t, db, "INSERT INTO dst (k, v) SELECT k, v FROM src")
	res := mustExec(t, db, "SELECT k, v FROM dst")
	if len(res.Rows) != 2 {
		t.Fatalf("identity insert landed %d rows, want 2", len(res.Rows))
	}
	// Column-subset inserts still go through the rebuild path with
	// defaults for unnamed columns.
	mustExec(t, db, "INSERT INTO dst (v) SELECT v FROM src")
	res = mustExec(t, db, "SELECT COUNT(*) FROM dst WHERE k IS NULL")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("subset insert defaults: %v", res.Rows)
	}
	// NOT NULL validation still applies to adopted rows.
	mustExec(t, db, "CREATE TABLE strict (k INTEGER NOT NULL)")
	mustExec(t, db, "CREATE TABLE holes (k INTEGER)")
	mustExec(t, db, "INSERT INTO holes VALUES (NULL)")
	if _, err := db.Exec("INSERT INTO strict (k) SELECT k FROM holes"); err == nil {
		t.Fatal("NOT NULL violation slipped through the adoption fast path")
	}
}
