package engine

import (
	"testing"

	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// cachedPlan returns the plan the statement cache holds for the first
// statement of sql (the entry take would lend next), nil when it holds none.
func cachedPlan(t *testing.T, db *DB, sql string) plan.Node {
	t.Helper()
	if ent := cachedEntry(t, db, sql); ent != nil {
		return ent.node
	}
	return nil
}

// cachedEntry returns the entry the statement cache would lend next for the
// first statement of sql, nil when it holds none.
func cachedEntry(t *testing.T, db *DB, sql string) *planEntry {
	t.Helper()
	ls, err := sqlparser.Lift(sql, !db.verbatim)
	if err != nil {
		t.Fatal(err)
	}
	db.plans.mu.Lock()
	defer db.plans.mu.Unlock()
	if el, ok := db.plans.m[string(ls[0].Key)]; ok {
		if idle := el.Value.(*planSlot).idle; len(idle) > 0 {
			return idle[len(idle)-1]
		}
	}
	return nil
}

// TestConflictSetListBoundOnce: an upsert's ON CONFLICT SET list is bound
// with its cached plan and not again on the next execution — which is every
// refresh's step 2 — while an entry that outlived a schema change binds it
// anew, and a SET list holding a subquery is bound per execution.
func TestConflictSetListBoundOnce(t *testing.T) {
	db := Open("cs", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	const upsert = "INSERT INTO t (k, v) VALUES (1, 5) ON CONFLICT (k) DO UPDATE SET v = t.v + excluded.v"
	mustExec(t, db, upsert)
	ent := cachedEntry(t, db, upsert)
	if ent == nil || ent.sets == nil {
		t.Fatal("no SET list kept beside the cached plan")
	}
	first := ent.sets
	mustExec(t, db, upsert)
	if got := cachedEntry(t, db, upsert); got != ent || got.sets != first {
		t.Fatal("the second execution bound the SET list again")
	}
	// An entry given back across a schema change holds a stale plan and
	// SET list: both are rebuilt, then kept under the new epoch.
	db.schemaEpoch.Add(1)
	mustExec(t, db, upsert)
	if got := cachedEntry(t, db, upsert); got.sets == nil || got.sets == first || got.stamp != db.epoch() {
		t.Fatal("an entry from an older schema epoch kept its SET list")
	}
	if rows := queryRows(t, db, "SELECT v FROM t"); len(rows) != 1 || rows[0][0].I != 15 {
		t.Fatalf("v = %v after three upserts of 5, want 15", rows)
	}

	mustExec(t, db, "CREATE TABLE u (x INTEGER)")
	mustExec(t, db, "INSERT INTO u VALUES (100)")
	const sub = "INSERT INTO t (k, v) VALUES (1, 5) ON CONFLICT (k) DO UPDATE SET v = (SELECT MAX(x) FROM u)"
	mustExec(t, db, sub)
	if got := cachedEntry(t, db, sub); got != nil && got.sets != nil {
		t.Fatal("a SET list with a subquery was kept")
	}
	mustExec(t, db, "INSERT INTO u VALUES (200)")
	mustExec(t, db, sub)
	if rows := queryRows(t, db, "SELECT v FROM t"); len(rows) != 1 || rows[0][0].I != 200 {
		t.Fatalf("v = %v, want the subquery's second answer 200", rows)
	}
}

// TestPreparedPlanCacheHit: executing a prepared SELECT twice must bind
// and plan once — the second execution reuses the cached plan and still
// sees current table contents (plans snapshot rows at open, not at plan).
// The plan is filed under the statement's key, so text of the same shape
// runs it too.
func TestPreparedPlanCacheHit(t *testing.T) {
	db := Open("pc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)")

	sess := db.NewSession()
	defer sess.Close()
	const sql = "SELECT k, v FROM t WHERE v > 5"
	stmts, err := db.PrepareScript(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := db.StmtCacheStats()
	res, err := sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("first execution returned %d rows, want 2", len(res.Rows))
	}
	first := cachedPlan(t, db, sql)
	if first == nil {
		t.Fatal("no plan cached after prepared exec")
	}

	// A cached plan must observe rows inserted after it was planned.
	mustExec(t, db, "INSERT INTO t VALUES (3, 30)")
	res, err = sess.ExecStmts(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("cached plan returned %d rows after insert, want 3", len(res.Rows))
	}
	// Text of the same shape, other literal: the same plan, its own value.
	res, err = sess.Exec("SELECT k, v FROM t WHERE v > 25")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("text of the same shape returned %v, want the row of k = 3", res.Rows)
	}
	if again := cachedPlan(t, db, sql); again != first {
		t.Fatal("later executions re-planned instead of reusing the cached plan")
	}
	// One miss (the first execution); hits for the second, for the INSERT
	// (its shape filed by the setup's) and for the text.
	if st := db.StmtCacheStats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != 3 {
		t.Fatalf("cache moved by %d hits / %d misses, want 3 / 1", st.Hits-before.Hits, st.Misses-before.Misses)
	}
}

// TestPreparedPlanCacheInvalidation: DDL must force a re-plan — a table
// recreated under the same name would otherwise execute against stale plan
// state.
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
	if n := cachedPlan(t, db, "SELECT k FROM a WHERE k IN (SELECT k FROM b)"); n != nil {
		t.Fatalf("subquery plan was cached:\n%s", plan.Explain(n))
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
