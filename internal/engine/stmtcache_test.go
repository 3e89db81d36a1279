package engine

import (
	"fmt"
	"sync"
	"testing"

	"openivm/internal/sqltypes"
)

// TestStmtCacheHit: repeating an ad-hoc SELECT through a session must
// plan once and hit the shared text cache afterwards, still observing
// current table contents (plans snapshot rows at open, not at plan).
func TestStmtCacheHit(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)")
	s := db.NewSession()

	const q = "SELECT k, v FROM t WHERE v > 5"
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("first run: %d rows", len(res.Rows))
	}
	before := db.StmtCacheStats()
	if before.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", before.Entries)
	}
	mustExec(t, db, "INSERT INTO t VALUES (3, 30)")
	res, err = s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("cached run misses new rows: %d", len(res.Rows))
	}
	after := db.StmtCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("no cache hit recorded: %+v -> %+v", before, after)
	}
}

// TestStmtCacheSharedAcrossSessions: one session's planned SELECT serves
// another session's identical text.
func TestStmtCacheSharedAcrossSessions(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	s1, s2 := db.NewSession(), db.NewSession()
	const q = "SELECT k FROM t"
	if _, err := s1.Query(q); err != nil {
		t.Fatal(err)
	}
	before := db.StmtCacheStats()
	if _, err := s2.Query(q); err != nil {
		t.Fatal(err)
	}
	after := db.StmtCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("cross-session hit not recorded: %+v -> %+v", before, after)
	}
}

// TestStmtCacheInvalidation: DDL must invalidate cached text plans — a
// recreated table would otherwise serve stale snapshots.
func TestStmtCacheInvalidation(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	s := db.NewSession()
	const q = "SELECT k FROM t"
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (7), (8)")
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 7 {
		t.Fatalf("post-DDL rows = %v, want the recreated table's", res.Rows)
	}
}

// TestStmtCacheKnobSeparation: sessions with different batch_size/workers
// must not share a plan (the Hint is baked in at plan time).
func TestStmtCacheKnobSeparation(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	s1, s2 := db.NewSession(), db.NewSession()
	if _, err := s1.Exec("PRAGMA workers = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("PRAGMA workers = 4"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT k FROM t"
	if _, err := s1.Query(q); err != nil {
		t.Fatal(err)
	}
	hitsBefore := db.StmtCacheStats().Hits
	if _, err := s2.Query(q); err != nil {
		t.Fatal(err)
	}
	st := db.StmtCacheStats()
	if st.Hits != hitsBefore {
		t.Fatal("sessions with different workers knobs shared one plan")
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per knob setting)", st.Entries)
	}
}

// TestStmtCacheRefusesUnshareablePlans: plans with lazily cached subquery
// results or statement parameters must never be shared across sessions —
// replayed stale rows or racing value bindings.
func TestStmtCacheRefusesUnshareablePlans(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (k INTEGER)")
	mustExec(t, db, "CREATE TABLE b (k INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")
	s := db.NewSession()
	defer s.Close()
	s.BindParams([]sqltypes.Value{sqltypes.NewInt(0)})
	for _, q := range []string{
		"SELECT k FROM a WHERE k IN (SELECT k FROM b)", // lazy subquery cache
		"SELECT k FROM a WHERE k > $1",                 // session-bound parameter
	} {
		if _, err := s.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if st := db.StmtCacheStats(); st.Entries != 0 {
		t.Fatalf("unshareable plans entered the cache: %+v", st)
	}
	// The subquery still re-evaluates per execution.
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	res, err := s.Query("SELECT k FROM a WHERE k IN (SELECT k FROM b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("subquery replayed stale rows: %v", res.Rows)
	}
}

// TestStmtCacheAdmitsScalarFuncPlans pins the plan-cache breadth fix:
// COALESCE/ABS-shaped statements — historically the most common cache
// refusal, because ScalarFunc carried a per-execution scratch buffer —
// now pass planShareable (the scratch moves by atomic swap) and hit the
// shared statement cache across sessions.
func TestStmtCacheAdmitsScalarFuncPlans(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (k INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (NULL), (-3)")
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()
	const q = "SELECT COALESCE(k, 0), ABS(COALESCE(k, -1)) FROM a"
	if _, err := s1.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := db.StmtCacheStats(); st.Entries != 1 {
		t.Fatalf("ScalarFunc plan refused from the cache: %+v", st)
	}
	hitsBefore := db.StmtCacheStats().Hits
	res, err := s2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if db.StmtCacheStats().Hits != hitsBefore+1 {
		t.Fatalf("second session missed the cached COALESCE plan: %+v", db.StmtCacheStats())
	}
	if len(res.Rows) != 3 || res.Rows[1][0].I != 0 || res.Rows[1][1].I != 1 || res.Rows[2][1].I != 3 {
		t.Fatalf("cached-plan rows = %v", res.Rows)
	}
}

// TestStmtCacheLRUEviction exercises the LRU bound directly: beyond
// capacity the least recently used entry leaves, recently used ones stay.
func TestStmtCacheLRUEviction(t *testing.T) {
	c := newPlanLRU(3)
	at := planStamp{epoch: 1}
	key := func(i int) planKey { return planKey{sql: fmt.Sprintf("q%d", i)} }
	for i := 0; i < 3; i++ {
		c.put(key(i), &planEntry{stamp: at})
	}
	if c.get(key(0), at) == nil { // refresh q0
		t.Fatal("q0 missing")
	}
	c.put(key(3), &planEntry{stamp: at}) // evicts q1 (LRU)
	if c.get(key(1), at) != nil {
		t.Fatal("LRU entry q1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if c.get(key(i), at) == nil {
			t.Fatalf("q%d evicted wrongly", i)
		}
	}
	if n := c.lru.Len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	// A stamp mismatch evicts on sight.
	if c.get(key(3), planStamp{epoch: 2}) != nil {
		t.Fatal("stale-epoch entry served")
	}
	if n := c.lru.Len(); n != 2 {
		t.Fatalf("stale entry retained: len = %d", n)
	}
}

// TestStmtCacheEngineLRUBound: the engine-integrated cache never exceeds
// its capacity under a stream of distinct one-off statements.
func TestStmtCacheEngineLRUBound(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	s := db.NewSession()
	for i := 0; i < planCacheSize+50; i++ {
		if _, err := s.Query(fmt.Sprintf("SELECT k FROM t WHERE k = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.StmtCacheStats(); st.Entries > planCacheSize {
		t.Fatalf("cache grew past its bound: %d > %d", st.Entries, planCacheSize)
	}
}

// TestStmtCacheConcurrentSharedPlan: many sessions hammer one cached plan
// concurrently — the planShareable gate plus per-execution operator state
// must make this race-free (run under -race in CI).
func TestStmtCacheConcurrentSharedPlan(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i%5, i))
	}
	const q = "SELECT k, SUM(v) FROM t WHERE v >= 0 GROUP BY k"
	if _, err := db.NewSession().Query(q); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for j := 0; j < 30; j++ {
				res, err := s.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 5 {
					t.Errorf("rows = %d, want 5", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := db.StmtCacheStats(); st.Hits < 8*30-1 {
		t.Fatalf("shared plan barely hit: %+v", st)
	}
}
