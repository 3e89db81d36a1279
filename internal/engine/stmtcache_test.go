package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"openivm/internal/plan"
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
	if cachedPlan(t, db, q) == nil {
		t.Fatal("no plan cached")
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

// TestStmtCacheSharedAcrossWorkers: sessions with different PRAGMA workers
// run one statement shape from one cache entry — nothing of the session is
// in a plan — and each execution runs with the executing session's own
// workers: the scan it opens over a table past the parallel threshold is
// the parallel one exactly when that session's workers exceed one.
func TestStmtCacheSharedAcrossWorkers(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (0)")
	for k := 1; k < 6000; k++ {
		fmt.Fprintf(&sb, ", (%d)", k)
	}
	mustExec(t, db, sb.String())
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()
	if _, err := s1.Exec("PRAGMA workers = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("PRAGMA workers = 4"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT k FROM t WHERE k >= 0"
	before := db.StmtCacheStats()
	for i := 0; i < 2; i++ {
		for _, c := range []struct {
			s        *Session
			parallel bool
		}{{s1, false}, {s2, true}} {
			st, err := c.s.ExecStream(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", st.it) == "*exec.parallelScan"; got != c.parallel {
				t.Fatalf("execution opened %T under workers=%s", st.it, c.s.Pragma("workers"))
			}
			n := 0
			for {
				rows, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if rows == nil {
					break
				}
				n += len(rows)
			}
			st.Close()
			if n != 6000 {
				t.Fatalf("%d rows, want 6000", n)
			}
		}
	}
	st := db.StmtCacheStats()
	if st.Entries != before.Entries+1 || st.Hits != before.Hits+3 {
		t.Fatalf("cache %+v -> %+v, want one entry and three hits for four executions", before, st)
	}
}

// TestStmtCacheRefusesUnshareablePlans: a plan with a lazily cached
// subquery result is never executed twice — it would replay stale rows —
// while a plan with parameters is: each execution brings its own values.
func TestStmtCacheRefusesUnshareablePlans(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (k INTEGER)")
	mustExec(t, db, "CREATE TABLE b (k INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")
	s := db.NewSession()
	defer s.Close()
	s.BindParams([]sqltypes.Value{sqltypes.NewInt(0)})
	const sub, param = "SELECT k FROM a WHERE k IN (SELECT k FROM b)", "SELECT k FROM a WHERE k > $1"
	for _, q := range []string{sub, param} {
		if _, err := s.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if n := cachedPlan(t, db, sub); n != nil {
		t.Fatalf("subquery plan entered the cache:\n%s", plan.Explain(n))
	}
	if cachedPlan(t, db, param) == nil {
		t.Fatal("parameterised plan left out of the cache")
	}
	// The subquery still re-evaluates per execution.
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	res, err := s.Query(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("subquery replayed stale rows: %v", res.Rows)
	}
	// Another session's values reach the cached parameterised plan.
	s2 := db.NewSession()
	defer s2.Close()
	s2.BindParams([]sqltypes.Value{sqltypes.NewInt(1)})
	if res, err = s2.Query(param); err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("second session's $1 = 1: %v, %v", res, err)
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
	if cachedPlan(t, db, q) == nil {
		t.Fatalf("ScalarFunc plan refused from the cache: %+v", db.StmtCacheStats())
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
// capacity the least recently used entry leaves, recently used ones stay;
// a lent entry is lent to no one else until given back, and a copy built
// meanwhile is kept beside it, up to planCopies per key.
func TestStmtCacheLRUEviction(t *testing.T) {
	c := newPlanLRU(3)
	key := func(i int) []byte { return []byte(fmt.Sprintf("q%d", i)) }
	for i := 0; i < 3; i++ {
		c.give(&planEntry{key: string(key(i))})
	}
	q0 := c.take(key(0)) // refresh q0
	if q0 == nil {
		t.Fatal("q0 missing")
	}
	if c.take(key(0)) != nil {
		t.Fatal("a lent entry was lent twice")
	}
	c.give(q0)
	c.give(&planEntry{key: string(key(3))}) // evicts q1 (LRU)
	if c.take(key(1)) != nil {
		t.Fatal("LRU entry q1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		ent := c.take(key(i))
		if ent == nil {
			t.Fatalf("q%d evicted wrongly", i)
		}
		c.give(ent)
	}
	if n := c.lru.Len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	lent := c.take(key(2))
	dup := &planEntry{key: string(key(2))}
	c.give(dup)
	c.give(lent)
	a, b := c.take(key(2)), c.take(key(2))
	if a == nil || b == nil || a == b {
		t.Fatal("a copy built while the entry was lent out was not kept beside it")
	}
	for i := 0; i < planCopies+3; i++ {
		c.give(&planEntry{key: string(key(2))})
	}
	if n := len(c.m[string(key(2))].Value.(*planSlot).idle); n != planCopies {
		t.Fatalf("%d idle copies of one key, want %d", n, planCopies)
	}
}

// TestStmtCacheEngineLRUBound: the engine-integrated cache never exceeds
// its capacity under a stream of distinct one-off statements.
func TestStmtCacheEngineLRUBound(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER)")
	s := db.NewSession()
	for i := 0; i < planCacheSize+50; i++ {
		if _, err := s.Query(fmt.Sprintf("SELECT k AS k%d FROM t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.StmtCacheStats(); st.Entries > planCacheSize {
		t.Fatalf("cache grew past its bound: %d > %d", st.Entries, planCacheSize)
	}
}

// TestStmtCacheConcurrentSharedPlan: many sessions hammer one statement
// shape concurrently — the cache lends its entry to one execution at a
// time, the others plan copies of their own, and every execution sees its
// own values (run under -race in CI).
func TestStmtCacheConcurrentSharedPlan(t *testing.T) {
	db := Open("sc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i%5, i))
	}
	if _, err := db.NewSession().Query("SELECT k, SUM(v) FROM t WHERE v >= 0 GROUP BY k"); err != nil {
		t.Fatal(err)
	}
	before := db.StmtCacheStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < 30; j++ {
				// v >= 10*g keeps rows 10*g..49: 5 groups while g < 5.
				res, err := s.Query(fmt.Sprintf("SELECT k, SUM(v) FROM t WHERE v >= %d GROUP BY k", 10*(g%5)))
				if err != nil {
					t.Error(err)
					return
				}
				sum := int64(0)
				for _, r := range res.Rows {
					sum += r[1].I
				}
				if want := int64(49*50/2 - (10*(g%5)-1)*10*(g%5)/2); len(res.Rows) != 5 || sum != want {
					t.Errorf("session %d: %d groups summing to %d, want 5 summing to %d", g, len(res.Rows), sum, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := db.StmtCacheStats()
	if st.Entries != before.Entries || st.Hits == before.Hits || st.Hits+st.Misses-before.Hits-before.Misses != 8*30 {
		t.Fatalf("one shape, 240 executions: %+v after %+v", st, before)
	}
}
