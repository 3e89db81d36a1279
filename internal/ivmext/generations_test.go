package ivmext

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"openivm/internal/engine"
)

// TestReadYourWritesFreshness: a session that commits base-table DML and
// then queries the lazy view must see its own change applied: the commit
// appends to the change log before it returns, so the lazy hook finds it
// pending and refreshes before the read.
func TestReadYourWritesFreshness(t *testing.T) {
	db := engine.Open("ryw", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	s := db.NewSession()
	defer s.Close()
	want := 0
	for i := 1; i <= 20; i++ {
		if _, err := s.ExecScript(fmt.Sprintf("INSERT INTO groups VALUES ('g', %d)", i)); err != nil {
			t.Fatal(err)
		}
		want += i
		res, err := s.ExecScript("SELECT total_value FROM query_groups WHERE group_index = 'g'")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("round %d: view returned %d rows, want 1", i, len(res.Rows))
		}
		if got := res.Rows[0][0].String(); got != fmt.Sprint(want) {
			t.Fatalf("round %d: read-your-writes violated: view total = %s, want %d", i, got, want)
		}
	}
}

// TestCrossGenerationTorture races writers, lazy readers and explicit
// concurrent refreshes across four independent materialized views (two
// per base table), each caller refreshing on its own goroutine. Cuts are taken while
// the logs keep filling; afterwards every view must equal a recompute, no
// change lost or double-applied.
func TestCrossGenerationTorture(t *testing.T) {
	db := engine.Open("torture", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE t_a (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE t_b (k VARCHAR, v INTEGER)")
	// Two views per base: views on the same base share a delta table and
	// must serialize as one refresh group; views on different bases
	// refresh concurrently when their callers do.
	mustExec(t, db, "CREATE MATERIALIZED VIEW va_sum AS SELECT k, SUM(v) AS sv FROM t_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW va_cnt AS SELECT k, COUNT(v) AS cv FROM t_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW vb_sum AS SELECT k, SUM(v) AS sv FROM t_b GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW vb_cnt AS SELECT k, COUNT(v) AS cv FROM t_b GROUP BY k")

	const writers, rounds = 4, 120
	views := []string{"va_sum", "va_cnt", "vb_sum", "vb_cnt"}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			table := "t_a"
			if w%2 == 1 {
				table = "t_b"
			}
			for j := 0; j < rounds; j++ {
				sql := fmt.Sprintf("INSERT INTO %s VALUES ('k%d', %d)", table, j%7, w*rounds+j)
				if _, err := s.ExecScript(sql); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// Lazy readers: every view read refreshes mid-write-storm.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; !stop.Load(); j++ {
				if _, err := s.ExecScript("SELECT * FROM " + views[(r+j)%len(views)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	// Explicit refresh hammer: all four views refreshed concurrently in a
	// tight loop, driving seal-while-filling and refresh coalescing.
	for i, v := range views {
		wg.Add(1)
		go func(i int, v string) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for !stop.Load() {
				if _, err := s.ExecScript("REFRESH MATERIALIZED VIEW " + v); err != nil {
					t.Errorf("refresher %s: %v", v, err)
					return
				}
			}
		}(i, v)
	}

	// Writers finish first; then release the readers and refreshers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	// Wait for writers by polling their rows landing; simplest is to wait
	// on the full group after signalling stop once writers are done. The
	// writer goroutines are the only ones with bounded loops, so give
	// them the group and flip stop when total base rows reach the target.
	waitRows := func(table string, n int) {
		s := db.NewSession()
		defer s.Close()
		for {
			res, err := s.ExecScript("SELECT COUNT(*) FROM " + table)
			if err != nil {
				t.Errorf("count %s: %v", table, err)
				return
			}
			if res.Rows[0][0].String() == fmt.Sprint(n) {
				return
			}
		}
	}
	waitRows("t_a", writers/2*rounds)
	waitRows("t_b", writers/2*rounds)
	stop.Store(true)
	<-done

	checks := []struct{ view, recompute string }{
		{"SELECT k, sv FROM va_sum ORDER BY k", "SELECT k, SUM(v) FROM t_a GROUP BY k ORDER BY k"},
		{"SELECT k, cv FROM va_cnt ORDER BY k", "SELECT k, COUNT(v) FROM t_a GROUP BY k ORDER BY k"},
		{"SELECT k, sv FROM vb_sum ORDER BY k", "SELECT k, SUM(v) FROM t_b GROUP BY k ORDER BY k"},
		{"SELECT k, cv FROM vb_cnt ORDER BY k", "SELECT k, COUNT(v) FROM t_b GROUP BY k ORDER BY k"},
	}
	for _, v := range views {
		mustExec(t, db, "REFRESH MATERIALIZED VIEW "+v)
	}
	for _, c := range checks {
		view := mustExec(t, db, c.view)
		want := mustExec(t, db, c.recompute)
		if len(view.Rows) != len(want.Rows) {
			t.Fatalf("%s: view has %d rows, recompute %d", c.view, len(view.Rows), len(want.Rows))
		}
		for i := range view.Rows {
			if view.Rows[i][0].String() != want.Rows[i][0].String() ||
				view.Rows[i][1].String() != want.Rows[i][1].String() {
				t.Fatalf("%s row %d: view %v, recompute %v", c.view, i, view.Rows[i], want.Rows[i])
			}
		}
	}
	// Two refresh groups (one change log per base table); coalescing
	// means most refresh attempts find nothing to apply, but each group
	// must have cut a non-empty window at least once.
	if n := ext.db.Metrics().Snapshot()["ivm.generationsSealed"]; n < 2 {
		t.Fatalf("GenerationsSealed = %d, want >= 2", n)
	}
}

// TestParallelRefreshOverlap pins the refresh groups' concurrency claim
// without a counter or a clock: while the test holds va's refresh lock, a
// REFRESH of vb, over a disjoint base, returns with vb fresh, and a REFRESH
// of va2, which shares va's base, does not return and leaves va2 stale.
// Once the lock is released it returns with va2 fresh.
func TestParallelRefreshOverlap(t *testing.T) {
	db := engine.Open("overlap", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE t_a (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE t_b (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW va AS SELECT k, SUM(v) AS sv FROM t_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW va2 AS SELECT k, COUNT(*) AS n FROM t_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW vb AS SELECT k, SUM(v) AS sv FROM t_b GROUP BY k")
	mustExec(t, db, "INSERT INTO t_a VALUES ('a', 1)")
	mustExec(t, db, "INSERT INTO t_b VALUES ('b', 2)")

	refresh := func(v string) <-chan error {
		done := make(chan error, 1)
		go func() {
			s := db.NewSession()
			defer s.Close()
			_, err := s.ExecScript("REFRESH MATERIALIZED VIEW " + v)
			done <- err
		}()
		return done
	}
	va, va2, vb := ext.view("va"), ext.view("va2"), ext.view("vb")
	va.mu.Lock()
	shared := refresh("va2")
	if err := <-refresh("vb"); err != nil {
		va.mu.Unlock()
		t.Fatalf("refresh vb: %v", err)
	}
	if vb.pending() {
		t.Error("vb is stale after its refresh returned while va's lock was held")
	}
	select {
	case err := <-shared:
		t.Errorf("refresh va2 returned (%v) while va's refresh lock was held", err)
	default:
	}
	if !va2.pending() {
		t.Error("va2 was refreshed while va's refresh lock was held")
	}
	va.mu.Unlock()
	if err := <-shared; err != nil {
		t.Fatalf("refresh va2: %v", err)
	}
	if va.pending() || va2.pending() {
		t.Error("va or va2 is stale after va2's refresh returned")
	}
	viewEquals(t, db, "k, n", "va2", "SELECT k, COUNT(*) AS n FROM t_a GROUP BY k")
}
