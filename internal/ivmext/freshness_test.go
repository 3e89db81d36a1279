package ivmext

import (
	"sync"
	"testing"

	"openivm/internal/engine"
)

// TestLazyReadSeesFreshViewDuringRefresh exercises the per-goroutine
// re-entrancy guard: a reader that arrives while another goroutine's
// propagation is in flight must block on the refresh lock and read fresh
// state, never skip the refresh and observe the pre-propagation view (the
// staleness window the old global refreshing flag allowed). Each round
// inserts a delta, then races an explicit REFRESH against a lazy-mode
// read; whatever the interleaving, the read must include the delta that
// was fully captured before either started.
func TestLazyReadSeesFreshViewDuringRefresh(t *testing.T) {
	db := engine.Open("fresh", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	want := int64(1)
	for round := 0; round < 200; round++ {
		mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
		want++

		var wg sync.WaitGroup
		var readTotal int64
		var readErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = db.Exec("REFRESH MATERIALIZED VIEW query_groups")
		}()
		go func() {
			defer wg.Done()
			res, err := db.Exec("SELECT total_value FROM query_groups WHERE group_index = 'a'")
			if err != nil {
				readErr = err
				return
			}
			if len(res.Rows) == 1 {
				readTotal = res.Rows[0][0].I
			}
		}()
		wg.Wait()
		if readErr != nil {
			t.Fatalf("round %d: concurrent read failed: %v", round, readErr)
		}
		if readTotal != want {
			t.Fatalf("round %d: lazy read saw total %d during refresh, want %d (stale window)",
				round, readTotal, want)
		}
	}
}
