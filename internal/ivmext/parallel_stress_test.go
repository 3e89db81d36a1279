package ivmext

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/workload"
)

// TestParallelRefreshStress is the concurrency stress test for the
// parallel executor: with PRAGMA workers = 4, a writer applies a seeded,
// deterministic update stream with an IVM refresh after every statement
// while reader goroutines hammer parallel scans and aggregations over the
// same base table. Every read must succeed (snapshot isolation of the
// partitioned scan), and the final view state must be identical to a
// serial (workers = 1) engine driven through the exact same stream —
// compared sorted, so only content matters.
//
// Run under -race in CI, this is the test that guards the worker fan-out,
// the thread-local aggregation tables and the combine phase.
func TestParallelRefreshStress(t *testing.T) {
	const rows, groups, stream = 12000, 64, 60

	run := func(workers string, concurrentReads bool) []string {
		db := engine.Open("stress", engine.DialectDuckDB)
		Install(db)
		db.SetPragma("workers", workers)
		mustExec(t, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
		w := workload.Groups{Rows: rows, NumGroups: groups, Seed: 7}
		mustExec(t, db, w.InsertBatch(rows, 7))
		mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
			SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

		stop := make(chan struct{})
		var readers sync.WaitGroup
		var readErr error
		var readErrOnce sync.Once
		if concurrentReads {
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Parallel fused scan + parallel thread-local
						// aggregation, racing the writer's DML and refreshes.
						if _, err := db.Exec("SELECT group_index, SUM(group_value) FROM groups WHERE group_value >= 0 GROUP BY group_index"); err != nil {
							readErrOnce.Do(func() { readErr = err })
							return
						}
					}
				}()
			}
		}

		for _, u := range w.UpdateStream(stream, 0.7, 0.2, 13) {
			mustExec(t, db, u.SQL)
			mustExec(t, db, "REFRESH MATERIALIZED VIEW query_groups")
		}
		close(stop)
		readers.Wait()
		if readErr != nil {
			t.Fatalf("concurrent reader failed: %v", readErr)
		}

		res := mustExec(t, db, "SELECT group_index, total_value FROM query_groups")
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}

	parallel := run("4", true)
	serial := run("1", false)
	if strings.Join(parallel, "\n") != strings.Join(serial, "\n") {
		t.Fatalf("parallel view state diverged from serial after identical streams\nparallel: %v\nserial:   %v",
			parallel, serial)
	}
	if len(parallel) == 0 {
		t.Fatal("stress run produced an empty view")
	}
}
