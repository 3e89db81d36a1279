package ivmext

import (
	"fmt"
	"sync"
	"testing"

	"openivm/internal/engine"
)

// TestConcurrentWritersNoLostDeltas guards delta exactness: writers
// committing must never race a propagation into losing a change. In the
// first design this was a fence (a row captured between a propagation
// body's read of ΔT and the trailing DELETE FROM ΔT was discarded
// unapplied, leaving the view permanently stale — a rare wire-stress
// failure under -race). With change logs the invariant holds structurally:
// a commit lands at or before a refresh's cut (and is in its window) or
// after it (and in the next one), and the log drops only what every view
// has applied. Here lazy readers trigger propagation continuously while
// independent sessions keep writing; afterwards one final refresh must
// make the view exactly equal to a recompute over the base table.
func TestConcurrentWritersNoLostDeltas(t *testing.T) {
	db := engine.Open("fence", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "PRAGMA ivm_mode = 'lazy'")
	mustExec(t, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	const writers, readers, rounds = 8, 4, 150

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rounds; j++ {
				sql := fmt.Sprintf("INSERT INTO groups VALUES ('g%d', %d)", j%5, w*rounds+j)
				if _, err := s.ExecScript(sql); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rounds; j++ {
				// Each view read finds stale deltas and runs propagation,
				// racing its delta truncation against the writers above.
				if _, err := s.ExecScript("SELECT group_index, total_value FROM query_groups"); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	mustExec(t, db, "REFRESH MATERIALIZED VIEW query_groups")
	view := mustExec(t, db, "SELECT group_index, total_value FROM query_groups ORDER BY group_index")
	want := mustExec(t, db, "SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index ORDER BY group_index")
	if len(view.Rows) != len(want.Rows) {
		t.Fatalf("view has %d groups, recompute %d", len(view.Rows), len(want.Rows))
	}
	for i := range view.Rows {
		if view.Rows[i][0].String() != want.Rows[i][0].String() ||
			view.Rows[i][1].String() != want.Rows[i][1].String() {
			t.Fatalf("row %d: view %v, recompute %v (lost delta)", i, view.Rows[i], want.Rows[i])
		}
	}
}
