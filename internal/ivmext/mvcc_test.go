package ivmext

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"openivm/internal/engine"
)

// TestIVMUnderMVCCConvergence: concurrent transactional writers on the
// base table, each refreshing the view after every commit, racing readers
// on the materialized view. Every write is a balanced pair (+x, -x) into one group inside a
// single statement, so at every commit boundary each group's SUM is
// zero. Three guarantees under test:
//
//   - MV reads never expose a partially-applied delta: a reader that
//     could see half a pair (or half a propagation statement) would
//     observe a nonzero group total;
//   - rolled-back transactions leave no trace in the view;
//   - after the writers drain, the view equals the serial recompute of
//     its defining query over the surviving base rows.
func TestIVMUnderMVCCConvergence(t *testing.T) {
	db := engine.Open("mvcc-ivm", engine.DialectDuckDB)
	Install(db)
	// Balanced pairs keep every group's SUM at zero; the view's hidden row
	// count, not its SUM, decides when a group leaves it.
	mustExec(t, db, "CREATE TABLE ledger (g INTEGER, v INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW balances AS
		SELECT g, SUM(v) AS total FROM ledger GROUP BY g`)

	const writers, commitsPer, groups = 4, 40, 6

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var readErr error
	var readErrOnce sync.Once
	fail := func(err error) { readErrOnce.Do(func() { readErr = err }) }
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			s := db.NewSession()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query("SELECT g, total FROM balances")
				if err != nil {
					fail(err)
					return
				}
				for _, row := range res.Rows {
					if row[1].I != 0 {
						fail(fmt.Errorf("reader saw partially-applied delta: group %d total %d", row[0].I, row[1].I))
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			rnd := rand.New(rand.NewSource(int64(w) + 42))
			for i := 0; i < commitsPer; i++ {
				g := rnd.Intn(groups)
				x := rnd.Intn(1000) + 1
				pair := fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d), (%d, %d)", g, x, g, -x)
				const refresh = "REFRESH MATERIALIZED VIEW balances"
				switch rnd.Intn(3) {
				case 0: // autocommit
					for _, sql := range []string{pair, refresh} {
						if _, err := s.Exec(sql); err != nil {
							fail(err)
							return
						}
					}
				case 1: // explicit transaction, two pairs
					g2 := rnd.Intn(groups)
					pair2 := fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d), (%d, %d)", g2, x+1, g2, -x-1)
					for _, sql := range []string{"BEGIN", pair, pair2, "COMMIT", refresh} {
						if _, err := s.Exec(sql); err != nil {
							fail(err)
							return
						}
					}
				default: // rolled back: must never reach the view
					for _, sql := range []string{"BEGIN", pair, "ROLLBACK"} {
						if _, err := s.Exec(sql); err != nil {
							fail(err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}

	mustExec(t, db, "REFRESH MATERIALIZED VIEW balances")
	dump := func(sql string) []string {
		res := mustExec(t, db, sql)
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	view := dump("SELECT g, total FROM balances")
	serial := dump("SELECT g, SUM(v) FROM ledger GROUP BY g")
	if strings.Join(view, "\n") != strings.Join(serial, "\n") {
		t.Fatalf("view diverged from serial recompute\nview:   %v\nserial: %v", view, serial)
	}
	// All surviving base rows are balanced pairs from committed
	// transactions; a rolled-back insert leaking through would show as an
	// odd row count or nonzero total.
	res := mustExec(t, db, "SELECT SUM(v), COUNT(v) FROM ledger")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("base table sum = %d, want 0", res.Rows[0][0].I)
	}
	if res.Rows[0][1].I%2 != 0 {
		t.Fatalf("base table row count %d is odd: a half-pair leaked", res.Rows[0][1].I)
	}
}
