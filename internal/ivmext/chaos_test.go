package ivmext

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/fault"
	"openivm/internal/txntest"
)

// chaosSeed returns the chaos-schedule seed: FAULT_SEED when set
// (replayable CI runs), otherwise clock-derived and printed on failure.
func chaosSeed() (int64, bool) {
	if v := os.Getenv("FAULT_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n, true
		}
	}
	return time.Now().UnixNano(), false
}

// TestRefreshChaosSchedules runs randomized failpoint schedules against
// the concurrent refresh path — injecting errors and delays at the
// generation seal, the per-view propagation body and the pre-combine
// point — while writers, lazy readers and explicit refreshes race
// across four views on two base tables. The contract on every schedule:
//
//   - an injected refresh failure surfaces as an error on the reader or
//     REFRESH statement that triggered it, never crashes the engine, and
//     never corrupts a view: a refresh group is one transaction, so a
//     failure anywhere in it keeps nothing — every view of the group keeps
//     its from and the log its entries, and the next refresh applies each
//     view's whole window once — nothing lost, nothing double-applied;
//   - writers are untouched (capture does not traverse the failpoints);
//   - after disarming, one refresh per view converges every view to an
//     exact recompute, and the engine still provides snapshot isolation
//     (txntest oracle).
func TestRefreshChaosSchedules(t *testing.T) {
	seed, fromEnv := chaosSeed()
	schedules := 8
	if testing.Short() {
		schedules = 3
	}
	sites := []string{fault.IVMSeal, fault.IVMPropagateView, fault.IVMCombine}
	actions := []string{"error(chaos)", "delay(2ms)"}
	for i := 0; i < schedules; i++ {
		s := seed + int64(i)
		t.Run(fmt.Sprintf("schedule%d", i), func(t *testing.T) {
			if err := runRefreshChaos(t, rand.New(rand.NewSource(s)), sites, actions); err != nil {
				if fromEnv {
					t.Fatalf("FAULT_SEED=%d: %v", s, err)
				}
				t.Fatalf("seed %d (set FAULT_SEED=%d to replay): %v", s, s, err)
			}
		})
	}
}

// chaosErrOK reports whether an error observed by a reader or refresher
// during an armed schedule is an expected injected failure.
func chaosErrOK(err error) bool {
	return err != nil && strings.Contains(err.Error(), "chaos")
}

func runRefreshChaos(t *testing.T, rnd *rand.Rand, sites, actions []string) error {
	defer fault.Reset()
	db := engine.Open("refreshchaos", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE c_a (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE c_b (k VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW ca_sum AS SELECT k, SUM(v) AS sv FROM c_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW ca_cnt AS SELECT k, COUNT(v) AS cv FROM c_a GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW cb_sum AS SELECT k, SUM(v) AS sv FROM c_b GROUP BY k")
	mustExec(t, db, "CREATE MATERIALIZED VIEW cb_cnt AS SELECT k, COUNT(v) AS cv FROM c_b GROUP BY k")
	views := []string{"ca_sum", "ca_cnt", "cb_sum", "cb_cnt"}

	site := sites[rnd.Intn(len(sites))]
	action := actions[rnd.Intn(len(actions))]
	rate := 2 + rnd.Intn(5)
	if err := fault.Activate(site, fmt.Sprintf("%s@1in%d", action, rate)); err != nil {
		return err
	}

	const writers, rounds = 3, 60
	var stop atomic.Bool
	var firstErr atomic.Value
	fail := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		firstErr.CompareAndSwap(nil, err)
		stop.Store(true)
	}
	var wg sync.WaitGroup
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		writersWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersWG.Done()
			s := db.NewSession()
			defer s.Close()
			table := "c_a"
			if w%2 == 1 {
				table = "c_b"
			}
			for j := 0; j < rounds; j++ {
				sql := fmt.Sprintf("INSERT INTO %s VALUES ('k%d', %d)", table, j%5, w*rounds+j)
				if _, err := s.ExecScript(sql); err != nil {
					// Writers never traverse the refresh failpoints.
					fail("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; !stop.Load(); j++ {
				if _, err := s.ExecScript("SELECT * FROM " + views[(r+j)%len(views)]); err != nil && !chaosErrOK(err) {
					fail("reader %d: unexpected error %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; !stop.Load(); j++ {
				if _, err := s.ExecScript("REFRESH MATERIALIZED VIEW " + views[(i+j)%len(views)]); err != nil && !chaosErrOK(err) {
					fail("refresher %d: unexpected error %v", i, err)
					return
				}
			}
		}(i)
	}
	writersWG.Wait()
	stop.Store(true)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}

	// Disarm and converge: every view must equal a recompute — every
	// injected failure must have kept its group's windows whole, for the
	// next refresh to apply once.
	fault.Reset()
	for _, v := range views {
		mustExec(t, db, "REFRESH MATERIALIZED VIEW "+v)
	}
	checks := []struct{ view, recompute string }{
		{"SELECT k, sv FROM ca_sum ORDER BY k", "SELECT k, SUM(v) FROM c_a GROUP BY k ORDER BY k"},
		{"SELECT k, cv FROM ca_cnt ORDER BY k", "SELECT k, COUNT(v) FROM c_a GROUP BY k ORDER BY k"},
		{"SELECT k, sv FROM cb_sum ORDER BY k", "SELECT k, SUM(v) FROM c_b GROUP BY k ORDER BY k"},
		{"SELECT k, cv FROM cb_cnt ORDER BY k", "SELECT k, COUNT(v) FROM c_b GROUP BY k ORDER BY k"},
	}
	for _, c := range checks {
		if d := rowsDiff(mustExec(t, db, c.view).Rows, mustExec(t, db, c.recompute).Rows); d != "" {
			return fmt.Errorf("%s diverged from its recompute\n%s", c.view, d)
		}
	}

	// The engine must still provide snapshot isolation after injected
	// refresh failures (the failed refreshes' aborts must not have leaked
	// MVCC state).
	o := txntest.Options{Sessions: 3, Keys: 4, Ops: 30}
	for _, stmt := range txntest.SetupSQL(o) {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("seeding SI check: %w", err)
		}
	}
	h := txntest.Generate(rnd, o)
	isSer := func(err error) bool { return enginerr.CodeOf(err) == enginerr.CodeSerialization }
	open := func() (txntest.Conn, error) { return ivmChaosConn{db.NewSession()}, nil }
	viol, err := txntest.RunSequential(open, h, isSer, o)
	if err != nil {
		return fmt.Errorf("SI check after refresh chaos: %w", err)
	}
	if viol != nil {
		return fmt.Errorf("SI violation after refresh chaos:\n%s\n%v", txntest.Format(h), viol)
	}
	return nil
}

// ivmChaosConn adapts an engine session to the txntest harness.
type ivmChaosConn struct{ s *engine.Session }

func (c ivmChaosConn) Exec(sql string) ([][]int64, error) {
	res, err := c.s.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		row := make([]int64, len(r))
		for i, v := range r {
			row[i] = v.I
		}
		out = append(out, row)
	}
	return out, nil
}

func (c ivmChaosConn) Close() error { return c.s.Close() }
