package ivmext

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/fault"
)

// feedOf returns the change-log state of a delta table.
func feedOf(t *testing.T, ext *Extension, delta string) *feed {
	t.Helper()
	ext.mu.Lock()
	defer ext.mu.Unlock()
	f := ext.feeds[delta]
	if f == nil {
		t.Fatalf("no change log for %s", delta)
	}
	return f
}

// count runs a COUNT(*) query.
func count(t *testing.T, db *engine.DB, sql string) int64 {
	t.Helper()
	return mustExec(t, db, sql).Rows[0][0].I
}

func wantPending(t *testing.T, db *engine.DB, step string, want int64) {
	t.Helper()
	if got := db.Metrics().Snapshot()["ivm.generationsPending"]; got != want {
		t.Fatalf("%s: ivm.generationsPending = %d, want %d", step, got, want)
	}
}

// awaitFired waits until the failpoint at site has fired n times: a delay
// action is then under way.
func awaitFired(t *testing.T, site string, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, fired := fault.Hits(site); fired >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never fired", site)
		}
		time.Sleep(time.Millisecond)
	}
}

// viewTotal sums a view's second column through the catalog: a SELECT
// would refresh it first.
func viewTotal(t *testing.T, db *engine.DB, name string) int64 {
	t.Helper()
	vt, err := db.Catalog().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range vt.Rows() {
		total += r[1].I
	}
	return total
}

// parkAfterCut starts a refresh of qg over the three rows the caller
// committed and holds it after its cut, before its body: the generation
// the cut closed is frozen until the returned channel yields.
func parkAfterCut(t *testing.T, db *engine.DB, ext *Extension) <-chan error {
	t.Helper()
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 3 {
		t.Fatalf("delta_groups shows %d pending rows, want 3", n)
	}
	if err := fault.Activate(fault.IVMPropagateView, "delay(300ms)@times1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ext.Refresh("qg") }()
	awaitFired(t, fault.IVMPropagateView, 1)
	return done
}

// finishParked waits for the parked refresh and checks it applied exactly
// the generation its cut froze: the three rows worth 6.
func finishParked(t *testing.T, db *engine.DB, done <-chan error) {
	t.Helper()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if total := viewTotal(t, db, "qg_ivm_storage"); total != 6 {
		t.Fatalf("view total after the parked refresh = %d, want 6 (what committed before its cut)", total)
	}
}

// TestCaptureOverlapsFrozenGeneration parks a propagation after its cut
// and commits base writes meanwhile: the delta table must keep returning
// the frozen generation under the body, the parked refresh must apply
// exactly what committed before its cut, and the writes it overlapped land
// in the next generation.
func TestCaptureOverlapsFrozenGeneration(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	wantPending(t, db, "no changes", 0)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2), ('c', 3)")
	wantPending(t, db, "three changes", 1)

	done := parkAfterCut(t, db, ext)
	s := db.NewSession()
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO groups VALUES ('a', %d)", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 3 {
		t.Fatalf("delta_groups moved under the parked body: %d rows, want its window of 3", n)
	}
	finishParked(t, db, done)
	wantPending(t, db, "written during the body", 1)
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 5 {
		t.Fatalf("delta_groups holds %d rows after the refresh, want the 5 committed after its cut", n)
	}
	mustExec(t, db, "REFRESH MATERIALIZED VIEW qg")
	wantPending(t, db, "converged", 0)
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 0 {
		t.Fatalf("delta_groups holds %d rows every view applied", n)
	}
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestCaptureOutlivesItsFrozenGeneration: a transaction that wrote the base
// before a refresh's cut, wrote again while the body ran, and commits after
// the refresh must not reach the generation the cut froze; both its writes
// land in the next one.
func TestCaptureOutlivesItsFrozenGeneration(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2), ('c', 3)")

	late := db.NewSession()
	defer late.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO groups VALUES ('b', 100)"} {
		if _, err := late.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	done := parkAfterCut(t, db, ext)
	if _, err := late.Exec("INSERT INTO groups VALUES ('c', 50)"); err != nil {
		t.Fatal(err)
	}
	finishParked(t, db, done)
	wantPending(t, db, "uncommitted", 0)
	if _, err := late.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	wantPending(t, db, "committed after the cut", 1)
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 2 {
		t.Fatalf("delta_groups holds %d rows after the refresh, want the transaction's 2", n)
	}
	mustExec(t, db, "REFRESH MATERIALIZED VIEW qg")
	wantPending(t, db, "converged", 0)
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 0 {
		t.Fatalf("delta_groups holds %d rows every view applied", n)
	}
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestFailedBodyKeepsItsWindow fails the propagation body of one of two
// views over one base while writes keep arriving. A refresh group is one
// transaction, so the failure keeps nothing of it: both views keep their
// from, V as it was, and the log every entry; the next refresh runs both
// bodies, over the old changes and the newer ones, and each view equals its
// query.
func TestFailedBodyKeepsItsWindow(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_cnt AS SELECT group_index,
		COUNT(*) AS n FROM groups GROUP BY group_index`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_sum AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 10)")
	cnt, sum := ext.view("v_cnt"), ext.view("v_sum")
	cntFrom, sumFrom := cnt.from.Load(), sum.from.Load()
	cntTotal, sumTotal := viewTotal(t, db, cnt.comp.Storage), viewTotal(t, db, sum.comp.Storage)

	// A group applies its views in name order: v_cnt's body runs, v_sum's
	// fails.
	if err := fault.Activate(fault.IVMPropagateView, "error(boom)@after1@times1"); err != nil {
		t.Fatal(err)
	}
	if err := ext.Refresh("v_sum"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("refresh error = %v, want the injected failure", err)
	}
	if cnt.from.Load() != cntFrom || sum.from.Load() != sumFrom {
		t.Fatalf("after the failed body: v_cnt from %d, v_sum from %d; want both where they were, %d and %d",
			cnt.from.Load(), sum.from.Load(), cntFrom, sumFrom)
	}
	if got, got2 := viewTotal(t, db, cnt.comp.Storage), viewTotal(t, db, sum.comp.Storage); got != cntTotal || got2 != sumTotal {
		t.Fatalf("after the failed body the views total %d and %d, want %d and %d as before", got, got2, cntTotal, sumTotal)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 3 {
		t.Fatalf("the log keeps %d entries after the failed body, want the 3 both views have yet to apply", n)
	}

	mustExec(t, db, "INSERT INTO groups VALUES ('b', 5), ('c', 7)")
	mustExec(t, db, "DELETE FROM groups WHERE group_value = 1")
	wantPending(t, db, "after failure", 1)

	// The retry runs both bodies over all six changes.
	bodies := ext.db.Metrics().Snapshot()["ivm.propagations"]
	if err := ext.Refresh("v_cnt"); err != nil {
		t.Fatal(err)
	}
	if got := ext.db.Metrics().Snapshot()["ivm.propagations"] - bodies; got != 2 {
		t.Fatalf("the retry ran %d bodies, want 2", got)
	}
	wantPending(t, db, "repaired", 0)
	if n := count(t, db, "SELECT COUNT(*) FROM delta_groups"); n != 0 {
		t.Fatalf("the log keeps %d entries both views applied", n)
	}
	viewEquals(t, db, "group_index, n", "v_cnt",
		"SELECT group_index, COUNT(*) FROM groups GROUP BY group_index")
	viewEquals(t, db, "group_index, total_value", "v_sum",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestExecutedScriptIsPrintedScript: for every query class, what a
// refresh prepares and executes is the script PropagateSQL prints without
// its step 4 — the same statement nodes — step 4 is the emptying of ΔT the
// runtime does (a change-log trim), and the setup script creates exactly
// one delta table per base table and V.
func TestExecutedScriptIsPrintedScript(t *testing.T) {
	views := []struct{ name, def string }{
		{"m1", "SELECT x, v FROM a WHERE v > 0"},
		{"m2", "SELECT x, SUM(v) AS s, COUNT(*) AS n FROM a GROUP BY x"},
		{"m4", "SELECT a.x, a.v, b.w FROM a JOIN b ON a.x = b.x"},
		{"m5", "SELECT a.x, SUM(b.w) AS s FROM a JOIN b ON a.x = b.x GROUP BY a.x"},
	}
	db := engine.Open("printed", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE a (x VARCHAR, v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (x VARCHAR, w INTEGER)")
	for _, v := range views {
		mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
	}
	mustExec(t, db, "INSERT INTO a VALUES ('k', 1), ('l', 2)")
	mustExec(t, db, "INSERT INTO b VALUES ('k', 3)")
	for _, v := range views {
		mustExec(t, db, "REFRESH MATERIALIZED VIEW "+v.name)
		comp, prepared := ext.view(v.name).comp, ext.view(v.name).prepared
		if prepared == nil {
			t.Fatalf("%s: the refresh prepared no body", v.name)
		}
		n := len(comp.Body.Stmts)
		if n == 0 || n >= len(comp.Propagate.Stmts) {
			t.Fatalf("%s: body has %d of the script's %d statements", v.name, n, len(comp.Propagate.Stmts))
		}
		for i, st := range comp.Body.Stmts {
			if comp.Propagate.Stmts[i] != st {
				t.Errorf("%s: executed statement %d is not the printed script's node", v.name, i)
			}
		}
		// The rest of the printed script is step 4 and nothing else.
		var truncated []string
		for _, st := range comp.Propagate.Stmts[n:] {
			del, ok := st.(*duckast.Delete)
			if !ok || del.Where != nil {
				t.Fatalf("%s: step 4 holds %s", v.name, st.SQL())
			}
			truncated = append(truncated, del.Table)
		}
		want := deltaNames(comp)
		if strings.Join(truncated, ",") != strings.Join(want, ",") {
			t.Errorf("%s: step 4 truncates %v, want %v", v.name, truncated, want)
		}
		setup := comp.SetupSQL()
		for _, b := range comp.Bases {
			if c := strings.Count(setup, "CREATE TABLE IF NOT EXISTS "+b.Delta+" ("); c != 1 {
				t.Errorf("%s: setup creates %s %d times", v.name, b.Delta, c)
			}
		}
		// Every table step 4 truncates, plus V.
		if got := strings.Count(setup, "CREATE TABLE"); got != len(want)+1 {
			t.Errorf("%s: setup creates %d tables, want %d (one ΔT per base, V):\n%s", v.name, got, len(want)+1, setup)
		}
	}
}

// TestDropLastViewStopsTracking drops the last view over a base while a
// failed body left entries in its change log: no delta table, log or
// extension state may survive, the base's writes stop being logged, and the
// names are free for a fresh view.
func TestDropLastViewStopsTracking(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	const view = `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`
	mustExec(t, db, view)
	old := feedOf(t, ext, "delta_groups")
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	if err := fault.Activate(fault.IVMPropagateView, "error(boom)@times1"); err != nil {
		t.Fatal(err)
	}
	if err := ext.Refresh("qg"); err == nil {
		t.Fatal("refresh with a failing body succeeded")
	}
	mustExec(t, db, "INSERT INTO groups VALUES ('b', 2)")

	mustExec(t, db, "DROP VIEW qg")
	for _, tbl := range []string{"qg", "delta_groups"} {
		if db.Catalog().HasTable(tbl) {
			t.Errorf("table %q survived DROP VIEW", tbl)
		}
	}
	ext.mu.Lock()
	left := len(ext.feeds) + len(ext.views)
	ext.mu.Unlock()
	if left != 0 {
		t.Errorf("%d extension state entries survived DROP VIEW", left)
	}
	if old.base.Tracked() {
		t.Error("the base still keeps a change log after its last view was dropped")
	}
	wantPending(t, db, "dropped", 0)
	caught := ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"]
	mustExec(t, db, "INSERT INTO groups VALUES ('c', 3)")
	if ext.db.Metrics().Snapshot()["ivm.deltaRowsCaptured"] != caught {
		t.Error("writes still logged after drop")
	}

	mustExec(t, db, view)
	if feedOf(t, ext, "delta_groups").log == old.log {
		t.Fatal("re-created view reads the dropped view's change log")
	}
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 4)")
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestDeltaTableRefusesWrites: a delta table reads its base's change log;
// every statement that would write it is refused, and it stays readable.
func TestDeltaTableRefusesWrites(t *testing.T) {
	db, _ := setup(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	for _, sql := range []string{
		"INSERT INTO delta_groups VALUES ('x', 1, TRUE)",
		"UPDATE delta_groups SET group_value = 2",
		"DELETE FROM delta_groups WHERE group_value = 1",
		"DELETE FROM delta_groups",
		"TRUNCATE delta_groups",
	} {
		if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "delta table") {
			t.Errorf("%s: err = %v, want it refused", sql, err)
		}
	}
	s := db.NewSession()
	defer s.Close()
	if _, err := s.DrainTable("delta_groups"); err == nil {
		t.Error("draining a delta table succeeded")
	}
	if got := fmt.Sprint(mustExec(t, db, "SELECT * FROM delta_groups").Rows); got != "[a|1|true]" {
		t.Fatalf("delta_groups reads %s, want the one pending insertion", got)
	}
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestCreateViewBesideWriters creates a view over a 20 000-row table while
// another session keeps inserting into it: every write must reach the
// view, whether it committed before the population's snapshot (in V) or
// after it (in the change log).
func TestCreateViewBesideWriters(t *testing.T) {
	db := engine.Open("beside", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (id INTEGER, g VARCHAR, v INTEGER)")
	const rows, groups = 20000, 48
	for lo := 0; lo < rows; lo += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES ")
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 'g%d', %d)", i, i%groups, i%97)
		}
		mustExec(t, db, sb.String())
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var written atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for i := rows; !stop.Load(); i++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'g%d', %d)", i, i%groups, i%97)); err != nil {
				t.Error(err)
				return
			}
			written.Add(1)
		}
	}()
	for written.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	mustExec(t, db, "CREATE MATERIALIZED VIEW mv AS SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
	for n := written.Load(); written.Load() < n+20; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	viewEquals(t, db, "g, s, n", "mv", "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
}

// TestOneTransactionOneCut commits one transaction that writes both bases
// of a join view while a refresh is held just before taking its cut: the
// transaction's two changes must land in one refresh, so the order is
// counted once. The refresher refreshes twice, each time over fresh writes
// to both bases, and the hold is on the failpoint's second hit.
func TestOneTransactionOneCut(t *testing.T) {
	db := engine.Open("cut", engine.DialectDuckDB)
	ext := Install(db)
	defer fault.Reset()
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO customers VALUES (1, 'r0'), (2, 'r1')")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 5), (2, 2, 3)")
	const def = "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region"
	mustExec(t, db, "CREATE MATERIALIZED VIEW rt AS "+def)

	if err := fault.Activate(fault.IVMSeal, "delay(300ms)@after1@times1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		s := db.NewSession()
		defer s.Close()
		for i := 0; i < 2; i++ {
			sql := fmt.Sprintf("INSERT INTO customers VALUES (%d, 'r0'); INSERT INTO orders VALUES (%d, 1, 1)", 10+i, 10+i)
			if _, err := s.Exec(sql); err != nil {
				done <- err
				return
			}
			if err := ext.Refresh("rt"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	awaitFired(t, fault.IVMSeal, 1)
	mustExec(t, db, "BEGIN; INSERT INTO customers VALUES (20, 'r1'); INSERT INTO orders VALUES (100, 20, 7); COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	viewEquals(t, db, "region, total, n", "rt", def)
}

// TestCreateViewBesideInPlaceUpsert creates a view while an autocommit
// INSERT OR REPLACE that replaced its row in place sits before its commit:
// the population must not read the replaced row and then get the
// replacement again from the change log.
func TestCreateViewBesideInPlaceUpsert(t *testing.T) {
	db := engine.Open("inplace", engine.DialectDuckDB)
	Install(db)
	defer fault.Reset()
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a', 5), (2, 'b', 6)")
	if err := fault.Activate(fault.EngineCommit, "delay(300ms)@times1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT OR REPLACE INTO t VALUES (1, 'a', 100)")
		done <- err
	}()
	awaitFired(t, fault.EngineCommit, 1)
	mustExec(t, db, "CREATE MATERIALIZED VIEW mv AS SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	viewEquals(t, db, "g, s, n", "mv", "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
}

// TestCreateViewBesideUpsertStream creates a view while one session runs
// autocommit INSERT OR REPLACE statements back to back, each of which may
// take the in-place path: the population must get its snapshot in bounded
// time, and the view must match its query once the stream stops.
func TestCreateViewBesideUpsertStream(t *testing.T) {
	db := engine.Open("upserts", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (0, 'g0', 0), (1, 'g1', 1), (2, 'g2', 2), (3, 'g3', 3)")
	var stop atomic.Bool
	var written atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for i := 0; !stop.Load(); i++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT OR REPLACE INTO t VALUES (%d, 'g%d', %d)", i%64, i%4, i%97)); err != nil {
				t.Error(err)
				return
			}
			written.Add(1)
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()
	for written.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	created := make(chan error, 1)
	go func() {
		_, err := db.Exec("CREATE MATERIALIZED VIEW mv AS SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
		created <- err
	}()
	select {
	case err := <-created:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CREATE MATERIALIZED VIEW did not finish beside the upsert stream")
	}
	for n := written.Load(); written.Load() < n+20; {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	viewEquals(t, db, "g, s, n", "mv", "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
}

// TestLazyRefreshReachesEveryRead: the lazy hook must refresh a stale
// materialized view wherever a statement reads it — not only in the FROM
// clause of a top-level SELECT. (No HAVING row: the planner rejects
// subqueries after aggregation.)
func TestLazyRefreshReachesEveryRead(t *testing.T) {
	for _, c := range []struct {
		name string
		stmt string // reads qg while it is stale
		read string // "" = stmt's own result
		want int64
	}{
		{"scalar subquery in the select list", "SELECT (SELECT COUNT(*) FROM qg)", "", 3},
		{"IN subquery in WHERE", "SELECT COUNT(*) FROM probe WHERE g IN (SELECT group_index FROM qg)", "", 2},
		{"subquery in JOIN ON", "SELECT COUNT(*) FROM probe p JOIN probe q ON p.g = q.g AND p.g IN (SELECT group_index FROM qg)", "", 2},
		{"plain view over the materialized view", "SELECT COUNT(*) FROM pv", "", 3},
		{"plain view over a plain view", "SELECT COUNT(*) FROM pvv", "", 3},
		{"INSERT ... SELECT", "INSERT INTO copy SELECT group_index, total_value FROM qg", "SELECT COUNT(*) FROM copy", 3},
		{"subquery in VALUES", "INSERT INTO copy VALUES ('n', (SELECT COUNT(*) FROM qg))", "SELECT v FROM copy", 3},
		{"UPDATE SET subquery", "UPDATE seed SET v = (SELECT COUNT(*) FROM qg)", "SELECT v FROM seed", 3},
		{"UPDATE WHERE subquery", "UPDATE seed SET v = 9 WHERE g IN (SELECT group_index FROM qg)", "SELECT v FROM seed", 9},
		{"DELETE WHERE subquery", "DELETE FROM probe WHERE g IN (SELECT group_index FROM qg)", "SELECT COUNT(*) FROM probe", 1},
		// The two shapes the FROM-only walk already reached; no other test
		// reads a materialized view through them.
		{"set-operation arm", "SELECT g FROM probe WHERE g = 'z' UNION ALL SELECT group_index FROM qg", "count", 4},
		{"CTE", "WITH c AS (SELECT group_index FROM qg) SELECT COUNT(*) FROM c", "", 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, _ := setup(t)
			mustExec(t, db, "CREATE TABLE probe (g VARCHAR)")
			mustExec(t, db, "INSERT INTO probe VALUES ('a'), ('b'), ('z')")
			mustExec(t, db, "CREATE TABLE copy (g VARCHAR, v INTEGER)")
			mustExec(t, db, "CREATE TABLE seed (g VARCHAR, v INTEGER)")
			mustExec(t, db, "INSERT INTO seed VALUES ('a', 0)")
			mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
				SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
			mustExec(t, db, "CREATE VIEW pv AS SELECT group_index, total_value FROM qg")
			mustExec(t, db, "CREATE VIEW pvv AS SELECT group_index FROM pv")
			mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2), ('c', 3)")

			res := mustExec(t, db, c.stmt)
			switch c.read {
			case "":
			case "count":
				if got := int64(len(res.Rows)); got != c.want {
					t.Fatalf("%s returned %d rows, want %d (read the un-refreshed view)", c.stmt, got, c.want)
				}
				return
			default:
				res = mustExec(t, db, c.read)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].I != c.want {
				t.Fatalf("%s: got %v, want %d (read the un-refreshed view)", c.stmt, res.Rows, c.want)
			}
		})
	}
}
