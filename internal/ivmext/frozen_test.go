package ivmext

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openivm/internal/catalog"
	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/fault"
	"openivm/internal/sqltypes"
)

// deltaOf returns the catalog table and the generation state of a delta
// table.
func deltaOf(t *testing.T, db *engine.DB, ext *Extension, name string) (*catalog.Table, *deltaState) {
	t.Helper()
	dt, err := db.Catalog().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	ext.mu.Lock()
	ds := ext.deltas[name]
	ext.mu.Unlock()
	if ds == nil {
		t.Fatalf("no generation state for %s", name)
	}
	return dt, ds
}

// generation snapshots a delta's generation state.
func generation(ds *deltaState) (frozen bool, gen int64, overflow int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.frozen, ds.gen, len(ds.overflow)
}

func wantPending(t *testing.T, db *engine.DB, step string, want int64) {
	t.Helper()
	if got := db.IVMStats().GenerationsPending; got != want {
		t.Fatalf("%s: GenerationsPending = %d, want %d", step, got, want)
	}
}

// TestCaptureOverlapsFrozenGeneration parks a propagation between its seal
// and its body and commits base writes meanwhile: the frozen ΔT must not
// move under the body, the writes must wait in the overflow, land in ΔT as
// the next open generation when the propagation consumes, and be applied
// by the next refresh.
func TestCaptureOverlapsFrozenGeneration(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	dt, ds := deltaOf(t, db, ext, "delta_groups")
	wantPending(t, db, "no deltas", 0)

	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('b', 2), ('c', 3)")
	if frozen, _, _ := generation(ds); frozen || dt.RowCount() != 3 {
		t.Fatalf("open generation: frozen=%v, ΔT rows=%d, want open with 3", frozen, dt.RowCount())
	}
	wantPending(t, db, "open generation", 1)

	// The delay holds the propagation after the seal, before its body.
	if err := fault.Activate(fault.IVMPropagateView, "delay(500ms)@times1"); err != nil {
		t.Fatal(err)
	}
	sealed := atomic.LoadInt64(&ext.Stats.GenerationsSealed)
	done := make(chan error, 1)
	go func() { done <- ext.Refresh("qg") }()
	for atomic.LoadInt64(&ext.Stats.GenerationsSealed) == sealed {
		time.Sleep(time.Millisecond)
	}

	s := db.NewSession()
	defer s.Close()
	for i := 0; i < 5; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO groups VALUES ('a', %d)", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	frozen, gen, overflow := generation(ds)
	if !frozen || gen != 1 {
		t.Fatalf("parked propagation: frozen=%v gen=%d, want frozen at generation 1", frozen, gen)
	}
	if dt.RowCount() != 3 || overflow != 5 {
		t.Fatalf("parked propagation: ΔT rows=%d overflow=%d, want ΔT untouched at 3 and 5 overflowed", dt.RowCount(), overflow)
	}
	wantPending(t, db, "frozen with overflow", 1)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	frozen, gen, overflow = generation(ds)
	if frozen || gen != 1 || overflow != 0 || dt.RowCount() != 5 {
		t.Fatalf("after consume: frozen=%v gen=%d overflow=%d ΔT rows=%d, want the 5 overflowed rows open in ΔT",
			frozen, gen, overflow, dt.RowCount())
	}
	wantPending(t, db, "next generation open", 1)
	// The parked propagation applied exactly the generation it sealed
	// (read through the catalog: a SELECT would lazily refresh).
	vt, err := db.Catalog().Table("qg")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range vt.Rows() {
		total += r[1].I
	}
	if total != 6 {
		t.Fatalf("view total after the parked propagation = %d, want 6 (generation 1 only)", total)
	}

	mustExec(t, db, "REFRESH MATERIALIZED VIEW qg")
	if _, gen, _ := generation(ds); gen != 2 || dt.RowCount() != 0 {
		t.Fatalf("after second refresh: gen=%d ΔT rows=%d, want generation 2 consumed", gen, dt.RowCount())
	}
	wantPending(t, db, "converged", 0)
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestCaptureOutlivesItsFrozenGeneration: a writer captures while ΔT is
// frozen and commits only after the propagation has consumed that
// generation and re-opened ΔT. Its rows belong to the open generation then
// — in ΔT, not in an overflow nobody moves any more — and the next refresh
// applies them.
func TestCaptureOutlivesItsFrozenGeneration(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	dt, ds := deltaOf(t, db, ext, "delta_groups")
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")

	// The propagation parks between its seal and its body; the writer's
	// COMMIT captures meanwhile, then a trigger after the capture holds the
	// writer's transaction open until the propagation is done.
	if err := fault.Activate(fault.IVMPropagateView, "delay(100ms)@times1"); err != nil {
		t.Fatal(err)
	}
	sealed := atomic.LoadInt64(&ext.Stats.GenerationsSealed)
	refreshed := make(chan error, 1)
	go func() { refreshed <- ext.Refresh("qg") }()
	for atomic.LoadInt64(&ext.Stats.GenerationsSealed) == sealed {
		time.Sleep(time.Millisecond)
	}
	var refreshErr error
	db.AddTrigger("groups", "hold", []engine.TriggerEvent{engine.TrigInsert},
		func(*engine.Session, string, engine.TriggerEvent, []sqltypes.Row, []sqltypes.Row) error {
			if frozen, _, _ := generation(ds); !frozen {
				t.Error("the capture did not overlap the frozen generation")
			}
			refreshErr = <-refreshed
			return nil
		})
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO groups VALUES ('a', 10), ('b', 20)", "COMMIT"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if refreshErr != nil {
		t.Fatal(refreshErr)
	}
	if frozen, gen, overflow := generation(ds); frozen || gen != 1 || overflow != 0 || dt.RowCount() != 2 {
		t.Fatalf("after the late commit: frozen=%v gen=%d overflow=%d ΔT rows=%d, want its 2 rows open in ΔT",
			frozen, gen, overflow, dt.RowCount())
	}
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestFailedBodyLeavesGenerationFrozen fails the propagation body of one
// of two views sharing ΔT while writes keep arriving. The generation must
// stay frozen in ΔT with the failed view's marker trailing; the next
// refresh applies it to exactly the view that missed it, then the
// overflowed rows to both.
func TestFailedBodyLeavesGenerationFrozen(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_cnt AS SELECT group_index,
		COUNT(*) AS n FROM groups GROUP BY group_index`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW v_sum AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`)
	dt, ds := deltaOf(t, db, ext, "delta_groups")
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 10)")

	// A group applies its views in name order: v_cnt lands, v_sum fails.
	if err := fault.Activate(fault.IVMPropagateView, "error(boom)@after1@times1"); err != nil {
		t.Fatal(err)
	}
	if err := ext.Refresh("v_sum"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("refresh error = %v, want the injected failure", err)
	}
	if frozen, gen, _ := generation(ds); !frozen || gen != 1 || dt.RowCount() != 3 {
		t.Fatalf("after failed body: frozen=%v gen=%d ΔT rows=%d, want generation 1 frozen with its 3 rows", frozen, gen, dt.RowCount())
	}
	cnt, sum := ext.view("v_cnt").applied[ds], ext.view("v_sum").applied[ds]
	if cnt != 1 || sum != 0 {
		t.Fatalf("applied markers: v_cnt=%d v_sum=%d, want 1 and 0", cnt, sum)
	}

	// Writes keep arriving: they overflow, ΔT stays the failed generation.
	mustExec(t, db, "INSERT INTO groups VALUES ('b', 5), ('c', 7)")
	mustExec(t, db, "DELETE FROM groups WHERE group_value = 1")
	if _, _, overflow := generation(ds); overflow != 3 || dt.RowCount() != 3 {
		t.Fatalf("writes while frozen: overflow=%d ΔT rows=%d, want 3 and 3", overflow, dt.RowCount())
	}
	wantPending(t, db, "frozen after failure", 1)

	// Repair runs v_sum alone; the next generation then runs both.
	bodies := atomic.LoadInt64(&ext.Stats.Propagations)
	if err := ext.Refresh("v_cnt"); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&ext.Stats.Propagations) - bodies; got != 3 {
		t.Fatalf("repairing refresh ran %d bodies, want 3 (v_sum's repair, then both views)", got)
	}
	if frozen, gen, overflow := generation(ds); frozen || gen != 2 || overflow != 0 || dt.RowCount() != 0 {
		t.Fatalf("after repair: frozen=%v gen=%d overflow=%d ΔT rows=%d, want generation 2 consumed", frozen, gen, overflow, dt.RowCount())
	}
	wantPending(t, db, "repaired", 0)
	viewEquals(t, db, "group_index, n", "v_cnt",
		"SELECT group_index, COUNT(*) FROM groups GROUP BY group_index")
	viewEquals(t, db, "group_index, total_value", "v_sum",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
}

// TestExecutedScriptIsPrintedScript: for every query class and combine
// strategy, what a refresh prepares and executes is steps 1–3 of the
// script PropagateSQL prints — the same statement nodes — step 4 is the
// truncation the runtime does through the catalog, and the setup script
// creates exactly one delta table per base table.
func TestExecutedScriptIsPrintedScript(t *testing.T) {
	views := []struct{ name, def string }{
		{"m1", "SELECT x, v FROM a WHERE v > 0"},
		{"m2", "SELECT x, SUM(v) AS s, COUNT(*) AS n FROM a GROUP BY x"},
		{"m4", "SELECT a.x, a.v, b.w FROM a JOIN b ON a.x = b.x"},
		{"m5", "SELECT a.x, SUM(b.w) AS s FROM a JOIN b ON a.x = b.x GROUP BY a.x"},
	}
	for _, strat := range []string{"upsert_left_join", "union_regroup", "full_outer_join"} {
		db := engine.Open("printed", engine.DialectDuckDB)
		ext := Install(db)
		mustExec(t, db, "PRAGMA ivm_strategy = '"+strat+"'")
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
			if len(prepared) != 1 || prepared[comp.Body] == nil {
				t.Fatalf("[%s] %s: prepared bodies %v, want comp.Body alone", strat, v.name, prepared)
			}
			n := len(comp.Body.Stmts)
			if n == 0 || n >= len(comp.Propagate.Stmts) {
				t.Fatalf("[%s] %s: body has %d of the script's %d statements", strat, v.name, n, len(comp.Propagate.Stmts))
			}
			for i, st := range comp.Body.Stmts {
				if comp.Propagate.Stmts[i] != st {
					t.Errorf("[%s] %s: executed statement %d is not the printed script's node", strat, v.name, i)
				}
			}
			// The rest of the printed script is step 4 and nothing else.
			var truncated []string
			for _, st := range comp.Propagate.Stmts[n:] {
				del, ok := st.(*duckast.Delete)
				if !ok || del.Where != nil {
					t.Fatalf("[%s] %s: step 4 holds %s", strat, v.name, st.SQL(duckast.DialectDuckDB))
				}
				truncated = append(truncated, del.Table)
			}
			want := []string{comp.DeltaView}
			if comp.JoinDelta != "" {
				want = append(want, comp.JoinDelta)
			}
			want = append(want, deltaNames(comp)...)
			if strings.Join(truncated, ",") != strings.Join(want, ",") {
				t.Errorf("[%s] %s: step 4 truncates %v, want %v", strat, v.name, truncated, want)
			}
			setup := comp.SetupSQL()
			for _, b := range comp.Bases {
				if c := strings.Count(setup, "CREATE TABLE IF NOT EXISTS "+b.Delta+" ("); c != 1 {
					t.Errorf("[%s] %s: setup creates %s %d times", strat, v.name, b.Delta, c)
				}
			}
			// Every table step 4 truncates, plus V.
			if got := strings.Count(setup, "CREATE TABLE"); got != len(want)+1 {
				t.Errorf("[%s] %s: setup creates %d tables, want %d (one ΔT per base, V, scratch):\n%s", strat, v.name, got, len(want)+1, setup)
			}
		}
	}
}

// TestDropWhileFrozenLeavesNothingBehind drops the last view on a base
// while its ΔT is frozen by a failed propagation and captures are
// overflowing: no delta table, trigger or generation state may survive,
// and the names are free for a fresh view.
func TestDropWhileFrozenLeavesNothingBehind(t *testing.T) {
	db, ext := setup(t)
	defer fault.Reset()
	const view = `CREATE MATERIALIZED VIEW qg AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`
	mustExec(t, db, view)
	_, ds := deltaOf(t, db, ext, "delta_groups")
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 1)")
	if err := fault.Activate(fault.IVMPropagateView, "error(boom)@times1"); err != nil {
		t.Fatal(err)
	}
	if err := ext.Refresh("qg"); err == nil {
		t.Fatal("refresh with a failing body succeeded")
	}
	mustExec(t, db, "INSERT INTO groups VALUES ('b', 2)")
	if frozen, _, overflow := generation(ds); !frozen || overflow != 1 {
		t.Fatalf("before drop: frozen=%v overflow=%d, want a frozen, overflowing delta", frozen, overflow)
	}

	mustExec(t, db, "DROP VIEW qg")
	for _, tbl := range []string{"qg", "delta_groups", "delta_qg"} {
		if db.Catalog().HasTable(tbl) {
			t.Errorf("table %q survived DROP VIEW", tbl)
		}
	}
	ext.mu.Lock()
	left := len(ext.deltas) + len(ext.views)
	ext.mu.Unlock()
	if left != 0 {
		t.Errorf("%d extension state entries survived DROP VIEW", left)
	}
	wantPending(t, db, "dropped", 0)
	caught := atomic.LoadInt64(&ext.Stats.DeltasCaught)
	mustExec(t, db, "INSERT INTO groups VALUES ('c', 3)")
	if atomic.LoadInt64(&ext.Stats.DeltasCaught) != caught {
		t.Error("delta capture still active after drop")
	}

	mustExec(t, db, view)
	if _, fresh := deltaOf(t, db, ext, "delta_groups"); fresh == ds {
		t.Fatal("re-created view reuses the dropped delta's generation state")
	}
	mustExec(t, db, "INSERT INTO groups VALUES ('a', 4)")
	viewEquals(t, db, "group_index, total_value", "qg",
		"SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
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
