package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// parallelCatalog builds a table large enough to clear the parallel
// thresholds, with NULLs sprinkled through both the group and value
// columns. Values stay small integers so float aggregates (AVG) are exact
// regardless of combine order.
func parallelCatalog(t testing.TB, rows int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tbl, err := c.CreateTable("p", []catalog.Column{
		{Name: "g", Type: sqltypes.TypeString},
		{Name: "v", Type: sqltypes.TypeInt},
		{Name: "f", Type: sqltypes.TypeFloat},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	batch := make([]sqltypes.Row, 0, rows)
	for i := 0; i < rows; i++ {
		g := sqltypes.Value(sqltypes.NewString(fmt.Sprint("g", rng.Intn(97))))
		if rng.Intn(20) == 0 {
			g = sqltypes.Null
		}
		v := sqltypes.Value(sqltypes.NewInt(int64(rng.Intn(1000))))
		if rng.Intn(15) == 0 {
			v = sqltypes.Null
		}
		batch = append(batch, sqltypes.Row{g, v, sqltypes.NewFloat(float64(rng.Intn(64)) / 4)})
	}
	load(t, c, tbl, batch...)
	return c
}

func rowsToStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestParallelScanMatchesSerial runs scan pipelines (fused and classic
// fallbacks) at several worker counts and requires row-for-row equality —
// order included — with the serial plan: the partition-order merge must
// reproduce the exact serial stream.
func TestParallelScanMatchesSerial(t *testing.T) {
	c := parallelCatalog(t, 20000)
	queries := []string{
		// fused: kernels compile, row-reference output
		"SELECT g, v, f FROM p WHERE v % 7 = 0",
		// fused: projection kernels + late materialization
		"SELECT v + 1, f * 2 FROM p WHERE v < 500 AND g IS NOT NULL",
		// fused since PR 4: searched CASE compiles to a kernel
		"SELECT CASE WHEN v > 500 THEN 1 ELSE 0 END FROM p WHERE v IS NOT NULL",
		// classic fallback: BETWEEN does not compile to a kernel but is
		// ParallelSafe, so the classic chain runs over the morsel queue
		"SELECT g, v FROM p WHERE v BETWEEN 100 AND 700",
		// bare scan (no filter, no projection)
		"SELECT g, v, f FROM p",
	}
	for _, sql := range queries {
		want, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", sql, err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := RunOpts(bindSQL(t, c, sql), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sql, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d rows, serial %d", sql, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("%s workers=%d row %d: %v, serial %v", sql, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelScanUsed pins that the queries above actually take the
// parallel operator (a threshold change silently reverting everything to
// serial must fail loudly).
func TestParallelScanUsed(t *testing.T) {
	c := parallelCatalog(t, 20000)
	n := bindSQL(t, c, "SELECT g, v, f FROM p WHERE v % 7 = 0")
	it, err := OpenBatch(n, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*parallelScan); !ok {
		t.Fatalf("expected *parallelScan, got %T", it)
	}
	// The binder tops aggregates with a Project; open the Aggregate node
	// itself to observe the operator choice.
	var aggNode *plan.Aggregate
	plan.Walk(bindSQL(t, c, "SELECT g, SUM(v) FROM p GROUP BY g"), func(n plan.Node) bool {
		if a, ok := n.(*plan.Aggregate); ok {
			aggNode = a
		}
		return true
	})
	if aggNode == nil {
		t.Fatal("no Aggregate node in plan")
	}
	it, err = OpenBatch(aggNode, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*parallelAgg); !ok {
		t.Fatalf("expected *parallelAgg, got %T", it)
	}
	// Small snapshots stay serial even with workers requested.
	small := parallelCatalog(t, 512)
	it, err = OpenBatch(bindSQL(t, small, "SELECT g FROM p WHERE v > 3"), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*parallelScan); ok {
		t.Fatal("512-row scan went parallel; threshold not applied")
	}
}

// TestParallelAggMatchesSerial covers every mergeable aggregate kind over
// NULL-heavy groups, with and without filters, at several worker counts.
// Output must match the serial operator exactly, group order included
// (partition-order combine preserves first-seen order).
func TestParallelAggMatchesSerial(t *testing.T) {
	c := parallelCatalog(t, 20000)
	queries := []string{
		"SELECT g, SUM(v), COUNT(*), COUNT(v), MIN(v), MAX(v), AVG(v) FROM p GROUP BY g",
		"SELECT g, SUM(f), AVG(f) FROM p WHERE v IS NOT NULL GROUP BY g",
		// global aggregate, one combined row
		"SELECT SUM(v), COUNT(*), MIN(f), MAX(f) FROM p",
		// global aggregate over an empty filter result: default row
		"SELECT SUM(v), COUNT(*) FROM p WHERE v > 100000",
	}
	for _, sql := range queries {
		want, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", sql, err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := RunOpts(bindSQL(t, c, sql), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sql, workers, err)
			}
			g, w := rowsToStrings(got), rowsToStrings(want)
			if strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Fatalf("%s workers=%d:\ngot:\n%s\nwant:\n%s", sql, workers,
					strings.Join(g, "\n"), strings.Join(w, "\n"))
			}
		}
	}
}

// TestParallelAggDistinctStaysSerial: DISTINCT aggregate states cannot
// merge, so the planner-level check must refuse the parallel operator and
// the query still answers correctly through the serial path.
func TestParallelAggDistinctStaysSerial(t *testing.T) {
	c := parallelCatalog(t, 20000)
	sql := "SELECT g, COUNT(DISTINCT v) FROM p GROUP BY g"
	it, err := OpenBatch(bindSQL(t, c, sql), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*parallelAgg); ok {
		t.Fatal("DISTINCT aggregate went parallel")
	}
	want, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsToStrings(got), "\n") != strings.Join(rowsToStrings(want), "\n") {
		t.Fatal("DISTINCT aggregate results differ between worker settings")
	}
}

// TestParallelScanEarlyAbandon: a LIMIT directly over a scan pipeline
// stops pulling after a few rows, so the executor keeps that subtree
// serial (parallel workers would scan their whole partitions for
// nothing). Results must match the serial plan either way, and an
// abandoned parallelScan — exercised directly — must not deadlock.
func TestParallelScanEarlyAbandon(t *testing.T) {
	c := parallelCatalog(t, 20000)
	sql := "SELECT g, v FROM p WHERE v >= 0 LIMIT 5"
	want, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunOpts(bindSQL(t, c, sql), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsToStrings(got), "\n") != strings.Join(rowsToStrings(want), "\n") {
		t.Fatalf("LIMIT over parallel scan differs: %v vs %v", got, want)
	}

	// The serialization guard must see through chains of streaming
	// operators: DISTINCT under LIMIT still stops early, so its scan must
	// not fan out either.
	dl := bindSQL(t, c, "SELECT DISTINCT g FROM p WHERE v >= 0 LIMIT 3")
	it, err := OpenBatch(dl, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if lim, isLim := it.(*batchLimit); isLim {
		if dist, isDist := lim.in.(*batchDistinct); isDist {
			if _, isPar := dist.in.(*parallelScan); isPar {
				t.Fatal("LIMIT over DISTINCT fanned out the scan")
			}
		}
	}
	wantD, err := RunOpts(bindSQL(t, c, "SELECT DISTINCT g FROM p WHERE v >= 0 LIMIT 3"), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := RunOpts(dl, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsToStrings(gotD), "\n") != strings.Join(rowsToStrings(wantD), "\n") {
		t.Fatalf("DISTINCT+LIMIT differs: %v vs %v", gotD, wantD)
	}

	// Abandon a parallel scan mid-stream: Close must cancel the morsel
	// queue, wake workers parked on the bounded channel, and return only
	// after every worker exited — no deadlock, no goroutine left behind.
	scan, filters, proj, ok := plan.ScanPipeline(bindSQL(t, c, "SELECT g, v FROM p WHERE v >= 0"))
	if !ok {
		t.Fatal("not a pipeline")
	}
	ps, ok := newParallelScan(scan, filters, proj, Options{BatchSize: 64, Workers: 4})
	if !ok {
		t.Fatal("parallel scan refused")
	}
	if b, err := ps.NextBatch(); err != nil || b == nil || b.Len() == 0 {
		t.Fatalf("first batch = (%v, %v)", b, err)
	}
	ps.Close() // most of the stream unread; Close is the leak barrier
	ps.Close() // idempotent
}

// TestParallelScanErrorPropagates: a worker hitting an evaluation error
// must surface it through the merge stage.
func TestParallelScanErrorPropagates(t *testing.T) {
	c := parallelCatalog(t, 20000)
	tbl, err := c.Table("p")
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.NewScan(tbl, "")
	// A column reference past the row width errors at Eval time; it cannot
	// compile to a kernel, so the classic partitioned chain runs it.
	bad := &plan.Filter{Input: scan, Pred: &expr.Column{Idx: 99, Typ: sqltypes.TypeBool}}
	if _, err := RunOpts(bad, Options{Workers: 4}); err == nil {
		t.Fatal("worker evaluation error was swallowed")
	}
}

// TestParallelSafeRefusesStatefulExprs pins the expression-safety gate the
// classic partitioned chain depends on.
func TestParallelSafeRefusesStatefulExprs(t *testing.T) {
	if !expr.ParallelSafe(&expr.Binary{Op: "+", Left: &expr.Column{Idx: 0}, Right: &expr.Literal{Val: sqltypes.NewInt(1)}}) {
		t.Fatal("pure arithmetic reported unsafe")
	}
	// ScalarFunc hands its argument scratch between evaluators by atomic
	// swap, so COALESCE/ABS trees are admitted (the plan-cache breadth
	// fix); the scratch inside must not taint the tree.
	sf := &expr.ScalarFunc{Name: "COALESCE", Args: []expr.Expr{&expr.Column{Idx: 0}}}
	if !expr.ParallelSafe(sf) {
		t.Fatal("ScalarFunc (atomic scratch hand-off) reported unsafe")
	}
	if !expr.ParallelSafe(&expr.Binary{Op: "AND", Left: sf, Right: &expr.Column{Idx: 1}}) {
		t.Fatal("tree containing ScalarFunc reported unsafe")
	}
	// A ScalarFunc whose ARGUMENT is stateful still refuses.
	inq := &expr.InQuery{Operands: []expr.Expr{&expr.Column{Idx: 0}}}
	if expr.ParallelSafe(&expr.ScalarFunc{Name: "ABS", Args: []expr.Expr{inq}}) {
		t.Fatal("ScalarFunc over InQuery reported parallel-safe")
	}
	if expr.ParallelSafe(inq) {
		t.Fatal("InQuery (lazy cache) reported parallel-safe")
	}
	// A statement parameter only reads its binding, which stays put for the
	// length of an execution: workers may evaluate it side by side.
	p := &expr.Param{Index: 1, Binding: &expr.ParamBinding{}}
	if !expr.ParallelSafe(&expr.Binary{Op: "=", Left: &expr.Column{Idx: 0}, Right: p}) {
		t.Fatal("Param reported unsafe")
	}
}
