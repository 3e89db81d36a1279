package exec

import (
	"strings"
	"testing"

	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// aggNodeFor digs the Aggregate node out of a bound plan (the binder tops
// aggregates with a Project).
func aggNodeFor(t *testing.T, n plan.Node) *plan.Aggregate {
	t.Helper()
	var agg *plan.Aggregate
	plan.Walk(n, func(n plan.Node) bool {
		if a, ok := n.(*plan.Aggregate); ok {
			agg = a
		}
		return true
	})
	if agg == nil {
		t.Fatal("no Aggregate node in plan")
	}
	return agg
}

// runAggRowPath executes the aggregate with the columnar path disabled, so
// tests can compare the two implementations row for row.
func runAggRowPath(n plan.Node, opts Options) ([]sqltypes.Row, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok {
		return RunOpts(n, opts)
	}
	in, err := openBatch(agg.Input, opts)
	if err != nil {
		return nil, err
	}
	it := newBatchAgg(in, agg, opts)
	it.col.state = colAggRefused
	return drain(it, 0)
}

// TestColumnarAggMatchesRowAgg is the row-path vs column-path equality
// property test: NULL-heavy input, every mergeable aggregate kind, CASE /
// COALESCE / arithmetic arguments, filtered and unfiltered pipelines, and
// a group count high enough to cross several byteTable grow boundaries.
// Output must match exactly — values and first-seen group order.
func TestColumnarAggMatchesRowAgg(t *testing.T) {
	c := groupCatalog(t, 12000)
	queries := []string{
		"SELECT g, SUM(v), COUNT(*), COUNT(v), MIN(v), MAX(v), AVG(v) FROM p GROUP BY g",
		"SELECT g, SUM(f), AVG(f) FROM p GROUP BY g",
		// kernel-evaluated aggregate arguments (the IVM multiplicity shape)
		"SELECT g, SUM(CASE WHEN v > 500 THEN -v ELSE v END) FROM p GROUP BY g",
		"SELECT g, SUM(COALESCE(v, 0)) FROM p GROUP BY g",
		// columnar batches from a fused filter pipeline
		"SELECT g, SUM(v), COUNT(*) FROM p WHERE v IS NOT NULL GROUP BY g",
		"SELECT g, AVG(f) FROM p WHERE v < 800 GROUP BY g",
		// computed group key
		"SELECT v % 10, COUNT(*) FROM p GROUP BY v % 10",
		// global aggregate (empty key)
		"SELECT SUM(v), COUNT(*), MIN(f), MAX(f) FROM p",
		// DISTINCT aggregates dedup identically on both paths
		"SELECT g, COUNT(DISTINCT v) FROM p GROUP BY g",
	}
	for _, sql := range queries {
		for _, bs := range []int{64, DefaultBatchSize} {
			opts := Options{BatchSize: bs}
			agg := aggNodeFor(t, bindSQL(t, c, sql))
			got, err := RunOpts(agg, opts)
			if err != nil {
				t.Fatalf("%s (bs=%d) columnar: %v", sql, bs, err)
			}
			want, err := runAggRowPath(agg, opts)
			if err != nil {
				t.Fatalf("%s (bs=%d) row path: %v", sql, bs, err)
			}
			if strings.Join(rowsToStrings(got), "\n") != strings.Join(rowsToStrings(want), "\n") {
				t.Fatalf("%s (bs=%d):\ncolumnar:\n%s\nrow path:\n%s", sql, bs,
					strings.Join(rowsToStrings(got), "\n"), strings.Join(rowsToStrings(want), "\n"))
			}
		}
	}
}

// TestColumnarAggMixedTypeCellsFallBack is the regression test for the
// row-lift type check: a derived column whose runtime cell types diverge
// from its declared type (a CASE whose branches mix INT and FLOAT —
// Expr.Type reports the first branch) must NOT be lifted into a typed
// vector, where the mismatched cells would silently degrade to NULL. The
// operator has to fall back to the boxed row path and keep the values.
func TestColumnarAggMixedTypeCellsFallBack(t *testing.T) {
	c := groupCatalog(t, 100)
	// x is declared INT (first CASE branch) but carries FLOAT 0.5 cells.
	sql := "SELECT x, COUNT(*) FROM (SELECT CASE WHEN v > 500 THEN 1 ELSE 0.5 END AS x FROM p WHERE v IS NOT NULL) AS s GROUP BY x"
	agg := aggNodeFor(t, bindSQL(t, c, sql))
	got, err := RunOpts(agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runAggRowPath(agg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(rowsToStrings(got), "\n") != strings.Join(rowsToStrings(want), "\n") {
		t.Fatalf("mixed-type group keys diverged:\ncolumnar: %v\nrow path: %v", got, want)
	}
	sawFloat := false
	for _, r := range got {
		if r[0].T == sqltypes.TypeFloat {
			sawFloat = true
		}
		if r[0].IsNull() {
			t.Fatalf("mixed-type cell degraded to NULL group key: %v", got)
		}
	}
	if !sawFloat {
		t.Fatalf("fixture lost its FLOAT group key: %v", got)
	}
}

// TestColumnarAggUsed pins that representative aggregate plans actually
// compile the columnar path (a silent fallback to the row loop must fail
// loudly), and that expressions outside the kernel compiler refuse it.
func TestColumnarAggUsed(t *testing.T) {
	c := groupCatalog(t, 6000)
	build := func(sql string) *batchAgg {
		agg := aggNodeFor(t, bindSQL(t, c, sql))
		in, err := openBatch(agg.Input, Options{BatchSize: DefaultBatchSize})
		if err != nil {
			t.Fatal(err)
		}
		it := newBatchAgg(in, agg, Options{BatchSize: DefaultBatchSize})
		if err := it.build(); err != nil {
			t.Fatal(err)
		}
		it.built = true
		return it
	}
	for _, sql := range []string{
		"SELECT g, SUM(v) FROM p GROUP BY g",
		"SELECT g, SUM(CASE WHEN v > 0 THEN v ELSE -v END), COUNT(*) FROM p GROUP BY g",
		"SELECT g, SUM(v) FROM p WHERE v IS NOT NULL GROUP BY g",
	} {
		if it := build(sql); it.col.state != colAggReady {
			t.Fatalf("%s: columnar agg path not taken (state %d)", sql, it.col.state)
		}
	}
	// ABS stays boxed, so the operator must refuse and fall back.
	if it := build("SELECT g, SUM(ABS(v)) FROM p GROUP BY g"); it.col.state != colAggRefused {
		t.Fatalf("ABS argument compiled unexpectedly (state %d)", it.col.state)
	}
}

// TestColumnarAggSteadyStateAllocs guards the columnar accumulation loop:
// once every group exists, folding another batch must not allocate.
func TestColumnarAggSteadyStateAllocs(t *testing.T) {
	c := groupCatalog(t, 6000)
	agg := aggNodeFor(t, bindSQL(t, c, "SELECT g, SUM(v), COUNT(*), AVG(f) FROM p GROUP BY g"))
	in, err := openBatch(agg.Input, Options{BatchSize: DefaultBatchSize})
	if err != nil {
		t.Fatal(err)
	}
	it := newBatchAgg(in, agg, Options{BatchSize: DefaultBatchSize})

	// One warm-up batch creates the groups and the kernel state.
	b, err := in.NextBatch()
	if err != nil || b == nil {
		t.Fatalf("no input batch (%v)", err)
	}
	it.table = newByteTable(0)
	if handled, err := it.accumulateColumnar(b); !handled || err != nil {
		t.Fatalf("columnar path unavailable (handled=%v err=%v)", handled, err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		if handled, err := it.accumulateColumnar(b); !handled || err != nil {
			t.Fatalf("columnar accumulate failed (handled=%v err=%v)", handled, err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("columnar agg loop allocates %.2f per batch in steady state, want 0", allocs)
	}
}

// TestEncodeCellMatchesEncodeKey pins the byte-level equivalence the
// columnar group-key path relies on, across every vector type and NULLs.
func TestEncodeCellMatchesEncodeKey(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.NewInt(-3), sqltypes.NewInt(0), sqltypes.NewInt(12345),
		sqltypes.NewFloat(-2.5), sqltypes.NewFloat(0), sqltypes.NewFloat(7.25),
		sqltypes.NewBool(true), sqltypes.NewBool(false),
		sqltypes.NewString(""), sqltypes.NewString("a\x00b"), sqltypes.NewString("group9"),
		sqltypes.Null,
	}
	for _, typ := range []sqltypes.Type{sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeBool, sqltypes.TypeString} {
		v := sqltypes.NewVector(typ, len(vals))
		for _, val := range vals {
			v.AppendValue(val)
		}
		for i := 0; i < v.Len(); i++ {
			got := v.EncodeCell(nil, i)
			want := sqltypes.EncodeKey(nil, v.ValueAt(i))
			if string(got) != string(want) {
				t.Fatalf("%v cell %d: EncodeCell %x, EncodeKey %x", typ, i, got, want)
			}
		}
	}
}
