package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// nullHeavyCatalog builds a table whose columns are ~40% NULL across every
// vectorizable type, exercising the kernels' validity-bitmap paths.
func nullHeavyCatalog(t *testing.T, rows int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tbl, err := c.CreateTable("nh", []catalog.Column{
		{Name: "i", Type: sqltypes.TypeInt},
		{Name: "f", Type: sqltypes.TypeFloat},
		{Name: "s", Type: sqltypes.TypeString},
		{Name: "b", Type: sqltypes.TypeBool},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	maybe := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(5) < 2 {
			return sqltypes.Null
		}
		return v
	}
	for i := 0; i < rows; i++ {
		load(t, c, tbl, sqltypes.Row{
			maybe(sqltypes.NewInt(int64(rng.Intn(20) - 10))),
			maybe(sqltypes.NewFloat(float64(rng.Intn(100)) / 4)),
			maybe(sqltypes.NewString(fmt.Sprintf("s%d", rng.Intn(6)))),
			maybe(sqltypes.NewBool(rng.Intn(2) == 0)),
		})
	}
	return c
}

// runClassic executes the plan with the fused fast path disabled, by
// rebuilding the matched pipeline from the classic operators.
func runClassic(t *testing.T, n plan.Node, opts Options) []sqltypes.Row {
	t.Helper()
	scan, filters, proj, ok := plan.ScanPipeline(n)
	if !ok {
		t.Fatalf("plan is not a fusible pipeline:\n%s", plan.Explain(n))
	}
	var it BatchIterator = newBatchScan(scan, opts)
	for _, f := range filters {
		it = &batchFilter{in: it, pred: f}
	}
	if proj != nil {
		it = newBatchProject(it, proj, opts)
	}
	rows, err := drain(it, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// runFused executes the plan insisting on the fused operator.
func runFused(t *testing.T, n plan.Node, opts Options) []sqltypes.Row {
	t.Helper()
	scan, filters, proj, ok := plan.ScanPipeline(n)
	if !ok {
		t.Fatalf("plan is not a fusible pipeline:\n%s", plan.Explain(n))
	}
	fs, compiled := newFusedScan(scan, filters, proj, opts)
	if !compiled {
		t.Fatalf("pipeline did not compile to kernels:\n%s", plan.Explain(n))
	}
	rows, err := drain(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func bindSelect(t *testing.T, c *catalog.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFusedMatchesClassic drives NULL-heavy batches through the vector
// kernels and requires cell-for-cell agreement with the boxed row
// evaluator, across every supported operator class.
func TestFusedMatchesClassic(t *testing.T) {
	c := nullHeavyCatalog(t, 3000)
	queries := []string{
		// comparisons + AND/OR three-valued logic
		"SELECT i, f FROM nh WHERE i > 0 AND f < 20.0",
		"SELECT i FROM nh WHERE i > 2 OR b",
		"SELECT i FROM nh WHERE NOT (i >= 0)",
		// IS NULL / IS NOT NULL see the validity bitmap directly
		"SELECT i, s FROM nh WHERE s IS NULL",
		"SELECT i, s FROM nh WHERE i IS NOT NULL AND s IS NOT NULL",
		// arithmetic projections, including division by zero -> NULL
		"SELECT i + 1, i * 2, -i FROM nh WHERE i <> 3",
		"SELECT i / (i - 1), i % 2 FROM nh WHERE i IS NOT NULL",
		// int/float promotion both in filters and projections
		"SELECT i + f, f / 2 FROM nh WHERE i < f",
		// string comparisons and LIKE
		"SELECT s FROM nh WHERE s >= 's2'",
		"SELECT s FROM nh WHERE s LIKE 's%'",
		// bool column compared against literal
		"SELECT i FROM nh WHERE b = TRUE",
		// searched CASE (the IVM multiplicity shape), incl. missing ELSE
		"SELECT CASE WHEN b = FALSE THEN -i ELSE i END FROM nh WHERE i <> 0",
		"SELECT CASE WHEN i > 2 THEN f END FROM nh WHERE f IS NOT NULL",
		// simple CASE (with operand) rewrites to searched form: equality
		// matching incl. NULL operands (match nothing) and promotion
		"SELECT CASE i WHEN 1 THEN 10 WHEN 2 THEN 20 ELSE 0 END FROM nh WHERE i <> 0",
		"SELECT CASE s WHEN 's1' THEN i END FROM nh WHERE i IS NOT NULL",
		"SELECT CASE i WHEN f THEN 1 ELSE 0 END FROM nh WHERE b IS NOT NULL",
		// same-typed COALESCE and numeric CAST
		"SELECT COALESCE(i, 0) + 1 FROM nh WHERE i <> 1",
		"SELECT CAST(i AS DOUBLE) / 2, CAST(f AS INTEGER) FROM nh WHERE i IS NOT NULL",
		// filter-only pipeline (row-reference output, no projection)
		"SELECT i, f, s, b FROM nh WHERE i > 0",
	}
	for _, sql := range queries {
		for _, bs := range []int{7, 256, DefaultBatchSize} {
			opts := Options{BatchSize: bs}
			n := bindSelect(t, c, sql)
			got := runFused(t, n, opts)
			want := runClassic(t, bindSelect(t, c, sql), opts)
			if len(got) != len(want) {
				t.Fatalf("%s (bs=%d): fused %d rows, classic %d rows", sql, bs, len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("%s (bs=%d) row %d: fused %v, classic %v", sql, bs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFusedFallback verifies that pipelines outside the kernel compiler's
// reach still execute (through the classic chain) with identical results.
func TestFusedFallback(t *testing.T) {
	c := nullHeavyCatalog(t, 500)
	queries := []string{
		// Simple CASE whose rewritten arms mix result types stays boxed.
		"SELECT CASE i WHEN 1 THEN 10 ELSE 0.5 END FROM nh WHERE i <> 0",
		// Mixed-type COALESCE keeps the boxed first-non-NULL semantics.
		"SELECT COALESCE(f, 0) FROM nh WHERE f > 1.0",
		// Other scalar functions stay boxed.
		"SELECT ABS(i) FROM nh WHERE i <> 0",
		// BETWEEN keeps the boxed evaluator's NULL quirks
		"SELECT i FROM nh WHERE i BETWEEN 0 AND 5",
	}
	for _, sql := range queries {
		n := bindSelect(t, c, sql)
		scan, filters, proj, ok := plan.ScanPipeline(n)
		if !ok {
			t.Fatalf("plan shape changed for %s:\n%s", sql, plan.Explain(n))
		}
		if _, compiled := newFusedScan(scan, filters, proj, Options{BatchSize: 64}); compiled {
			t.Fatalf("expected kernel fallback for %s", sql)
		}
		// The public entry point must run the query either way.
		rows, err := Run(bindSelect(t, c, sql))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("no rows for %s", sql)
		}
	}
}

// TestFusedNonBooleanPredicate pins the fallback for WHERE clauses that
// are not boolean-typed: the kernel compiler must refuse them (reading a
// numeric vector as booleans would panic), and the classic path gives SQL
// its usual answer — a non-TRUE predicate keeps nothing.
func TestFusedNonBooleanPredicate(t *testing.T) {
	c := nullHeavyCatalog(t, 50)
	for _, sql := range []string{
		"SELECT i FROM nh WHERE i + 1",
		"SELECT i FROM nh WHERE i",
		"SELECT i FROM nh WHERE 1",
	} {
		n := bindSelect(t, c, sql)
		if scan, filters, proj, ok := plan.ScanPipeline(n); ok {
			if _, compiled := newFusedScan(scan, filters, proj, Options{BatchSize: 8}); compiled {
				t.Fatalf("non-boolean predicate compiled to a fused pipeline: %s", sql)
			}
		}
		rows, err := Run(bindSelect(t, c, sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(rows) != 0 {
			t.Fatalf("%s: non-boolean WHERE kept %d rows", sql, len(rows))
		}
	}
}

// TestFusedScanAllocs is the allocation guard for the fused
// Scan→Filter→Project loop: after the operator's fixed setup, producing
// more batches must not allocate — doubling the row count may not change
// the allocation count of a full drain. This is what "no intermediate
// batches" means operationally: the loop reuses its vectors, selection
// buffer and output batch for the whole scan.
func TestFusedScanAllocs(t *testing.T) {
	build := func(rows int) *catalog.Catalog {
		c := catalog.New()
		tbl, _ := c.CreateTable("big", []catalog.Column{
			{Name: "a", Type: sqltypes.TypeInt},
			{Name: "b", Type: sqltypes.TypeInt},
		}, nil, false)
		batch := make([]sqltypes.Row, 0, rows)
		for i := 0; i < rows; i++ {
			batch = append(batch, sqltypes.Row{
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10)),
			})
		}
		load(t, c, tbl, batch...)
		return c
	}
	const sql = "SELECT a + b, a * 2 FROM big WHERE b < 5"
	measure := func(c *catalog.Catalog) float64 {
		n := bindSelect(t, c, sql)
		scan, filters, proj, ok := plan.ScanPipeline(n)
		if !ok {
			t.Fatal("not a pipeline")
		}
		return testing.AllocsPerRun(10, func() {
			fs, compiled := newFusedScan(scan, filters, proj, Options{BatchSize: 256})
			if !compiled {
				t.Fatal("did not compile")
			}
			total := 0
			for {
				b, err := fs.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				// Consume columns directly; RowView would charge the
				// caller's materialization to the pipeline.
				total += b.Len()
			}
			if total == 0 {
				t.Fatal("no rows")
			}
		})
	}
	small, large := measure(build(2048)), measure(build(8192))
	if large > small {
		t.Fatalf("fused pipeline allocates per batch: %v allocs at 2048 rows vs %v at 8192", small, large)
	}
}

// TestJoinBuildSideSelection checks every join kind against a brute-force
// nested loop when the cost model picks either build side.
func TestJoinBuildSideSelection(t *testing.T) {
	c := catalog.New()
	small, _ := c.CreateTable("small", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	big, _ := c.CreateTable("big", []catalog.Column{{Name: "y", Type: sqltypes.TypeInt}}, nil, false)
	for i := 0; i < 3; i++ {
		load(t, c, small, sqltypes.Row{sqltypes.NewInt(int64(i * 2))}) // 0 2 4
	}
	load(t, c, small, sqltypes.Row{sqltypes.Null})
	for i := 0; i < 40; i++ {
		load(t, c, big, sqltypes.Row{sqltypes.NewInt(int64(i % 6))})
	}
	load(t, c, big, sqltypes.Row{sqltypes.Null})

	cases := []string{
		// small on the left: cost model builds left, probes right
		"SELECT small.x, big.y FROM small JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small LEFT JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small RIGHT JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small FULL OUTER JOIN big ON small.x = big.y",
		// small on the right: classic right-side build
		"SELECT big.y, small.x FROM big JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big LEFT JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big RIGHT JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big FULL OUTER JOIN small ON big.y = small.x",
	}
	for _, sql := range cases {
		got := sortedStrings(t, runSQL(t, c, sql))
		// Reference: the same join with the equi key obscured, forcing the
		// nested-loop path (no hash table, no build-side choice).
		ref := sortedStrings(t, runSQL(t, c, replaceEquals(sql)))
		if len(got) != len(ref) {
			t.Fatalf("%s: %d rows vs nested-loop %d", sql, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s row %d: %q vs %q", sql, i, got[i], ref[i])
			}
		}
	}
}

func sortedStrings(t *testing.T, rows []sqltypes.Row) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// replaceEquals rewrites "a = b" into "a + 0 = b" in the ON clause so the
// planner cannot extract equi keys (same trick as the existing hash-vs-loop
// test), keeping NULL semantics identical.
func replaceEquals(sql string) string {
	const on = " ON "
	for i := 0; i+len(on) <= len(sql); i++ {
		if sql[i:i+len(on)] == on {
			head, cond := sql[:i+len(on)], sql[i+len(on):]
			for j := 0; j+3 <= len(cond); j++ {
				if cond[j:j+3] == " = " {
					return head + cond[:j] + " + 0 = " + cond[j+3:]
				}
			}
		}
	}
	return sql
}
