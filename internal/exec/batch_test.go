package exec

import (
	"fmt"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// bindSQL builds an optimizer-free plan for a SELECT against the catalog.
func bindSQL(t *testing.T, c *catalog.Catalog, sql string) plan.Node {
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

func TestBatchHintRespected(t *testing.T) {
	c := testCatalog(t) // 12 rows
	n := bindSQL(t, c, "SELECT k, v FROM nums")
	it, err := OpenBatch(n, Options{BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b.Rows))
	}
	want := []int{5, 5, 2}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes = %v, want %v", sizes, want)
		}
	}
}

func TestLeftJoinEmptyBuildSidePads(t *testing.T) {
	c := catalog.New()
	a, _ := c.CreateTable("a", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	c.CreateTable("b", []catalog.Column{{Name: "y", Type: sqltypes.TypeInt}}, nil, false)
	load(t, c, a, sqltypes.Row{sqltypes.NewInt(1)})
	load(t, c, a, sqltypes.Row{sqltypes.NewInt(2)})
	rows := runSQL(t, c, "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.y")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if !r[1].IsNull() {
			t.Fatalf("right side must be NULL-padded: %v", r)
		}
	}
	// Inner join against the empty side short-circuits to zero rows.
	if rows := runSQL(t, c, "SELECT a.x, b.y FROM a JOIN b ON a.x = b.y"); len(rows) != 0 {
		t.Fatalf("inner join with empty build side: %v", rows)
	}
}

// allocTable builds a table with nRows rows spread over nGroups keys.
func allocTable(t testing.TB, nRows, nGroups int) *catalog.Catalog {
	c := catalog.New()
	tbl, err := c.CreateTable("big", []catalog.Column{
		{Name: "k", Type: sqltypes.TypeString},
		{Name: "v", Type: sqltypes.TypeInt},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRows; i++ {
		load(t, c, tbl, sqltypes.Row{
			sqltypes.NewString(fmt.Sprint("g", i%nGroups)),
			sqltypes.NewInt(int64(i)),
		})
	}
	return c
}

// TestAggregateAllocsPerRow is the allocation-regression guard for the
// batched hash-aggregate inner loop: amortized allocations per input row
// must stay below a small constant (the loop itself allocates nothing;
// the budget covers per-group state and per-batch slabs).
func TestAggregateAllocsPerRow(t *testing.T) {
	const rows = 4096
	c := allocTable(t, rows, 16)
	n := bindSQL(t, c, "SELECT k, SUM(v) FROM big GROUP BY k")
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(n); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if perRow := allocs / rows; perRow > 0.5 {
		t.Fatalf("aggregate allocs per row = %.3f (total %.0f), want <= 0.5", perRow, allocs)
	}
}

// TestHashJoinAllocsPerRow guards the batched hash-join probe loop: with a
// small build side, amortized allocations per probe row must stay below a
// small constant.
func TestHashJoinAllocsPerRow(t *testing.T) {
	const probeRows = 4096
	c := allocTable(t, probeRows, 64)
	dim, err := c.CreateTable("dim", []catalog.Column{
		{Name: "k", Type: sqltypes.TypeString},
		{Name: "name", Type: sqltypes.TypeString},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		load(t, c, dim, sqltypes.Row{
			sqltypes.NewString(fmt.Sprint("g", i)),
			sqltypes.NewString(fmt.Sprint("name", i)),
		})
	}
	n := bindSQL(t, c, "SELECT big.v, dim.name FROM big JOIN dim ON big.k = dim.k")
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(n); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// Each probe row emits one output row; budget covers per-batch slabs,
	// the build table and the output slice growth.
	if perRow := allocs / probeRows; perRow > 1.0 {
		t.Fatalf("join allocs per row = %.3f (total %.0f), want <= 1.0", perRow, allocs)
	}
}

// TestDistinctAllocsPerRow guards the shared key-encoding helper used by
// DISTINCT and the set operations.
func TestDistinctAllocsPerRow(t *testing.T) {
	const rows = 4096
	c := allocTable(t, rows, 32)
	n := bindSQL(t, c, "SELECT DISTINCT k FROM big")
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(n); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if perRow := allocs / rows; perRow > 0.5 {
		t.Fatalf("distinct allocs per row = %.3f (total %.0f), want <= 0.5", perRow, allocs)
	}
}
