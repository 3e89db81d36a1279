package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"openivm/internal/catalog"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// groupCatalog builds a table p(g, v, f) of rows rows, with NULLs
// sprinkled through both the group and value columns. Values stay small
// integers so float aggregates (AVG) are exact.
func groupCatalog(t testing.TB, rows int) *catalog.Catalog {
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

// waitGoroutines polls until the goroutine count drops back to at most
// base (plus slack for runtime background goroutines), failing after a
// generous deadline: a query must leave no goroutine behind.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not return to baseline: %d > %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLimitEarlyCloseNoLeak drives a full LIMIT plan through RunOpts —
// the engine path — over an aggregate (a pipeline breaker that drains its
// input) and asserts no goroutine survives the query.
func TestLimitEarlyCloseNoLeak(t *testing.T) {
	c := groupCatalog(t, 40000)
	base := runtime.NumGoroutine()
	rows, err := RunOpts(bindSQL(t, c, "SELECT g, SUM(v) FROM p GROUP BY g LIMIT 3"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(rows))
	}
	waitGoroutines(t, base)
}

// cancelAfter is a context that reports context.Canceled from its n-th Err
// call on: a cancellation that lands at a known point inside a long
// operator, without timing.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestContextCancelStopsQuery: a cancelled context must surface ctx.Err()
// from a long scan and a long aggregation, whether it was cancelled before
// the first batch or mid-stream.
func TestContextCancelStopsQuery(t *testing.T) {
	c := groupCatalog(t, 40000)
	agg := bindSQL(t, c, "SELECT g, SUM(v) FROM p GROUP BY g")
	scan := bindSQL(t, c, "SELECT g, v FROM p WHERE v >= 0")

	// Pre-cancelled context: even the first batch must refuse.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, n := range map[string]plan.Node{"aggregate": agg, "scan": scan} {
		if _, err := RunOpts(n, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled context returned %v, want context.Canceled", name, err)
		}
	}

	// Cancel after the first batch of a scan: the next batch must refuse.
	ctx2, cancel2 := context.WithCancel(context.Background())
	it, err := OpenBatch(scan, Options{BatchSize: 64, Ctx: ctx2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.NextBatch(); err != nil {
		t.Fatal(err)
	}
	cancel2()
	if b, err := it.NextBatch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel surfaced (%v, %v), want context.Canceled", b, err)
	}
	it.Close()

	// Cancel while the aggregation drains its 40 000-row input: the error
	// surfaces from the build, before any group is emitted.
	mid := &cancelAfter{Context: context.Background(), n: 100}
	if rows, err := RunOpts(agg, Options{BatchSize: 64, Ctx: mid}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel inside the aggregation returned %d rows, %v", len(rows), err)
	}
}

// TestCloseIdempotentAcrossOperators closes whole operator trees twice at
// several shapes (join, set op, sort, distinct) — double-close must be a
// no-op everywhere and half-drained children must be released.
func TestCloseIdempotentAcrossOperators(t *testing.T) {
	c := groupCatalog(t, 20000)
	base := runtime.NumGoroutine()
	queries := []string{
		"SELECT a.g, b.v FROM p AS a JOIN p AS b ON a.g = b.g LIMIT 1",
		"SELECT g FROM p WHERE v > 10 UNION SELECT g FROM p WHERE v < 5",
		"SELECT DISTINCT g FROM p ORDER BY g",
	}
	for _, sql := range queries {
		it, err := OpenBatch(bindSQL(t, c, sql), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.NextBatch(); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		it.Close()
		it.Close()
	}
	waitGoroutines(t, base)
}
