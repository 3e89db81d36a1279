package exec

import (
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/plan"
	"openivm/internal/sqltypes"
)

// radixJoinCatalog builds a build-side table large enough to clear the
// parallel-build threshold and a probe side with matching, missing and
// NULL keys. Key skew: a few hot keys with many duplicates (bucket rest
// ordering), plus a long tail of distinct keys (several byteTable grow
// boundaries).
func radixJoinCatalog(t testing.TB, buildRows, probeRows int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mk := func(name, valCol string) *catalog.Table {
		tbl, err := c.CreateTable(name, []catalog.Column{
			{Name: "k", Type: sqltypes.TypeInt},
			{Name: valCol, Type: sqltypes.TypeInt},
		}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	bt, pt := mk("bld", "x"), mk("prb", "y")
	rng := rand.New(rand.NewSource(23))
	fill := func(tbl *catalog.Table, n int, seed int64) {
		rows := make([]sqltypes.Row, 0, n)
		for i := 0; i < n; i++ {
			var k sqltypes.Value
			switch rng.Intn(12) {
			case 0:
				k = sqltypes.Null // NULL keys never match
			case 1:
				k = sqltypes.NewInt(int64(rng.Intn(5))) // hot keys, many dups
			default:
				k = sqltypes.NewInt(int64(rng.Intn(8000)))
			}
			rows = append(rows, sqltypes.Row{k, sqltypes.NewInt(seed + int64(i))})
		}
		load(t, c, tbl, rows...)
	}
	fill(bt, buildRows, 0)
	fill(pt, probeRows, 1_000_000)
	return c
}

// TestRadixJoinMatchesSerial requires the radix-partitioned parallel build
// to produce output row-for-row identical — order included — to the serial
// build, across join kinds, NULL-heavy keys and duplicate-heavy buckets.
func TestRadixJoinMatchesSerial(t *testing.T) {
	c := radixJoinCatalog(t, 6000, 9000)
	queries := []string{
		"SELECT bld.k, bld.x, prb.y FROM bld JOIN prb ON bld.k = prb.k",
		"SELECT prb.k, prb.y, bld.x FROM prb LEFT JOIN bld ON prb.k = bld.k",
		"SELECT bld.k, bld.x, prb.y FROM bld RIGHT JOIN prb ON bld.k = prb.k",
		"SELECT bld.x, prb.y FROM bld FULL JOIN prb ON bld.k = prb.k",
		// residual predicate on top of the equi key
		"SELECT bld.k, prb.y FROM bld JOIN prb ON bld.k = prb.k AND bld.x < prb.y",
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
			if strings.Join(rowsToStrings(got), "\n") != strings.Join(rowsToStrings(want), "\n") {
				t.Fatalf("%s workers=%d diverged from serial (%d vs %d rows)",
					sql, workers, len(got), len(want))
			}
		}
	}
}

// TestRadixJoinBuildUsed pins that a past-threshold build side actually
// takes the partitioned build (and a small one stays serial), and that
// every partition holds its share of the keys.
func TestRadixJoinBuildUsed(t *testing.T) {
	c := radixJoinCatalog(t, 6000, 9000)
	open := func(workers int) *batchJoin {
		// The binder tops joins with a Project; open the Join node itself.
		var jn *plan.Join
		plan.Walk(bindSQL(t, c, "SELECT bld.x, prb.y FROM bld JOIN prb ON bld.k = prb.k"),
			func(n plan.Node) bool {
				if j, ok := n.(*plan.Join); ok {
					jn = j
				}
				return true
			})
		if jn == nil {
			t.Fatal("no Join node in plan")
		}
		it, err := OpenBatch(jn, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		bj, ok := it.(*batchJoin)
		if !ok {
			t.Fatalf("expected *batchJoin, got %T", it)
		}
		return bj
	}
	bj := open(4)
	if len(bj.parts) < 2 {
		t.Fatalf("parallel build produced %d partitions, want >= 2", len(bj.parts))
	}
	total := 0
	for pi := range bj.parts {
		part := &bj.parts[pi]
		total += part.table.len()
		// Every key landed in the partition its hash routes probes to.
		for e := int32(0); e < int32(part.table.len()); e++ {
			if int(hashBytes(part.table.keyAt(e))>>bj.radixShift) != pi {
				t.Fatalf("partition %d holds a key hashing to partition %d",
					pi, hashBytes(part.table.keyAt(e))>>bj.radixShift)
			}
		}
	}
	serial := open(1)
	if len(serial.parts) != 1 {
		t.Fatalf("workers=1 build produced %d partitions, want 1", len(serial.parts))
	}
	if total != serial.parts[0].table.len() {
		t.Fatalf("radix partitions hold %d distinct keys, serial build %d", total, serial.parts[0].table.len())
	}
}

// TestRadixJoinTinyBuildStaysSerial: below the fan-out threshold the build
// must not pay goroutine or partitioning overhead.
func TestRadixJoinTinyBuildStaysSerial(t *testing.T) {
	c := radixJoinCatalog(t, 300, 9000)
	var jn *plan.Join
	plan.Walk(bindSQL(t, c, "SELECT bld.x, prb.y FROM bld JOIN prb ON bld.k = prb.k"),
		func(n plan.Node) bool {
			if j, ok := n.(*plan.Join); ok {
				jn = j
			}
			return true
		})
	it, err := OpenBatch(jn, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	bj := it.(*batchJoin)
	if len(bj.parts) != 1 {
		t.Fatalf("300-row build side fanned out into %d partitions", len(bj.parts))
	}
	if bj.radixShift != 32 {
		t.Fatalf("serial build radixShift = %d, want 32", bj.radixShift)
	}
	// And it still answers correctly.
	if _, err := drain(bj, 0); err != nil {
		t.Fatal(err)
	}
}
