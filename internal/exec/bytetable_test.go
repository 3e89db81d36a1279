package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/sqltypes"
)

// randKeyRow produces a random row for key encoding, NULL-heavy on
// purpose: the encoded forms of NULL, numbers and strings exercise every
// tag branch of EncodeKey, and duplicate keys are frequent enough to hit
// both byteTable outcomes.
func randKeyRow(rng *rand.Rand) sqltypes.Row {
	r := make(sqltypes.Row, 2)
	for i := range r {
		switch rng.Intn(4) {
		case 0:
			r[i] = sqltypes.Null
		case 1:
			r[i] = sqltypes.NewInt(int64(rng.Intn(50)))
		case 2:
			r[i] = sqltypes.NewFloat(float64(rng.Intn(40)) / 8)
		default:
			r[i] = sqltypes.NewString(fmt.Sprintf("k%d", rng.Intn(60)))
		}
	}
	return r
}

// TestByteTableMatchesMap is the property test against the map-backed
// directory the byteTable replaced: over tens of thousands of NULL-heavy
// random keys — enough inserts to cross several grow/rehash boundaries
// starting from the minimum capacity — every getOrInsert and get must
// agree with a map[string]int32 assigning the same dense indexes.
func TestByteTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, hint := range []int{0, 3, 1024} {
		tab := newByteTable(hint)
		ref := make(map[string]int32)
		var buf []byte
		for i := 0; i < 30000; i++ {
			row := randKeyRow(rng)
			buf = sqltypes.EncodeKey(buf[:0], row...)

			wantIdx, wantPresent := ref[string(buf)]
			if !wantPresent {
				wantIdx = int32(len(ref))
				ref[string(buf)] = wantIdx
			}

			gotIdx, inserted := tab.getOrInsert(buf)
			if inserted == wantPresent {
				t.Fatalf("insert %d: inserted=%v, map says present=%v", i, inserted, wantPresent)
			}
			if gotIdx != wantIdx {
				t.Fatalf("insert %d: index %d, map says %d", i, gotIdx, wantIdx)
			}
			if idx, ok := tab.get(buf); !ok || idx != wantIdx {
				t.Fatalf("get after insert %d: (%d, %v), want (%d, true)", i, idx, ok, wantIdx)
			}
			if string(tab.keyAt(wantIdx)) != string(buf) {
				t.Fatalf("keyAt(%d) does not round-trip the key bytes", wantIdx)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("hint %d: table has %d entries, map has %d", hint, tab.len(), len(ref))
		}
		// Absent keys must miss.
		for i := 0; i < 100; i++ {
			buf = sqltypes.EncodeKey(buf[:0], sqltypes.NewString(fmt.Sprintf("absent-%d", i)))
			if _, ok := tab.get(buf); ok {
				t.Fatalf("absent key %d reported present", i)
			}
		}
	}
}

// TestByteTableZeroValue pins that the zero value is a working empty
// table (operators embed it without calling the constructor).
func TestByteTableZeroValue(t *testing.T) {
	var tab byteTable
	if _, ok := tab.get([]byte("x")); ok {
		t.Fatal("zero-value get reported a hit")
	}
	if idx, inserted := tab.getOrInsert([]byte("x")); !inserted || idx != 0 {
		t.Fatalf("zero-value insert = (%d, %v)", idx, inserted)
	}
	if idx, inserted := tab.getOrInsert([]byte("x")); inserted || idx != 0 {
		t.Fatalf("zero-value re-insert = (%d, %v)", idx, inserted)
	}
	// The empty key (a zero-column group) is a legal distinct key.
	if idx, inserted := tab.getOrInsert(nil); !inserted || idx != 1 {
		t.Fatalf("empty-key insert = (%d, %v)", idx, inserted)
	}
}

// TestByteTableSteadyStateAllocs: once a key is resident, probing it —
// hit-path getOrInsert included — allocates nothing. This is the property
// the map[string] directories could not give the insert path: with the
// byteTable, even first-time inserts amortize to slab appends.
func TestByteTableSteadyStateAllocs(t *testing.T) {
	tab := newByteTable(0)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = sqltypes.EncodeKey(nil, sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprint("g", i)))
		tab.getOrInsert(keys[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if _, inserted := tab.getOrInsert(k); inserted {
				t.Fatal("resident key re-inserted")
			}
			if _, ok := tab.get(k); !ok {
				t.Fatal("resident key missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state probes allocate: %v allocs/run, want 0", allocs)
	}
}

// TestAggregateZeroMapAllocsPerGroup is the per-group allocation guard for
// hash aggregation after the open-addressing switch: aggregating input
// with many distinct groups must not pay a per-group directory entry. The
// budget of 0.25 allocs per group covers only the amortized doubling of
// the key slab, state blocks and group arrays — a map-backed directory
// (>= 1 key-string allocation per group) fails it immediately.
func TestAggregateZeroMapAllocsPerGroup(t *testing.T) {
	const rows, groups = 4096, 2048
	c := catalog.New()
	tbl, err := c.CreateTable("big", []catalog.Column{
		{Name: "k", Type: sqltypes.TypeString},
		{Name: "v", Type: sqltypes.TypeInt},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		load(t, c, tbl, sqltypes.Row{
			sqltypes.NewString(fmt.Sprint("g", i%groups)),
			sqltypes.NewInt(int64(i)),
		})
	}
	n := bindSQL(t, c, "SELECT k, SUM(v), COUNT(*) FROM big GROUP BY k")
	var runErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunOpts(n, Options{}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if perGroup := allocs / groups; perGroup > 0.25 {
		t.Fatalf("aggregate allocs per group = %.3f (total %.0f), want <= 0.25", perGroup, allocs)
	}
}
