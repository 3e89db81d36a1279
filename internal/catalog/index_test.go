package catalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/enginerr"
	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// indexTable is a table keyed by id with two nullable columns a and b,
// indexed on (a) and on (b, a).
func indexTable(t *testing.T) autoTable {
	t.Helper()
	tbl, err := New().CreateTable("x", []Column{
		{Name: "id", Type: sqltypes.TypeInt, NotNull: true},
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "b", Type: sqltypes.TypeString},
	}, []string{"id"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range [][]string{{"a"}, {"b", "a"}} {
		if _, err := tbl.CreateIndex("x_"+strings.Join(ix, "_"), ix, false, false); err != nil {
			t.Fatal(err)
		}
	}
	return autoTable{tbl}
}

// TestIndexProbeMatchesScan is the secondary index's oracle: under a random
// history of inserts, updates (the key columns too), deletes, in-place
// upserts, aborted transactions, sweeps in place, compactions and
// truncates, a probe through either index at every held snapshot returns
// what a filtered scan at that snapshot returns for the probed key, in slot
// order: NULL keys, NULL-safe probes of them, and — with a hash that puts
// every key on one of four tags — keys that share a chain.
func TestIndexProbeMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		hash func([]byte) uint32
	}{{"hash", indexHash}, {"colliding", func(k []byte) uint32 { return uint32(len(k)) % 4 }}} {
		t.Run(tc.name, func(t *testing.T) {
			defer func(h func([]byte) uint32) { indexHash = h }(indexHash)
			indexHash = tc.hash
			for seed := int64(1); seed <= 6; seed++ {
				indexHistory(t, rand.New(rand.NewSource(seed)))
			}
		})
	}
}

func indexHistory(t *testing.T, rng *rand.Rand) {
	tbl := indexTable(t)
	val := func() sqltypes.Value {
		if rng.Intn(5) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewInt(int64(rng.Intn(5)))
	}
	str := func() sqltypes.Value {
		if rng.Intn(4) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewString(string(rune('p' + rng.Intn(3))))
	}
	nextID := int64(0)
	newRow := func() sqltypes.Row {
		nextID++
		return sqltypes.Row{sqltypes.NewInt(nextID), val(), str()}
	}
	someIDs := func(r sqltypes.Row) (bool, error) { return r[0].I%3 == int64(rng.Intn(3)), nil }
	reassign := func(r sqltypes.Row) (sqltypes.Row, error) {
		return sqltypes.Row{r[0], val(), str()}, nil
	}
	type held struct {
		sn      mvcc.Snapshot
		release func()
	}
	var snaps []held
	for step := 0; step < 150; step++ {
		switch op := rng.Intn(20); {
		case op < 6:
			rows := make([]sqltypes.Row, 1+rng.Intn(4))
			for i := range rows {
				rows[i] = newRow()
			}
			if err := tbl.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if _, _, err := tbl.Update(someIDs, reassign); err != nil {
				t.Fatal(err)
			}
		case op < 11:
			if _, err := tbl.Delete(someIDs); err != nil {
				t.Fatal(err)
			}
		case op < 13:
			// Replaces in place when no snapshot is held.
			r := sqltypes.Row{sqltypes.NewInt(1 + rng.Int63n(max(nextID, 1))), val(), str()}
			if err := tbl.Upsert(r); err != nil {
				t.Fatal(err)
			}
		case op < 15:
			tx := tbl.mv.Begin()
			if err := tbl.InsertTxn(tx, newRow()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := tbl.UpdateTxn(tx, nil, someIDs, reassign); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.DeleteTxn(tx, nil, someIDs); err != nil {
				t.Fatal(err)
			}
			tbl.mv.Abort(tx)
		case op < 17:
			tbl.mv.Vacuum()
		case op == 17:
			tbl.Truncate()
		case op == 18 && len(snaps) < 3:
			sn, release := tbl.mv.AcquireSnapshot()
			snaps = append(snaps, held{sn, release})
		case len(snaps) > 0:
			i := rng.Intn(len(snaps))
			snaps[i].release()
			snaps = append(snaps[:i], snaps[i+1:]...)
		}
		for _, h := range append(snaps, held{sn: tbl.mv.Current()}) {
			checkIndexProbes(t, tbl, h.sn, step)
		}
	}
	for _, h := range snaps {
		h.release()
	}
}

// checkIndexProbes probes both indexes at sn for every key over a's and
// b's values and NULL, plain and NULL-safe, against a filtered scan.
func checkIndexProbes(t *testing.T, tbl autoTable, sn mvcc.Snapshot, step int) {
	t.Helper()
	all := tbl.scan(sn, nil)
	as := []sqltypes.Value{sqltypes.Null}
	for a := int64(0); a < 5; a++ {
		as = append(as, sqltypes.NewInt(a))
	}
	bs := []sqltypes.Value{sqltypes.Null, sqltypes.NewString("p"), sqltypes.NewString("q"), sqltypes.NewString("r")}
	for _, cols := range [][]int{{1}, {2, 1}} {
		ki, ok := tbl.KeyIndexOn(cols)
		if !ok || ki.idx == nil {
			t.Fatalf("no secondary index on %v", cols)
		}
		// Probe rows are (a, b); at maps the index's columns onto them.
		at := []int{0}
		if len(cols) == 2 {
			at = []int{1, 0}
		}
		var probes []sqltypes.Row
		for _, a := range as {
			for _, b := range bs {
				probes = append(probes, sqltypes.Row{a, b})
			}
		}
		for _, nullSafe := range [][]bool{nil, {true, true}, {true, false}} {
			got, ends := tbl.ProbeKeys(sn, ki, probes, at, nullSafe)
			start := 0
			for i, p := range probes {
				var want []string
			rows:
				for _, r := range all {
					for k, c := range cols {
						v := p[at[k]]
						if v.IsNull() && (nullSafe == nil || !nullSafe[k]) || !sqltypes.Equal(r[c], v) {
							continue rows
						}
					}
					want = append(want, r.String())
				}
				var have []string
				for _, r := range got[start:ends[i]] {
					have = append(have, r.String())
				}
				start = ends[i]
				if strings.Join(have, " ") != strings.Join(want, " ") {
					t.Fatalf("step %d, index %s, probe %v (null-safe %v): got %v, want %v", step, ki.Name, p, nullSafe, have, want)
				}
			}
		}
	}
}

// TestIndexBytes bounds a secondary index: 4 bytes per slot of the table
// (the chain links) plus the head table's cells, at most 128/7 ≈ 18.3 bytes
// per distinct tag (8-byte cells, at least 7/16 full after growing) — after
// the inserts, after a compaction that rebuilds the chains, and with few
// keys or with as many keys as rows.
func TestIndexBytes(t *testing.T) {
	for _, keys := range []int{3, 97, 5000} {
		tbl := indexTable(t)
		rows := make([]sqltypes.Row, 5000)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % keys)), sqltypes.NewString("p")}
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			tbl.mu.RLock()
			defer tbl.mu.RUnlock()
			for _, idx := range tbl.indexes {
				tags := idx.heads.Len()
				heads := idx.heads.Bytes()
				if len(idx.next) != len(tbl.rows) || heads*7 > 128*tags && heads > 64 {
					t.Errorf("%d keys, %s: index %s holds %d links for %d slots and %d B of heads for %d tags",
						keys, when, idx.Name, len(idx.next), len(tbl.rows), heads, tags)
				}
			}
		}
		check("inserted")
		if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I%2 == 0, nil }); err != nil {
			t.Fatal(err)
		}
		tbl.mv.Vacuum() // half the slots are garbage: the sweep compacts
		if tbl.RowCount() != 2500 || len(tbl.rows) != 2500 {
			t.Fatalf("%d keys: %d rows in %d slots after the compaction", keys, tbl.RowCount(), len(tbl.rows))
		}
		check("compacted")
	}
}

// TestIndexWritesAllocateNothing: maintaining a secondary index costs an
// insert no allocation of its own — no key copy, no slice per key — beyond
// the growth of its arrays, which runs beside the row arrays' own.
func TestIndexWritesAllocateNothing(t *testing.T) {
	mk := func(i int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i % 7), sqltypes.NewString("p")}
	}
	measure := func(tbl autoTable) float64 {
		rows := make([]sqltypes.Row, 4096)
		for i := range rows {
			rows[i] = mk(int64(i))
		}
		if err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		tx := tbl.mv.Begin()
		defer tbl.mv.Abort(tx)
		i := int64(len(rows))
		return testing.AllocsPerRun(1000, func() {
			i++
			if err := tbl.InsertTxn(tx, mk(i)); err != nil {
				t.Fatal(err)
			}
		})
	}
	indexed, plain := indexTable(t), indexTable(t)
	for _, idx := range plain.Indexes() {
		plain.DropIndex(idx.Name)
	}
	base, got := measure(plain), measure(indexed)
	if got > base+0.05 {
		t.Errorf("an insert into a table with two secondary indexes allocates %.3f times, without them %.3f", got, base)
	}
}

// TestUniqueIndexHoldsOnEveryWrite: a unique index refuses a second live
// row of its key on every write path — insert, update, versioned and
// in-place upsert, delta replay — with 23505 and nothing applied, a key
// holding a NULL never conflicts, and a key whose holder retired in the
// same statement is free.
func TestUniqueIndexHoldsOnEveryWrite(t *testing.T) {
	tbl := indexTable(t)
	if _, err := tbl.CreateIndex("u", []string{"a"}, true, false); err != nil {
		t.Fatal(err)
	}
	r := func(id, a int64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(a), sqltypes.Null}
	}
	nullA := func(id int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(id), sqltypes.Null, sqltypes.Null} }
	for _, row := range []sqltypes.Row{r(1, 10), r(2, 20), nullA(3), nullA(4)} {
		if err := tbl.Insert(row); err != nil {
			t.Fatalf("insert %v: %v", row, err)
		}
	}
	// A failed statement's transaction aborts, as the engine's does.
	stmt := func(fn func(tx *mvcc.Txn) error) error {
		tx := tbl.mv.Begin()
		tx.SetAutoCommit(true)
		if err := fn(tx); err != nil {
			tbl.mv.Abort(tx)
			return err
		}
		return tbl.mv.Commit(tx)
	}
	duplicate := func(what string, err error) {
		t.Helper()
		if !enginerr.HasCode(err, enginerr.CodeDuplicateKey) {
			t.Errorf("%s: err %v, want 23505", what, err)
		}
	}
	upsert := func(row sqltypes.Row) func(tx *mvcc.Txn) error {
		return func(tx *mvcc.Txn) error {
			_, _, _, _, err := tbl.UpsertBatchTxn(tx, []sqltypes.Row{row}, nil, false)
			return err
		}
	}
	duplicate("insert", stmt(func(tx *mvcc.Txn) error { return tbl.InsertTxn(tx, r(5, 10)) }))
	duplicate("insert of two", stmt(func(tx *mvcc.Txn) error { return tbl.InsertBatchTxn(tx, []sqltypes.Row{r(6, 60), r(7, 60)}) }))
	duplicate("update", stmt(func(tx *mvcc.Txn) error {
		_, _, err := tbl.UpdateTxn(tx, nil, func(x sqltypes.Row) (bool, error) { return x[0].I == 2, nil },
			func(x sqltypes.Row) (sqltypes.Row, error) { return r(2, 10), nil })
		return err
	}))
	duplicate("in-place upsert", stmt(upsert(r(2, 10))))
	duplicate("upsert of a new key", stmt(upsert(r(8, 20))))
	duplicate("delta replay", stmt(func(tx *mvcc.Txn) error {
		return tbl.ApplyDeltasTxn(tx, []sqltypes.Row{r(9, 20)}, []bool{true})
	}))
	_, release := tbl.mv.AcquireSnapshot() // off the in-place path
	duplicate("versioned upsert", stmt(upsert(r(2, 10))))
	release()
	if got := fmt.Sprint(tbl.scan(mvcc.Snapshot{}, nil)); got != "[1|10|NULL 2|20|NULL 3|NULL|NULL 4|NULL|NULL]" {
		t.Errorf("refused writes left %s", got)
	}

	// NULLs are distinct; a key freed in the statement is free.
	if err := tbl.Insert(nullA(5)); err != nil {
		t.Errorf("a third NULL: %v", err)
	}
	if err := tbl.Upsert(r(2, 20)); err != nil {
		t.Errorf("an upsert keeping its own key: %v", err)
	}
	if _, _, err := tbl.Update(func(x sqltypes.Row) (bool, error) { return x[0].I == 1, nil },
		func(x sqltypes.Row) (sqltypes.Row, error) { return r(1, 11), nil }); err != nil {
		t.Errorf("an update to a free key: %v", err)
	}
	if err := tbl.write(func(tx *mvcc.Txn) error {
		return tbl.ApplyDeltasTxn(tx, []sqltypes.Row{r(1, 11), r(6, 11)}, []bool{false, true})
	}); err != nil {
		t.Errorf("a replay that retracts the key's holder first: %v", err)
	}
	if _, err := tbl.CreateIndex("u2", []string{"a"}, true, false); err != nil {
		t.Errorf("a unique index over NULLs: %v", err)
	}
}
