package catalog

import (
	"fmt"
	"runtime"
	"testing"

	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

func mustLookup(t *testing.T, tbl autoTable, id int64, name string) {
	t.Helper()
	r, ok := tbl.LookupPK(sqltypes.NewInt(id))
	if !ok || r[1].S != name {
		t.Fatalf("LookupPK(%d) = %v, %v; want name %q", id, r, ok, name)
	}
}

// A sweep that lands between a commit's publication and its commit hook
// must not renumber the slots the write log names: the hook builds the
// redo record from them.
func TestCommitHookSeesStableSlotsAcrossSweep(t *testing.T) {
	tbl := testTable(t)
	mgr := tbl.mv
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(row(i, "old", 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Half the table dies: once nothing pins it, a sweep compacts it.
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I < 5, nil }); err != nil {
		t.Fatal(err)
	}

	tx := mgr.Begin()
	for i := int64(100); i < 103; i++ {
		if err := tbl.InsertTxn(tx, row(i, "new", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, _, err := tbl.UpsertBatchTxn(tx, []sqltypes.Row{row(7, "new", 1)}, nil, false); err != nil {
		t.Fatal(err)
	}
	hookRan := false
	tx.CommitHook = func(uint64) {
		hookRan = true
		mgr.Vacuum() // the background sweep, forced into the window
		tx.Writes(func(_ mvcc.Store, ops []mvcc.Op) {
			for _, op := range ops {
				r := tbl.RowAt(op.Slot)
				if r == nil {
					t.Errorf("op %+v: slot emptied or renumbered under the commit hook", op)
					continue
				}
				want := "new"
				if op.Kind == mvcc.OpDelete {
					want = "old" // the version the upsert replaced
				}
				if r[1].S != want {
					t.Errorf("op %+v resolves to %v, want a %q row", op, r, want)
				}
			}
		})
	}
	if err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("commit hook did not run")
	}

	before := len(tbl.rows)
	mgr.Vacuum()
	if len(tbl.rows) >= before {
		t.Fatalf("unpinned sweep kept %d of %d slots", len(tbl.rows), before)
	}
	if got := tbl.RowCount(); got != 8 {
		t.Fatalf("RowCount = %d, want 8", got)
	}
	for _, id := range []int64{5, 6, 8, 9} {
		mustLookup(t, tbl, id, "old")
	}
	for _, id := range []int64{7, 100, 101, 102} {
		mustLookup(t, tbl, id, "new")
	}
}

// A sweep over a large table with a handful of dead versions empties
// them in place: its cost follows the garbage, not the table.
func TestSweepReclaimsInPlaceBelowThreshold(t *testing.T) {
	const n = 100_000
	tbl := testTable(t)
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = row(int64(i), "r", 0)
	}
	if err := tbl.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I%10_000 == 0, nil }); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reclaimed := tbl.mv.Vacuum()
	runtime.ReadMemStats(&after)
	if reclaimed != 10 {
		t.Fatalf("reclaimed %d versions, want 10", reclaimed)
	}
	// A remap alone would be 4 bytes per row, new arrays 48 more.
	if got := after.TotalAlloc - before.TotalAlloc; got > n {
		t.Fatalf("sweep of 10 dead versions allocated %d bytes on a %d-row table", got, n)
	}
	if len(tbl.rows) != n {
		t.Fatalf("slot array renumbered: %d slots", len(tbl.rows))
	}
	if _, ok := tbl.LookupPK(sqltypes.NewInt(20_000)); ok {
		t.Fatal("reclaimed key still indexed")
	}
	mustLookup(t, tbl, 20_001, "r")
	if err := tbl.Insert(row(20_000, "again", 0)); err != nil {
		t.Fatal(err)
	}
	mustLookup(t, tbl, 20_000, "again")

	// Past a quarter of the slot array, the sweep compacts.
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I%3 == 0, nil }); err != nil {
		t.Fatal(err)
	}
	tbl.mv.Vacuum()
	if len(tbl.rows) != tbl.RowCount() {
		t.Fatalf("%d slots for %d rows after a compacting sweep", len(tbl.rows), tbl.RowCount())
	}
	mustLookup(t, tbl, 20_000, "again")
	mustLookup(t, tbl, 99_998, "r")
	if _, ok := tbl.LookupPK(sqltypes.NewInt(99_999)); ok {
		t.Fatal("deleted key survived compaction")
	}
}

// An insert is aborted after a sweep reclaimed the dead version it was
// chained onto: the key's index entry must go, not point at the hole.
func TestAbortAfterPredecessorReclaimed(t *testing.T) {
	tbl := testTable(t)
	mgr := tbl.mv
	if err := tbl.Insert(row(1, "v1", 0)); err != nil {
		t.Fatal(err)
	}
	if !tbl.Retract(row(1, "v1", 0)) {
		t.Fatal("retraction missed")
	}
	tx := mgr.Begin()
	if err := tbl.InsertTxn(tx, row(1, "v2", 0)); err != nil {
		t.Fatal(err)
	}
	if n := mgr.Vacuum(); n != 1 { // pinned: v1 is emptied in place
		t.Fatalf("reclaimed %d, want 1", n)
	}
	mgr.Abort(tx)
	if tbl.pkIndex.Len() != 0 {
		t.Fatalf("index holds %d entries for an empty table", tbl.pkIndex.Len())
	}
	if err := tbl.Insert(row(1, "v3", 0)); err != nil {
		t.Fatal(err)
	}
	mgr.Vacuum() // two holes of three slots: compacts
	if len(tbl.rows) != 1 {
		t.Fatalf("%d slots after compaction, want 1", len(tbl.rows))
	}
	mustLookup(t, tbl, 1, "v3")
}

// TestCursorHoldsCompaction: a sweep that would compact the table runs
// between two batches of an open cursor. It leaves the slot numbering as it
// is, and the cursor returns exactly the rows visible at its open, the ones
// deleted since among them; the first sweep after the close compacts.
func TestCursorHoldsCompaction(t *testing.T) {
	tbl := testTable(t)
	mgr := tbl.mv
	for i := int64(0); i < 100; i++ {
		if err := tbl.Insert(row(i, "r", 0)); err != nil {
			t.Fatal(err)
		}
	}
	// 60 of the 100 slots die before the snapshot: garbage past a third.
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I < 60, nil }); err != nil {
		t.Fatal(err)
	}
	sn, release := mgr.AcquireSnapshot()
	defer release()
	want := fmt.Sprint(tbl.scan(sn, nil))

	var cur Cursor
	tbl.Open(&cur, sn, nil)
	defer cur.Close()
	got, more := cur.Next(nil, 2, nil)
	if len(got) != 2 || !more {
		t.Fatalf("first batch: %v, more %v", got, more)
	}
	if _, err := tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I%2 == 0, nil }); err != nil {
		t.Fatal(err)
	}
	slots := len(tbl.rows)
	mgr.Vacuum()
	if len(tbl.rows) != slots {
		t.Fatalf("a sweep under the open cursor renumbered %d slots into %d", slots, len(tbl.rows))
	}
	for more {
		got, more = cur.Next(got, 2, nil)
	}
	if fmt.Sprint(got) != want {
		t.Errorf("the cursor returned %v across the sweep, want the rows of its open %v", got, want)
	}
	if n := tbl.OpenScans(); n != 0 {
		t.Fatalf("an exhausted cursor still holds the table (%d)", n)
	}
	mgr.Vacuum()
	if len(tbl.rows) >= slots {
		t.Errorf("the first sweep after the close kept %d of %d slots", len(tbl.rows), slots)
	}
}

// TestSweepBesideBegin races a reader that begins transactions, a deleter
// that retires one version per commit (a delete and the key's reinsert, in
// one transaction) and forced sweeps. Every key is live at every
// timestamp, so each snapshot must see all of them: a Begin whose read
// timestamp was taken before a sweep's watermark saw the new transaction
// would lose the version its snapshot needs.
func TestSweepBesideBegin(t *testing.T) {
	const keys = 8
	tbl := testTable(t)
	mgr := tbl.mv
	for i := int64(0); i < keys; i++ {
		if err := tbl.Insert(row(i, "v", 0)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() { // deleter
		defer func() { done <- struct{}{} }()
		for n := int64(0); ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			k := n % keys
			tx := mgr.Begin()
			_, err := tbl.DeleteTxn(tx, nil, func(r sqltypes.Row) (bool, error) { return r[0].I == k, nil })
			if err == nil {
				err = tbl.InsertTxn(tx, row(k, "v", float64(n)))
			}
			if err != nil {
				mgr.Abort(tx)
				t.Error(err)
				return
			}
			if err := mgr.Commit(tx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // forced sweeps
		defer func() { done <- struct{}{} }()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.Vacuum()
				runtime.Gosched()
			}
		}
	}()
	var c Cursor
	for i := 0; i < 20_000 && !t.Failed(); i++ {
		tx := mgr.Begin()
		runtime.Gosched() // let a commit and a sweep run before the read
		tbl.Open(&c, tx.Snapshot(), nil)
		rows, _ := c.Next(nil, 1<<20, nil)
		c.Close()
		mgr.Abort(tx)
		if len(rows) != keys {
			t.Errorf("snapshot %d sees %d rows, want %d", tx.ReadTS, len(rows), keys)
		}
	}
	close(stop)
	<-done
	<-done
}
