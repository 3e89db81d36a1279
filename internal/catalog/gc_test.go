package catalog

import (
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
