package mvcc

import (
	"errors"
	"testing"

	"openivm/internal/metrics"
)

// counters reads m's txn.* counters through a registry.
func counters(m *Manager) map[string]int64 {
	r := metrics.New()
	m.Register(r)
	return r.Snapshot()
}

// memStore records ApplyCommit/ApplyAbort calls in order so tests can
// assert the manager's store protocol without a real table.
type memStore struct {
	commits [][]Op
	aborts  [][]Op
	tss     []uint64
	unpins  int
	order   *[]string
	name    string
}

func (s *memStore) Unpin() { s.unpins++ }

func (s *memStore) ApplyCommit(ops []Op, ts uint64) {
	s.commits = append(s.commits, ops)
	s.tss = append(s.tss, ts)
	if s.order != nil {
		*s.order = append(*s.order, "commit:"+s.name)
	}
}

func (s *memStore) ApplyAbort(ops []Op) {
	s.aborts = append(s.aborts, ops)
	if s.order != nil {
		*s.order = append(*s.order, "abort:"+s.name)
	}
}

func TestBeginCommitAdvancesClock(t *testing.T) {
	m := NewManager()
	if got := m.LatestTS(); got != 1 {
		t.Fatalf("fresh clock = %d, want 1", got)
	}
	tx := m.Begin()
	if tx.ReadTS != 1 {
		t.Fatalf("ReadTS = %d, want 1", tx.ReadTS)
	}
	st := &memStore{}
	tx.Log(st, Op{Kind: OpInsert, Slot: 0, Prev: -1})
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if got := m.LatestTS(); got != 2 {
		t.Fatalf("clock after commit = %d, want 2", got)
	}
	if len(st.commits) != 1 || st.tss[0] != 2 {
		t.Fatalf("store commits = %v at %v, want one at ts 2", st.commits, st.tss)
	}
	if st.unpins != 1 {
		t.Fatalf("store unpinned %d times, want 1", st.unpins)
	}
	if s := counters(m); s["txn.commits"] != 1 || s["txn.activeTxns"] != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestVisibility(t *testing.T) {
	m := NewManager()
	tx := m.Begin() // ReadTS 1
	other := m.Begin()

	snTx := tx.Snapshot()
	snCur := m.Current()

	// In-flight insert by tx: visible to tx, invisible to everyone else.
	begin := tx.StampID()
	if !snTx.Visible(begin, 0) {
		t.Error("own in-flight insert invisible to owner")
	}
	if snCur.Visible(begin, 0) {
		t.Error("in-flight insert visible to a plain snapshot")
	}
	if other.Snapshot().Visible(begin, 0) {
		t.Error("in-flight insert visible to a concurrent transaction")
	}

	// Own delete: invisible to owner, still visible to others.
	if snTx.Visible(1, tx.StampID()) {
		t.Error("own delete still visible to owner")
	}
	if !other.Snapshot().Visible(1, tx.StampID()) {
		t.Error("uncommitted delete hid the row from a concurrent reader")
	}

	// Committed stamps against the read timestamp.
	if !snTx.Visible(1, 0) {
		t.Error("old committed version invisible")
	}
	if snTx.Visible(2, 0) {
		t.Error("future committed version visible")
	}
	if snTx.Visible(1, 1) {
		t.Error("version deleted at ReadTS still visible")
	}
	if !snTx.Visible(1, 2) {
		t.Error("version deleted after ReadTS invisible")
	}
}

func TestCommitPublishesToNewSnapshotsOnly(t *testing.T) {
	m := NewManager()
	writer := m.Begin()
	st := &memStore{}
	writer.Log(st, Op{Kind: OpInsert, Slot: 0, Prev: -1})
	begin := writer.StampID()

	before := m.Current() // snapshot taken before the commit
	if err := m.Commit(writer); err != nil {
		t.Fatal(err)
	}
	// Storage restamps at commit; simulate the restamped version.
	committedAt := m.LatestTS()
	if before.Visible(committedAt, 0) {
		t.Error("pre-commit snapshot sees the new commit (non-repeatable read)")
	}
	if !m.Current().Visible(committedAt, 0) {
		t.Error("post-commit snapshot misses the commit")
	}
	// A TxnBit stamp of a committed-but-not-yet-restamped owner resolves
	// through the status table only while the status entry lives; after
	// Commit returns the entry is gone and the stamp must already be
	// restamped, so Visible treats it as aborted.
	if m.Current().Visible(begin, 0) {
		t.Error("stale TxnBit stamp of a finished txn resolved as visible")
	}
}

func TestCheckWritable(t *testing.T) {
	m := NewManager()
	tx := m.Begin()

	if err := m.CheckWritable(tx, 0); err != nil {
		t.Fatalf("live version not writable: %v", err)
	}
	if err := m.CheckWritable(tx, tx.StampID()); err != nil {
		t.Fatalf("own delete stamp not re-writable: %v", err)
	}
	if err := m.CheckWritable(tx, tx.ReadTS); err != nil {
		t.Fatalf("deletion visible to snapshot should be writable (dead row): %v", err)
	}

	// A live competitor's delete stamp is a conflict.
	rival := m.Begin()
	if err := m.CheckWritable(tx, rival.StampID()); !errors.Is(err, ErrSerialization) {
		t.Fatalf("live rival stamp: err = %v, want serialization", err)
	}
	// After the rival commits, its stamp resolves to a timestamp above
	// tx's snapshot: still a conflict (first committer won).
	if err := m.Commit(rival); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckWritable(tx, m.LatestTS()); !errors.Is(err, ErrSerialization) {
		t.Fatalf("committed-after-snapshot end stamp: err = %v, want serialization", err)
	}
	// An aborted rival's stamp is stale and writable.
	loser := m.Begin()
	stamp := loser.StampID()
	m.Abort(loser)
	if err := m.CheckWritable(tx, stamp); err != nil {
		t.Fatalf("aborted rival stamp: %v", err)
	}
}

func TestDoomedCommitAborts(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	st := &memStore{}
	tx.Log(st, Op{Kind: OpInsert, Slot: 3, Prev: -1})
	tx.Doom()
	err := m.Commit(tx)
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("commit of doomed txn: %v, want serialization failure", err)
	}
	if len(st.aborts) != 1 || len(st.commits) != 0 {
		t.Fatalf("store saw commits=%d aborts=%d, want 0/1", len(st.commits), len(st.aborts))
	}
	if got := m.LatestTS(); got != 1 {
		t.Fatalf("clock advanced on aborted commit: %d", got)
	}
	s := counters(m)
	if s["txn.conflictAborts"] != 1 || s["txn.activeTxns"] != 0 {
		t.Fatalf("stats = %+v, want 1 conflict abort, 0 active", s)
	}
	if !errors.Is(err, ErrSerialization) {
		t.Fatal("error does not unwrap to ErrSerialization")
	}
}

func TestAbortRevertsNewestStoreFirst(t *testing.T) {
	m := NewManager()
	var order []string
	a := &memStore{name: "a", order: &order}
	b := &memStore{name: "b", order: &order}
	tx := m.Begin()
	tx.Log(a, Op{Kind: OpInsert, Slot: 0, Prev: -1})
	tx.Log(b, Op{Kind: OpDelete, Slot: 1})
	m.Abort(tx)
	if len(order) != 2 || order[0] != "abort:b" || order[1] != "abort:a" {
		t.Fatalf("abort order = %v, want [abort:b abort:a]", order)
	}
}

func TestLogFirstPerStore(t *testing.T) {
	tx := NewManager().Begin()
	a, b := &memStore{}, &memStore{}
	if !tx.Log(a, Op{}) {
		t.Error("first op on store a not flagged")
	}
	if tx.Log(a, Op{}) {
		t.Error("second op on store a flagged as first")
	}
	if !tx.Log(b, Op{}) {
		t.Error("first op on store b not flagged")
	}
}

func TestWatermarkTracksOldestReader(t *testing.T) {
	m := NewManager()
	if w := m.Watermark(); w != 1 {
		t.Fatalf("idle watermark = %d, want 1", w)
	}
	old := m.Begin() // pins watermark at 1

	// Commits advance the clock but not the watermark past old's snapshot.
	for i := 0; i < 3; i++ {
		w := m.Begin()
		w.Log(&memStore{}, Op{})
		if err := m.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	if w := m.Watermark(); w != 1 {
		t.Fatalf("watermark with old txn active = %d, want 1", w)
	}
	m.Abort(old)
	if w, latest := m.Watermark(), m.LatestTS(); w != latest {
		t.Fatalf("watermark after release = %d, want %d", w, latest)
	}

	sn, release := m.AcquireSnapshot()
	if w := m.Watermark(); w != sn.ReadTS {
		t.Fatalf("watermark ignores registered snapshot: %d vs %d", w, sn.ReadTS)
	}
	next := m.Begin()
	next.Log(&memStore{}, Op{})
	if err := m.Commit(next); err != nil {
		t.Fatal(err)
	}
	if w := m.Watermark(); w != sn.ReadTS {
		t.Fatalf("watermark moved past a pinned snapshot: %d", w)
	}
	release()
	if w := m.Watermark(); w != m.LatestTS() {
		t.Fatalf("watermark stuck after release: %d", w)
	}
}

func TestOnlyActive(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if !m.OnlyActive(tx) {
		t.Error("sole txn not recognized as only active")
	}
	other := m.Begin()
	if m.OnlyActive(tx) {
		t.Error("two active txns but OnlyActive = true")
	}
	m.Abort(other)
	_, release := m.AcquireSnapshot()
	if m.OnlyActive(tx) {
		t.Error("registered snapshot ignored by OnlyActive")
	}
	release()
	if !m.OnlyActive(tx) {
		t.Error("released snapshot still blocks OnlyActive")
	}
	m.Abort(tx)
	if m.OnlyActive(tx) {
		t.Error("a finished txn still counts as the only active one")
	}
}

func TestVacuumRunsSweeper(t *testing.T) {
	m := NewManager()
	var gotW uint64
	m.SetSweeper(func(w uint64) int {
		gotW = w
		return 7
	})
	m.NoteDead(10)
	if n := m.Vacuum(); n != 7 {
		t.Fatalf("Vacuum = %d, want 7", n)
	}
	if gotW != m.LatestTS() {
		t.Fatalf("sweeper watermark = %d, want %d", gotW, m.LatestTS())
	}
	if s := counters(m); s["txn.gcVersions"] != 7 {
		t.Fatalf("txn.gcVersions = %d, want 7", s["txn.gcVersions"])
	}
}

func TestStatsOldestSnapshotAge(t *testing.T) {
	m := NewManager()
	if s := counters(m); s["txn.oldestSnapshotMS"] != 0 {
		t.Fatalf("idle txn.oldestSnapshotMS = %d, want 0", s["txn.oldestSnapshotMS"])
	}
	tx := m.Begin()
	if s := counters(m); s["txn.activeTxns"] != 1 || s["txn.oldestSnapshotMS"] < 0 {
		t.Fatalf("stats with one txn = %+v", s)
	}
	m.Abort(tx)
}
