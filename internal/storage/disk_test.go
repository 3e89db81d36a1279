package storage

import (
	"os"
	"path/filepath"
	"testing"

	"openivm/internal/enginerr"
	"openivm/internal/metrics"
	"openivm/internal/sqltypes"
)

// registered reads b's storage.* counters through a registry.
func registered(b Backend) map[string]int64 {
	r := metrics.New()
	b.Register(r)
	return r.Snapshot()
}

// memHandler replays records into an in-memory key/value model so the
// backend can be tested without an engine on top.
type memHandler struct {
	rows map[int64]int64 // k -> v for table "kv"
	snap *CheckpointData
}

func newMemHandler() *memHandler { return &memHandler{rows: map[int64]int64{}} }

func (h *memHandler) Checkpoint(s *CheckpointData) error {
	h.snap = s
	for _, t := range s.Tables {
		if t.Name != "kv" {
			continue
		}
		for _, r := range t.Rows {
			h.rows[r[0].I] = r[1].I
		}
	}
	return nil
}

func (h *memHandler) Commit(rec *CommitRecord) error {
	for _, op := range rec.Ops {
		switch op.Kind {
		case OpInsert, OpUpsert:
			h.rows[op.Row[0].I] = op.Row[1].I
		case OpDelete:
			delete(h.rows, op.Row[0].I)
		case OpTruncate:
			h.rows = map[int64]int64{}
		}
	}
	return nil
}

func (h *memHandler) DDL(*DDLRecord) error { return nil }

func kvCommit(ts uint64, k, v int64) *CommitRecord {
	return &CommitRecord{CommitTS: ts, Ops: []RedoOp{{
		Table: "kv", Kind: OpUpsert,
		Row: sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(v)},
	}}}
}

func TestDiskBackendReplay(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := int64(1); i <= 20; i++ {
		lsn, err := b.AppendCommit(kvCommit(uint64(i), i%5, i))
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := b.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	h := newMemHandler()
	if err := b2.Recover(h); err != nil {
		t.Fatal(err)
	}
	// k -> latest v with that k: k = i%5, v = i; latest i per residue.
	want := map[int64]int64{0: 20, 1: 16, 2: 17, 3: 18, 4: 19}
	for k, v := range want {
		if h.rows[k] != v {
			t.Fatalf("replayed rows = %v, want %v", h.rows, want)
		}
	}
	if n := registered(b2)["storage.recoveryReplayedRecords"]; n != 20 {
		t.Fatalf("storage.recoveryReplayedRecords = %d, want 20", n)
	}
	// Appends continue with fresh LSNs after recovery.
	lsn, err := b2.AppendCommit(kvCommit(21, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("post-recovery LSN = %d, want %d", lsn, last+1)
	}
	if err := b2.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBackendCheckpointPrunesLog(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if _, err := b.AppendCommit(kvCommit(uint64(i), i, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	lastLSN, err := b.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if lastLSN != 10 {
		t.Fatalf("BeginCheckpoint lastLSN = %d, want 10", lastLSN)
	}
	snap := &CheckpointData{
		LastLSN: lastLSN,
		LastTS:  10,
		Tables: []TableSnap{{
			Name:    "kv",
			Columns: []ColumnDef{{Name: "k", Type: sqltypes.TypeInt}, {Name: "v", Type: sqltypes.TypeInt}},
			Rows:    []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(10)}},
		}},
	}
	if err := b.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in a fresh segment.
	lsn, err := b.AppendCommit(kvCommit(11, 2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	h := newMemHandler()
	if err := b2.Recover(h); err != nil {
		t.Fatal(err)
	}
	if h.snap == nil || h.snap.LastLSN != 10 {
		t.Fatalf("checkpoint not loaded on recovery: %+v", h.snap)
	}
	if n := registered(b2)["storage.recoveryReplayedRecords"]; n != 1 {
		t.Fatalf("storage.recoveryReplayedRecords = %d, want only the post-checkpoint record", n)
	}
	if h.rows[1] != 10 || h.rows[2] != 20 {
		t.Fatalf("recovered rows = %v", h.rows)
	}
}

func TestDiskBackendTornTail(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := int64(1); i <= 5; i++ {
		if last, err = b.AppendCommit(kvCommit(uint64(i), i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("scanDir: %v %v", segs, err)
	}
	seg := segmentPath(dir, segs[len(segs)-1])
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record's frame in half: replay must stop cleanly at
	// record 4 and stay writable.
	if err := os.Truncate(seg, int64(len(img)-10)); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	h := newMemHandler()
	if err := b2.Recover(h); err != nil {
		t.Fatal(err)
	}
	if len(h.rows) != 4 {
		t.Fatalf("recovered rows = %v, want 4 intact commits", h.rows)
	}
	if lsn, err := b2.AppendCommit(kvCommit(9, 9, 9)); err != nil || lsn != 5 {
		t.Fatalf("append after torn tail: lsn=%d err=%v", lsn, err)
	}
}

func TestDiskBackendCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Recover(newMemHandler()); err != nil {
		t.Fatal(err)
	}
	// Force tiny segments so multiple get written.
	b.SegmentBytes = 64
	var last uint64
	for i := int64(1); i <= 12; i++ {
		if last, err = b.AppendCommit(kvCommit(uint64(i), i, i)); err != nil {
			t.Fatal(err)
		}
		if err := b.WaitDurable(last); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	// Flip a byte in the middle segment: damage before the tail is
	// corruption, not a torn tail.
	mid := segmentPath(dir, segs[len(segs)/2])
	img, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-3] ^= 0xff
	if err := os.WriteFile(mid, img, 0o644); err != nil {
		t.Fatal(err)
	}
	b2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	rerr := b2.Recover(newMemHandler())
	if rerr == nil {
		t.Fatal("corrupt middle segment recovered without error")
	}
	if enginerr.CodeOf(rerr) != enginerr.CodeRecoveryCorruption {
		t.Fatalf("corruption error code = %q, want %q", enginerr.CodeOf(rerr), enginerr.CodeRecoveryCorruption)
	}
}

func TestScanDirRemovesStrayTmp(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "checkpoint-00000001.owc.tmp")
	if err := os.WriteFile(stray, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray .tmp checkpoint survived scanDir")
	}
}
