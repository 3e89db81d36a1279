package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/enginerr"
	"openivm/internal/fault"
)

// wrapIO classifies a physical I/O failure (write, fsync, rename,
// directory sync — or an injected stand-in) as SQLSTATE 58030 so it
// surfaces over the wire as a class clients can act on, not a raw
// *os.PathError string. The engine keys its read-only degradation on
// this class. Wrapping nil returns nil.
func wrapIO(err error) error {
	return enginerr.Wrap(enginerr.CodeIOFailure, err)
}

// DiskBackend is the durable Backend: a write-ahead log of framed redo
// records plus columnar checkpoint files in a single data directory.
//
// Locking: mu is the append lock — it orders staging, segment rotation
// and checkpoints. flushMu serializes fsync batches: the first waiter
// through it becomes the group-commit leader and flushes everything
// staged so far; commits that queued behind it find their LSN already
// durable and return without touching the disk.
type DiskBackend struct {
	dir string

	mu        sync.Mutex // append lock: stage buffer, segment, LSN counter
	file      *os.File   // active segment
	fileBytes int64      // bytes written to the active segment
	seq       uint64     // active segment sequence number
	ckptSeq   uint64     // newest checkpoint sequence number
	nextLSN   uint64     // LSN the next record will receive
	stage     []byte     // framed records staged but not yet written
	stagedLSN uint64     // LSN of the last staged record
	recovered bool       // Recover has run; appends are legal
	closed    bool

	flushMu    sync.Mutex // group-commit leader election
	durableLSN atomic.Uint64
	flushErr   error // sticky: a failed fsync poisons the backend

	// CheckpointBytes is the log-volume threshold NeedCheckpoint trips
	// at. Set before use; defaults to 4 MiB.
	CheckpointBytes int64

	// SegmentBytes bounds one log segment; the log rotates to a fresh
	// segment past it. Defaults to 16 MiB.
	SegmentBytes int64

	lastCkptAt     time.Time
	bytesSinceCkpt int64

	// counters (atomic: Stats races with appenders)
	walBytes    atomic.Int64
	walRecords  atomic.Int64
	fsyncs      atomic.Int64
	batches     atomic.Int64
	checkpoints atomic.Int64
	replayedRec atomic.Int64
	replayedB   atomic.Int64
}

var _ Backend = (*DiskBackend)(nil)

// OpenDisk opens (creating if needed) a durable backend rooted at dir.
// Call Recover before any append.
func OpenDisk(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskBackend{
		dir:             dir,
		CheckpointBytes: 4 << 20,
		SegmentBytes:    16 << 20,
	}, nil
}

// Durable reports true: this backend persists.
func (b *DiskBackend) Durable() bool { return true }

// stageRecord frames payload into the stage buffer and assigns the
// next LSN. Caller holds mu.
func (b *DiskBackend) stageRecord(payload []byte) uint64 {
	lsn := b.nextLSN
	b.nextLSN++
	before := len(b.stage)
	b.stage = frameRecord(b.stage, payload)
	b.stagedLSN = lsn
	n := int64(len(b.stage) - before)
	b.walBytes.Add(n)
	b.walRecords.Add(1)
	b.bytesSinceCkpt += n
	return lsn
}

// AppendCommit stages one transaction's redo record. Called under the
// MVCC commit lock, so records enter in commit order.
func (b *DiskBackend) AppendCommit(rec *CommitRecord) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.appendableLocked(); err != nil {
		return 0, err
	}
	if err := fault.Inject(fault.WALAppend); err != nil {
		return 0, wrapIO(err)
	}
	lsn := b.nextLSN
	payload := appendCommitPayload(make([]byte, 0, 256), lsn, rec)
	return b.stageRecord(payload), nil
}

// AppendDDL stages a schema-change record and syncs it before
// returning — DDL is rare and pays its own fsync.
func (b *DiskBackend) AppendDDL(rec *DDLRecord) error {
	b.mu.Lock()
	if err := b.appendableLocked(); err != nil {
		b.mu.Unlock()
		return err
	}
	payload := appendDDLPayload(make([]byte, 0, 256), b.nextLSN, rec)
	lsn := b.stageRecord(payload)
	b.mu.Unlock()
	return b.WaitDurable(lsn)
}

func (b *DiskBackend) appendableLocked() error {
	if b.closed {
		return fmt.Errorf("storage: backend closed")
	}
	if !b.recovered {
		return fmt.Errorf("storage: append before Recover")
	}
	return nil
}

// WaitDurable blocks until every record with LSN <= lsn is on disk.
// Concurrent callers batch behind one leader's write+fsync.
func (b *DiskBackend) WaitDurable(lsn uint64) error {
	if b.durableLSN.Load() >= lsn {
		return nil
	}
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	if b.flushErr != nil {
		return b.flushErr
	}
	if b.durableLSN.Load() >= lsn {
		// A leader that ran while we queued covered our record.
		return nil
	}
	if err := b.flush(); err != nil {
		b.flushErr = err
		return err
	}
	if b.durableLSN.Load() < lsn {
		return fmt.Errorf("storage: flush did not cover lsn %d", lsn)
	}
	return nil
}

// flush writes and fsyncs everything staged. Caller holds flushMu.
func (b *DiskBackend) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

// flushLocked is flush with mu already held (the checkpoint path).
func (b *DiskBackend) flushLocked() error {
	if len(b.stage) == 0 {
		return nil
	}
	if b.file == nil {
		return fmt.Errorf("storage: no active segment")
	}
	if err := fault.Inject(fault.WALWrite); err != nil {
		if errors.Is(err, fault.ErrShortWrite) {
			// Simulate a torn write: a prefix of the batch reaches the
			// segment before the failure, exactly like a crash mid-write.
			// Recovery must treat the partial frame as a torn tail.
			b.file.Write(b.stage[:len(b.stage)/2])
		}
		return wrapIO(err)
	}
	if _, err := b.file.Write(b.stage); err != nil {
		return wrapIO(err)
	}
	if err := fault.Inject(fault.WALFsync); err != nil {
		return wrapIO(err)
	}
	if err := b.file.Sync(); err != nil {
		return wrapIO(err)
	}
	b.fileBytes += int64(len(b.stage))
	b.stage = b.stage[:0]
	b.fsyncs.Add(1)
	b.batches.Add(1)
	b.durableLSN.Store(b.stagedLSN)
	if b.fileBytes >= b.SegmentBytes {
		if err := b.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked closes the active segment and opens the next one.
func (b *DiskBackend) rotateLocked() error {
	if err := fault.Inject(fault.WALRotate); err != nil {
		return wrapIO(err)
	}
	if b.file != nil {
		if err := b.file.Close(); err != nil {
			return wrapIO(err)
		}
	}
	b.seq++
	f, err := createSegment(b.dir, b.seq)
	if err != nil {
		return wrapIO(err)
	}
	b.file = f
	b.fileBytes = 0
	return syncDir(b.dir)
}

// BeginCheckpoint freezes the log: the append lock is held until
// Checkpoint or EndCheckpoint, so the engine can assemble a snapshot
// that is consistent with the log position returned here.
func (b *DiskBackend) BeginCheckpoint() (uint64, error) {
	b.mu.Lock()
	if b.closed || !b.recovered {
		b.mu.Unlock()
		return 0, fmt.Errorf("storage: checkpoint on unready backend")
	}
	return b.nextLSN - 1, nil
}

// Checkpoint durably writes snap, discards the log prefix it covers,
// and releases the freeze taken by BeginCheckpoint.
func (b *DiskBackend) Checkpoint(snap *CheckpointData) error {
	defer b.mu.Unlock()
	img := encodeCheckpoint(snap)
	b.ckptSeq++
	final := checkpointPath(b.dir, b.ckptSeq)
	tmp := final + tmpSuffix
	if err := fault.Inject(fault.CkptWrite); err != nil {
		return wrapIO(err)
	}
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return wrapIO(err)
	}
	if f, err := os.Open(tmp); err == nil {
		serr := f.Sync()
		f.Close()
		if serr != nil {
			return wrapIO(serr)
		}
	} else {
		return wrapIO(err)
	}
	if err := fault.Inject(fault.CkptRename); err != nil {
		return wrapIO(err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return wrapIO(err)
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	// Every staged and written record has LSN <= snap.LastLSN (the log
	// was frozen while the snapshot was assembled), so the whole log
	// prefix is covered: drop the stage buffer, delete old segments and
	// checkpoints, and start a fresh segment.
	b.stage = b.stage[:0]
	b.durableLSN.Store(b.nextLSN - 1)
	if b.file != nil {
		b.file.Close()
		b.file = nil
	}
	segs, ckpts, err := scanDir(b.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(segmentPath(b.dir, s)); err != nil {
			return wrapIO(err)
		}
	}
	for _, c := range ckpts {
		if c < b.ckptSeq {
			os.Remove(checkpointPath(b.dir, c))
		}
	}
	if err := b.rotateLocked(); err != nil {
		return err
	}
	b.checkpoints.Add(1)
	b.lastCkptAt = time.Now()
	b.bytesSinceCkpt = 0
	return nil
}

// EndCheckpoint abandons a checkpoint attempt, releasing the freeze.
func (b *DiskBackend) EndCheckpoint() { b.mu.Unlock() }

// NeedCheckpoint reports whether log volume since the last checkpoint
// crossed the threshold.
func (b *DiskBackend) NeedCheckpoint() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytesSinceCkpt >= b.CheckpointBytes
}

// Recover loads the newest valid checkpoint and replays every log
// record after it into h, in LSN order. A torn tail (crash mid-write)
// ends replay cleanly; damage before the tail is CodeRecoveryCorruption.
// After Recover returns the backend is ready for appends.
func (b *DiskBackend) Recover(h RecoveryHandler) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.recovered {
		return fmt.Errorf("storage: Recover called twice")
	}
	segs, ckpts, err := scanDir(b.dir)
	if err != nil {
		return err
	}

	// Newest checkpoint that decodes cleanly wins; an unreadable newest
	// checkpoint falls back to the previous one (its covered log
	// segments were deleted only after the newer one was durable, so
	// falling back is safe only when the newer write never completed —
	// which is exactly when its CRC fails).
	var snap *CheckpointData
	for i := len(ckpts) - 1; i >= 0; i-- {
		img, rerr := os.ReadFile(checkpointPath(b.dir, ckpts[i]))
		if rerr != nil {
			return rerr
		}
		s, derr := decodeCheckpoint(img)
		if derr != nil {
			continue
		}
		snap = s
		b.ckptSeq = ckpts[i]
		break
	}
	if len(ckpts) > 0 && b.ckptSeq < ckpts[len(ckpts)-1] {
		b.ckptSeq = ckpts[len(ckpts)-1] // never reuse a damaged file's seq
	}

	maxLSN := uint64(0)
	if snap != nil {
		maxLSN = snap.LastLSN
		if err := h.Checkpoint(snap); err != nil {
			return err
		}
	}

	for i, seg := range segs {
		img, rerr := os.ReadFile(segmentPath(b.dir, seg))
		if rerr != nil {
			return rerr
		}
		last := i == len(segs)-1
		payloads, torn, serr := segmentRecords(img)
		if serr != nil {
			if last {
				// A crash can tear even the magic header of a freshly
				// rotated tail segment; no intact record can follow it,
				// so replay simply stops here.
				if seg > b.seq {
					b.seq = seg
				}
				break
			}
			return enginerr.Wrap(enginerr.CodeRecoveryCorruption, serr)
		}
		for _, p := range payloads {
			rec, derr := DecodeRecord(p)
			if derr != nil {
				if last {
					// Undetected torn write at the tail: stop replay here.
					torn = true
					break
				}
				return derr
			}
			if rec.LSN <= maxLSN {
				continue // covered by the checkpoint
			}
			if rec.LSN != maxLSN+1 && maxLSN != 0 {
				return enginerr.Newf(enginerr.CodeRecoveryCorruption,
					"storage: log gap: record %d follows %d", rec.LSN, maxLSN)
			}
			maxLSN = rec.LSN
			switch {
			case rec.Commit != nil:
				err = h.Commit(rec.Commit)
			case rec.DDL != nil:
				err = h.DDL(rec.DDL)
			}
			if err != nil {
				return err
			}
			b.replayedRec.Add(1)
			b.replayedB.Add(int64(len(p)) + 8)
		}
		if torn && !last {
			return enginerr.Newf(enginerr.CodeRecoveryCorruption,
				"storage: torn record in non-final segment %d", seg)
		}
		if seg > b.seq {
			b.seq = seg
		}
	}

	// Appends continue in a fresh segment past any torn tail.
	b.nextLSN = maxLSN + 1
	b.durableLSN.Store(maxLSN)
	b.recovered = true
	b.lastCkptAt = time.Now()
	return b.rotateLocked()
}

// Stats returns the backend's counters.
func (b *DiskBackend) Stats() Stats {
	s := Stats{
		Durable:            true,
		WALBytes:           b.walBytes.Load(),
		WALRecords:         b.walRecords.Load(),
		Fsyncs:             b.fsyncs.Load(),
		GroupCommitBatches: b.batches.Load(),
		Checkpoints:        b.checkpoints.Load(),
		LastCheckpointMS:   -1,
		ReplayedRecords:    b.replayedRec.Load(),
		ReplayedBytes:      b.replayedB.Load(),
	}
	b.mu.Lock()
	if !b.lastCkptAt.IsZero() {
		s.LastCheckpointMS = time.Since(b.lastCkptAt).Milliseconds()
	}
	b.mu.Unlock()
	return s
}

// Close flushes staged records and releases the backend.
func (b *DiskBackend) Close() error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	var ferr error
	if b.recovered {
		ferr = b.flushLocked()
	}
	if b.file != nil {
		if cerr := b.file.Close(); ferr == nil {
			ferr = cerr
		}
		b.file = nil
	}
	b.closed = true
	return ferr
}
