// Package mvcc implements the transaction layer behind the catalog's
// row-version storage: monotonic commit timestamps, per-transaction
// write logs, first-updater-wins write-write conflict detection, read
// snapshots and the garbage-collection watermark behind the oldest
// active snapshot.
//
// # Version stamps
//
// Every row version carries two uint64 stamps, begin and end. A stamp
// is either a commit timestamp (high bit clear) or a transaction id
// tagged with TxnBit (high bit set) while its writer is still in
// flight. An end stamp of zero means the version is live (no deletion).
// At commit the manager restamps every slot in the transaction's write
// log with the allocated commit timestamp — under each table's write
// lock — so readers only ever resolve TxnBit stamps through the status
// table while the owner is uncommitted.
//
// # Visibility
//
// A snapshot is a read timestamp plus (for a writing transaction) the
// reader's own txn id. A version is visible iff its begin stamp is
// committed at or before the read timestamp (or is the reader's own
// uncommitted write) and its end stamp is absent, committed after the
// read timestamp, or owned by a different uncommitted transaction.
//
// # Commit protocol
//
// Commits serialize on commitMu: allocate lastTS+1, publish the commit
// in the status table, restamp the write log table by table, then
// advance lastTS. Readers snapshot lastTS, so a commit becomes visible
// atomically — never half-restamped — and commit visibility is
// monotonic in commit order.
package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/enginerr"
	"openivm/internal/metrics"
	"openivm/internal/sqltypes"
)

// TxnBit tags a stamp as an in-flight transaction id rather than a
// commit timestamp.
const TxnBit = uint64(1) << 63

// ErrSerialization is the distinct error class for snapshot-isolation
// write-write conflicts. Statements and COMMITs that lose a conflict
// wrap it; clients should ROLLBACK and retry the whole transaction. It
// is a classified sentinel: enginerr.CodeOf resolves it (and anything
// wrapping it) to SQLSTATE 40001 without string matching.
var ErrSerialization error = enginerr.New(enginerr.CodeSerialization, "serialization failure")

// Op is one write-log entry: a slot the transaction stamped in some
// store. Prev records the slot the store's primary-key index pointed at
// before an insert (-1 none), so abort can restore the mapping. Old is
// OpReplace's undo payload — the row the slot held before an in-place
// replacement. It is concretely typed (not `any`) so logging a replace
// does not box the slice header: the quiescent upsert path logs one Op
// per combined group, and boxing would put an allocation back on the
// path the fast path exists to flatten.
type Op struct {
	Kind OpKind
	Slot int32
	Prev int32
	Old  sqltypes.Row
}

// OpKind distinguishes write-log entries.
type OpKind uint8

// Write-log entry kinds.
const (
	OpInsert   OpKind = iota // slot holds a new version begin-stamped by the txn
	OpDelete                 // slot's end stamp was set by the txn
	OpReplace                // slot's value was replaced in place; Old holds the prior value
	OpTruncate               // the store was physically reset (Slot -1): nothing to restamp, nothing abort can restore
)

// Store is the storage-side half of the write log: a table that can
// restamp (commit) or revert (abort) the ops a transaction logged
// against it. A store that pinned its slot numbering on the
// transaction's first Log keeps it pinned until Unpin, which the manager
// calls once the write log is no longer read: after the CommitHook on
// commit, after ApplyAbort on abort. Implementations lock themselves;
// the manager never holds its own mutex while calling in.
type Store interface {
	ApplyCommit(ops []Op, commitTS uint64)
	ApplyAbort(ops []Op)
	Unpin()
}

// Txn is one in-flight transaction. It is single-goroutine, like the
// session that owns it; only the manager's structures are shared.
type Txn struct {
	ID     uint64 // raw id (without TxnBit)
	ReadTS uint64 // snapshot: commits with ts <= ReadTS are visible

	m      *Manager
	doomed bool // lost a write-write conflict; COMMIT must abort
	auto   bool // single-statement (autocommit) transaction

	// The write log, grouped per store. A transaction touches very few
	// stores (a statement txn usually exactly one), so the group lookup
	// is a linear scan over inline backing arrays — no map, and the
	// first ops of a statement allocate nothing but the op slice.
	stores    []Store
	ops       [][]Op
	storesArr [2]Store
	opsArr    [2][]Op

	// CommitHook, when set, runs inside Manager.Commit while the commit
	// mutex is held, after the transaction's commit timestamp is
	// published. Because commitMu serializes commits, hook invocations
	// across transactions happen in commit-timestamp order — the
	// property the write-ahead log relies on to append redo records in
	// commit order (a crash then truncates a suffix of the commit
	// sequence, never a hole in the middle). The hook must be fast and
	// must not re-enter the manager.
	CommitHook func(commitTS uint64)
}

// SetAutoCommit marks tx as a single-statement transaction (on) that
// commits the moment its statement's write ends, barring a conflict doom,
// or clears the mark. Stores use it to enable quiescent fast paths whose
// visibility window must not outlive one statement; a statement that can
// still abort after its write — its trigger handlers have yet to run in tx
// — clears it first.
func (tx *Txn) SetAutoCommit(on bool) { tx.auto = on }

// AutoCommit reports whether tx is a single-statement transaction.
func (tx *Txn) AutoCommit() bool { return tx.auto }

// StampID returns the TxnBit-tagged stamp value writers store while the
// transaction is in flight.
func (tx *Txn) StampID() uint64 { return tx.ID | TxnBit }

// Snapshot returns the transaction's read snapshot.
func (tx *Txn) Snapshot() Snapshot {
	return Snapshot{ReadTS: tx.ReadTS, TxnID: tx.ID, M: tx.m}
}

// Log appends op to the transaction's write log for store, reporting
// whether this is the first op against that store (callers use it to
// pin the store against compaction). Callers hold the store's write
// lock, which is what serializes Log for a given store.
func (tx *Txn) Log(store Store, op Op) (first bool) {
	i := -1
	for j, s := range tx.stores {
		if s == store {
			i = j
			break
		}
	}
	if i < 0 {
		if tx.stores == nil {
			tx.stores = tx.storesArr[:0]
			tx.ops = tx.opsArr[:0]
		}
		i = len(tx.stores)
		tx.stores = append(tx.stores, store)
		tx.ops = append(tx.ops, nil)
		first = true
	}
	tx.ops[i] = append(tx.ops[i], op)
	return first
}

// Writes calls f once per store the transaction has logged ops
// against, in first-touch order. The redo-capture path uses it to
// derive a write-ahead-log record from the undo log at commit time; f
// must not log further ops.
func (tx *Txn) Writes(f func(store Store, ops []Op)) {
	for i, s := range tx.stores {
		f(s, tx.ops[i])
	}
}

// Ops returns how many ops the write log holds: a statement that fails
// after the count moved has written something.
func (tx *Txn) Ops() int {
	n := 0
	for _, ops := range tx.ops {
		n += len(ops)
	}
	return n
}

// Doom marks the transaction as having lost a conflict: its COMMIT will
// abort with ErrSerialization. Statements that return a serialization
// error doom their transaction so a client ignoring the error cannot
// commit a half-applied statement.
func (tx *Txn) Doom() { tx.doomed = true }

// Doomed reports whether the transaction must abort at commit.
func (tx *Txn) Doomed() bool { return tx.doomed }

// Snapshot is a consistent read view: commits with ts <= ReadTS are
// visible, plus the reader's own uncommitted writes when TxnID != 0.
// The zero Snapshot (M == nil) means "latest": each read resolves the
// current last-committed timestamp at lock time — the legacy
// read-your-writes behavior engine-internal paths rely on.
type Snapshot struct {
	ReadTS uint64
	TxnID  uint64
	M      *Manager
}

// Visible reports whether a version [begin, end) is visible to the
// snapshot. Callers hold the owning table's lock (shared or exclusive),
// which keeps the stamps stable: restamping happens under the write
// lock.
func (sn Snapshot) Visible(begin, end uint64) bool {
	if begin&TxnBit != 0 {
		owner := begin &^ TxnBit
		if owner != sn.TxnID || sn.TxnID == 0 {
			ts, committed := sn.M.commitTS(owner)
			if !committed || ts > sn.ReadTS {
				return false
			}
		}
	} else if begin > sn.ReadTS {
		return false
	}
	if end == 0 {
		return true
	}
	if end&TxnBit != 0 {
		owner := end &^ TxnBit
		if owner == sn.TxnID && sn.TxnID != 0 {
			return false // own delete
		}
		ts, committed := sn.M.commitTS(owner)
		return !committed || ts > sn.ReadTS
	}
	return end > sn.ReadTS
}

// txnStatus tracks one in-flight (or committing) transaction in the
// status table.
type txnStatus struct {
	readTS    uint64
	commitTS  uint64 // nonzero once committed
	committed bool
	born      time.Time
}

// snapStatus tracks one registered read-only statement snapshot.
type snapStatus struct {
	readTS uint64
	born   time.Time
}

// Stats holds txn.* counters as engine.DB.TxnStats reads them from the
// registry (see Manager.Register).
type Stats struct {
	Commits, ConflictAborts, GCVersions uint64
}

// Manager allocates transaction ids and commit timestamps, tracks
// in-flight transactions and registered snapshots, and drives GC.
type Manager struct {
	lastTS atomic.Uint64 // last fully committed timestamp
	nextID atomic.Uint64 // txn id allocator

	// commitMu serializes commits: restamp + lastTS advance must be
	// atomic with respect to each other or a reader could observe a
	// half-visible commit across tables.
	commitMu sync.Mutex

	// mu guards status and snaps. Lock order: table mutex before mu —
	// visibility resolution takes mu under a table's lock, so the
	// manager never calls into a Store while holding mu.
	mu      sync.Mutex
	status  map[uint64]*txnStatus
	snaps   map[uint64]*snapStatus
	snapSeq uint64

	activeTxns     atomic.Int64
	commits        atomic.Int64
	conflictAborts atomic.Int64
	gcVersions     atomic.Int64

	// deadVersions estimates reclaimable versions; crossing gcEvery
	// triggers a background sweep. gcStuckAt suppresses re-triggering
	// while the watermark that blocked the last sweep has not advanced.
	deadVersions atomic.Int64
	gcRunning    atomic.Bool
	gcStuckAt    atomic.Uint64
	sweeper      func(watermark uint64) int
}

// gcEvery is the dead-version estimate that triggers a background
// sweep. Low enough that hot upsert loops (IVM combine steps) stay
// compacted, high enough that the sweep amortizes.
const gcEvery = 4096

// NewManager returns a manager with the timestamp clock at 1 (so a zero
// begin stamp, which cannot occur, would read as "committed before
// everything").
func NewManager() *Manager {
	m := &Manager{
		status: make(map[uint64]*txnStatus),
		snaps:  make(map[uint64]*snapStatus),
	}
	m.lastTS.Store(1)
	return m
}

// SetSweeper installs the storage-side GC sweep (the catalog walks its
// tables reclaiming versions dead behind the watermark, returning how
// many it freed). Must be called before concurrent use.
func (m *Manager) SetSweeper(fn func(watermark uint64) int) { m.sweeper = fn }

// LatestTS returns the last committed timestamp — the read timestamp a
// fresh snapshot gets.
func (m *Manager) LatestTS() uint64 { return m.lastTS.Load() }

// Current returns an unregistered latest-state snapshot. Safe for
// single-table reads (the row copy happens under one table lock);
// multi-table statements should use AcquireSnapshot so the GC watermark
// protects versions they have not read yet.
func (m *Manager) Current() Snapshot {
	return Snapshot{ReadTS: m.lastTS.Load(), M: m}
}

// Begin starts a transaction with a fresh read snapshot.
func (m *Manager) Begin() *Txn {
	id := m.nextID.Add(1)
	ts := m.lastTS.Load()
	m.mu.Lock()
	m.status[id] = &txnStatus{readTS: ts, born: time.Now()}
	m.mu.Unlock()
	m.activeTxns.Add(1)
	return &Txn{ID: id, ReadTS: ts, m: m}
}

// AcquireSnapshot registers a read-only statement snapshot and returns
// it with a release func. Registration holds the GC watermark at or
// before the snapshot's read timestamp until release, so a long scan
// (or a multi-table statement) never loses versions it still needs.
func (m *Manager) AcquireSnapshot() (Snapshot, func()) {
	m.mu.Lock()
	m.snapSeq++
	id := m.snapSeq
	ts := m.lastTS.Load()
	m.snaps[id] = &snapStatus{readTS: ts, born: time.Now()}
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		delete(m.snaps, id)
		m.mu.Unlock()
	}
	return Snapshot{ReadTS: ts, M: m}, release
}

// commitTS resolves an in-flight stamp's owner: (ts, true) once the
// owner has committed, (0, false) while it is active or after it
// aborted. A missing status entry reads as aborted — entries are only
// removed after every stamp is restamped (commit) or reverted (abort),
// and stamps are read under table locks that exclude both.
func (m *Manager) commitTS(owner uint64) (uint64, bool) {
	// The status fields must be copied under m.mu: Commit mutates them
	// in place while concurrent readers resolve stamps.
	m.mu.Lock()
	var committed bool
	var ts uint64
	if st, ok := m.status[owner]; ok {
		committed, ts = st.committed, st.commitTS
	}
	m.mu.Unlock()
	if !committed {
		return 0, false
	}
	return ts, true
}

// CheckWritable decides whether tx may end-stamp a version whose
// current end stamp is end. It implements first-updater-wins: a version
// already delete-stamped by a live competitor, or superseded by a
// commit after tx's snapshot, is a write-write conflict. The caller
// holds the table's write lock.
func (m *Manager) CheckWritable(tx *Txn, end uint64) error {
	if end == 0 {
		return nil
	}
	if end&TxnBit != 0 {
		owner := end &^ TxnBit
		if owner == tx.ID {
			return nil // re-stamping our own delete (second update in one txn)
		}
		m.mu.Lock()
		st, ok := m.status[owner]
		var committed bool
		var cts uint64
		if ok {
			committed, cts = st.committed, st.commitTS
		}
		m.mu.Unlock()
		if !ok {
			return nil // owner aborted and reverted; stamp is stale
		}
		if committed && cts <= tx.ReadTS {
			return nil
		}
		return fmt.Errorf("%w: row is write-locked by concurrent transaction", ErrSerialization)
	}
	if end <= tx.ReadTS {
		return nil // deletion visible to tx; version is dead to it anyway
	}
	return fmt.Errorf("%w: row was modified by a transaction committed after this snapshot", ErrSerialization)
}

// Commit atomically publishes the transaction's writes. A doomed
// transaction aborts instead and returns ErrSerialization.
func (m *Manager) Commit(tx *Txn) error {
	if tx.doomed {
		m.Abort(tx)
		return fmt.Errorf("%w: transaction lost a write-write conflict", ErrSerialization)
	}
	m.commitMu.Lock()
	ts := m.lastTS.Load() + 1
	m.mu.Lock()
	if st, ok := m.status[tx.ID]; ok {
		st.committed = true
		st.commitTS = ts
	}
	m.mu.Unlock()
	for i, store := range tx.stores {
		store.ApplyCommit(tx.ops[i], ts)
	}
	if tx.CommitHook != nil {
		tx.CommitHook(ts)
	}
	// Only now may a sweep renumber the slots the write log names: the
	// hook derives the redo record from them.
	for _, store := range tx.stores {
		store.Unpin()
	}
	m.lastTS.Store(ts)
	m.commitMu.Unlock()
	m.mu.Lock()
	delete(m.status, tx.ID)
	m.mu.Unlock()
	m.activeTxns.Add(-1)
	m.commits.Add(1)
	m.maybeGC()
	return nil
}

// WithCommitLock runs f while holding the commit mutex, excluding
// every Commit (including its ApplyCommit publication and CommitHook).
// The checkpoint protocol uses it to dump table state with no commit
// caught between publishing its writes and appending its log record —
// a window that would let a checkpoint double-count the commit. f must
// not commit or abort transactions.
func (m *Manager) WithCommitLock(f func()) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	f()
}

// Abort reverts the transaction's writes (newest store first, each
// store reverting its ops newest-first) and clears its status.
func (m *Manager) Abort(tx *Txn) {
	for i := len(tx.stores) - 1; i >= 0; i-- {
		tx.stores[i].ApplyAbort(tx.ops[i])
		tx.stores[i].Unpin()
	}
	m.mu.Lock()
	delete(m.status, tx.ID)
	m.mu.Unlock()
	m.activeTxns.Add(-1)
	if tx.doomed {
		m.conflictAborts.Add(1)
	}
	m.maybeGC()
}

// OnlyActive reports whether tx is the only active transaction and no
// statement snapshots are registered — the condition
// under which storage may take irreversible fast paths (physical
// truncate) without violating any concurrent snapshot. Callers must
// hold the relevant table's write lock so no new reader can slip in
// between the check and the fast path for THAT table; new transactions
// can still start, but they will take their snapshot after the fast
// path's effects and never observe the skipped versions.
func (m *Manager) OnlyActive(tx *Txn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.snaps) != 0 || len(m.status) != 1 {
		return false
	}
	_, ok := m.status[tx.ID]
	return ok
}

// Watermark returns the oldest read timestamp any active transaction or
// registered snapshot can observe; versions dead at or before it are
// unreachable and reclaimable.
func (m *Manager) Watermark() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watermarkLocked()
}

func (m *Manager) watermarkLocked() uint64 {
	w := m.lastTS.Load()
	for _, st := range m.status {
		if st.readTS < w {
			w = st.readTS
		}
	}
	for _, sn := range m.snaps {
		if sn.readTS < w {
			w = sn.readTS
		}
	}
	return w
}

// NoteDead adds to the reclaimable-version estimate. Stores call it while
// a commit or abort applies; that commit or abort triggers the background
// sweep once it has finished, when the versions it killed are past the
// watermark.
func (m *Manager) NoteDead(n int) {
	if n > 0 {
		m.deadVersions.Add(int64(n))
	}
}

// maybeGC spawns one background sweep when enough dead versions have
// accumulated and the watermark has moved since the last fruitless
// sweep.
func (m *Manager) maybeGC() {
	if m.sweeper == nil || m.deadVersions.Load() < gcEvery {
		return
	}
	w := m.Watermark()
	if w == m.gcStuckAt.Load() {
		return // same watermark that blocked the last sweep
	}
	if !m.gcRunning.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer m.gcRunning.Store(false)
		m.runSweep(w)
	}()
}

// runSweep performs one sweep at watermark w: the one its trigger saw, not
// whatever holds when the goroutine gets to run — so what a background
// sweep may reclaim is fixed when it is triggered, and a snapshot held
// across the trigger keeps its versions from it even if released before
// the sweep starts.
func (m *Manager) runSweep(w uint64) {
	n := m.sweeper(w)
	if n > 0 {
		m.gcVersions.Add(int64(n))
		m.deadVersions.Add(int64(-n))
		m.gcStuckAt.Store(0)
	} else {
		m.gcStuckAt.Store(w)
	}
}

// Vacuum runs one synchronous sweep (tests and explicit maintenance).
// It returns the number of versions reclaimed.
func (m *Manager) Vacuum() int {
	if m.sweeper == nil {
		return 0
	}
	w := m.Watermark()
	n := m.sweeper(w)
	if n > 0 {
		m.gcVersions.Add(int64(n))
		m.deadVersions.Add(int64(-n))
	}
	return n
}

// Register enters the manager's counters and gauges into r under txn.*.
func (m *Manager) Register(r *metrics.Registry) {
	r.Register("txn.commits", m.commits.Load)
	r.Register("txn.conflictAborts", m.conflictAborts.Load)
	r.Register("txn.gcVersions", m.gcVersions.Load)
	r.Register("txn.activeTxns", m.activeTxns.Load)
	r.Register("txn.oldestSnapshotMS", m.oldestSnapshotMS)
}

// oldestSnapshotMS is the age in milliseconds of the oldest active
// snapshot or transaction (0 when none is active): the GC watermark's
// distance into the past.
func (m *Manager) oldestSnapshotMS() int64 {
	m.mu.Lock()
	var oldest time.Time
	for _, st := range m.status {
		if oldest.IsZero() || st.born.Before(oldest) {
			oldest = st.born
		}
	}
	for _, sn := range m.snaps {
		if oldest.IsZero() || sn.born.Before(oldest) {
			oldest = sn.born
		}
	}
	m.mu.Unlock()
	if oldest.IsZero() {
		return 0
	}
	return max(time.Since(oldest).Milliseconds(), 0)
}
