package catalog

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// change is one entry of a change log: a row a commit inserted or deleted.
type change struct {
	ts     uint64
	row    sqltypes.Row
	insert bool
}

// ChangeLog is a tracked table's append-only record of its committed
// changes, in commit order: the table's delta between any two timestamps,
// kept without writing a row a second time. ApplyCommit appends one entry per
// row a commit inserted or deleted — an in-place replacement is its old row's
// deletion, then its new row's insertion — and each entry points at the
// stored row, which is never mutated. A delta table reads it
// (Table.ReadChanges) through the window of commit timestamps a refresh
// sets; Trim drops the entries every reader has passed.
type ChangeLog struct {
	mu      sync.Mutex
	entries []change // ascending ts
	last    atomic.Uint64

	// appended and stall are the tracker's counters (Table.Track).
	appended, stall *atomic.Int64
	// building counts the rows being built from entries outside mu.
	building int

	// The window (from, to] a refresh set for the delta table's scans, and
	// the rows built from its entries.
	windowed bool
	from, to uint64
	rows     []sqltypes.Row
}

// Track starts keeping the table's change log, or returns the one it
// keeps. Every entry a commit appends adds one to *appended, and a commit's
// wait for the log's lock adds to *stallNanos. A tracked table never takes
// the physical truncate: its deletions must reach the log.
func (t *Table) Track(appended, stallNanos *atomic.Int64) *ChangeLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.log.Load(); l != nil {
		return l
	}
	l := &ChangeLog{appended: appended, stall: stallNanos}
	t.log.Store(l)
	return l
}

// Untrack stops keeping the change log and drops it.
func (t *Table) Untrack() {
	t.mu.Lock()
	t.log.Store(nil)
	t.mu.Unlock()
}

// HoldInPlace keeps UpsertBatchTxn off its in-place path on t until the
// returned release runs, and returns once a transaction that took the path
// has published its commit: until then a snapshot sees its rows as if
// committed before it. Only one can be pending, since the path needs a
// writer that is the only transaction, and the hold lets no other start.
func (t *Table) HoldInPlace() (release func()) {
	t.mu.Lock()
	t.inPlaceHolds++
	for t.inPlaceTS > t.mv.LatestTS() {
		t.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		t.mu.Lock()
	}
	t.mu.Unlock()
	return func() { t.mu.Lock(); t.inPlaceHolds--; t.mu.Unlock() }
}

// Tracked reports whether the table keeps a change log.
func (t *Table) Tracked() bool { return t.log.Load() != nil }

// ReadChanges makes t the delta table of l: a scan returns l's entries as
// rows of the logged row's values and a multiplicity column (TRUE an
// insertion, FALSE a deletion) — the entries of the window a refresh set, or
// else every entry committed at the scan's snapshot — and t stores no rows
// of its own. The engine refuses writes to it, and it is never logged.
func (t *Table) ReadChanges(l *ChangeLog) { t.changes.Store(l) }

// ReadsChanges reports whether t is a change log's delta table.
func (t *Table) ReadsChanges() bool { return t.changes.Load() != nil }

// logChangesLocked appends what ops did to l at commit timestamp ts. The
// row of an op is what its slot holds after it: the Old of the slot's next
// in-place replacement in ops, else what the slot holds now — so ops are
// walked backwards. The caller holds the table's write lock.
func (t *Table) logChangesLocked(l *ChangeLog, ops []mvcc.Op, ts uint64) {
	if !l.mu.TryLock() {
		t0 := time.Now()
		l.mu.Lock()
		l.stall.Add(int64(time.Since(t0)))
	}
	defer l.mu.Unlock()
	n := len(l.entries)
	var next map[int32]sqltypes.Row // slot -> its row after the op walked
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.Slot < 0 || int(op.Slot) >= len(t.rows) {
			continue // a physical truncate: a tracked table never takes one
		}
		row, ok := next[op.Slot]
		if !ok {
			row = t.rows[op.Slot]
		}
		switch op.Kind {
		case mvcc.OpInsert, mvcc.OpDelete:
			l.entries = append(l.entries, change{ts, row, op.Kind == mvcc.OpInsert})
		case mvcc.OpReplace:
			l.entries = append(l.entries, change{ts, row, true}, change{ts, op.Old, false})
			if next == nil {
				next = map[int32]sqltypes.Row{}
			}
			next[op.Slot] = op.Old
		}
	}
	if len(l.entries) > n {
		slices.Reverse(l.entries[n:])
		l.last.Store(ts)
		l.appended.Add(int64(len(l.entries) - n))
	}
}

// LastTS returns the commit timestamp of the newest entry.
func (l *ChangeLog) LastTS() uint64 { return l.last.Load() }

// spanLocked returns the entries committed in (from, to].
func (l *ChangeLog) spanLocked(from, to uint64) []change {
	lo := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].ts > from })
	hi := lo + sort.Search(len(l.entries)-lo, func(i int) bool { return l.entries[lo+i].ts > to })
	return l.entries[lo:hi]
}

// SetWindow makes the delta table's scans return the entries committed in
// (from, to], built once into rows of one slab, and returns how many there
// are. Setting the window a scan already has costs nothing.
func (l *ChangeLog) SetWindow(from, to uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.windowed || l.from != from || l.to != to {
		rows := l.buildLocked(l.spanLocked(from, to))
		l.windowed, l.from, l.to, l.rows = true, from, to, rows
	}
	return len(l.rows)
}

// buildLocked builds the delta-table rows of span with mu released, so
// commits keep appending meanwhile: appends go past the end of span, and
// Trim reuses the array only while nothing is being built from it.
func (l *ChangeLog) buildLocked(span []change) []sqltypes.Row {
	l.building++
	l.mu.Unlock()
	defer func() { l.mu.Lock(); l.building-- }()
	return deltaRows(span)
}

// Trim ends the window, returning the delta table's scans to every
// committed entry, and drops the entries committed at or before upTo: every
// reader has applied them. With all of them gone and nothing built from the
// array, the array is reused; else dropping re-slices, and the append that
// outgrows the array leaves the dropped head to the collector.
func (l *ChangeLog) Trim(upTo uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.windowed, l.rows = false, nil
	k := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].ts > upTo })
	if k == len(l.entries) && l.building == 0 {
		clear(l.entries)
		k = 0
		l.entries = l.entries[:0]
	}
	l.entries = l.entries[k:]
}

// count returns how many rows scan(readTS) returns, without building them.
func (l *ChangeLog) count(readTS uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.windowed {
		return len(l.rows)
	}
	return len(l.spanLocked(0, readTS))
}

// scan returns the delta table's rows: the window's, else those of every
// entry committed at or before readTS.
func (l *ChangeLog) scan(readTS uint64) []sqltypes.Row {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.windowed {
		return l.rows[:len(l.rows):len(l.rows)]
	}
	return l.buildLocked(l.spanLocked(0, readTS))
}

// deltaRows builds the delta-table rows of entries in one slab: the logged
// row's values, then the multiplicity.
func deltaRows(entries []change) []sqltypes.Row {
	if len(entries) == 0 {
		return nil
	}
	w := len(entries[0].row) + 1
	slab := make([]sqltypes.Value, len(entries)*w)
	rows := make([]sqltypes.Row, len(entries))
	for i, e := range entries {
		r := sqltypes.Row(slab[i*w : (i+1)*w : (i+1)*w])
		copy(r, e.row)
		r[w-1] = sqltypes.NewBool(e.insert)
		rows[i] = r
	}
	return rows
}
