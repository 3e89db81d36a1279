// Package catalog implements the schema catalog shared by the OLAP and OLTP
// engines: table definitions, row storage, secondary indexes, plain views
// and the IVM metadata the paper stores alongside materialized views
// (query plan, SQL string, query type).
//
// Row storage is multi-versioned: every row slot carries begin/end stamps
// (see internal/mvcc) so concurrent transactions read consistent snapshots
// while writers append new versions instead of mutating shared state.
// Version chains are linked newest-to-oldest through per-slot prev
// pointers; the primary-key index (a compact key→slot table, see
// internal/index/slottab) always maps a key to its newest slot. Every
// write runs under a transaction: it stamps the versions it creates or
// retires with its id, logs them, and becomes visible at its commit.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"openivm/internal/enginerr"
	"openivm/internal/index/slottab"
	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    sqltypes.Type
	NotNull bool
	Default sqltypes.Value // zero Value (NULL) when absent
	HasDef  bool
}

// verMeta is the version metadata for one row slot: begin/end stamps (see
// mvcc for the stamp encoding) and the slot of the previous version of the
// same primary key (-1 when none). Stamps are only read or written under
// the table mutex; the write lock is required to change them.
type verMeta struct {
	begin uint64
	end   uint64 // 0 = live (not deleted)
	prev  int32
}

// Table is an in-memory multi-versioned heap table with optional primary
// key (backed by a key→slot table) and secondary hash indexes. All methods
// are goroutine-safe; writers serialize on the table lock while readers
// run concurrently under the shared lock.
type Table struct {
	Name    string
	Columns []Column

	mu   sync.RWMutex
	rows []sqltypes.Row // nil slots are reclaimed/aborted versions
	vers []verMeta      // parallel to rows
	live int            // live-version count (includes uncommitted inserts)

	unlogged bool // excluded from the WAL and checkpoints (IVM-derived)

	// log is the change log commits append to while the table is tracked
	// (Track); changes is the log a delta table reads instead of rows of
	// its own (ReadChanges).
	log, changes atomic.Pointer[ChangeLog]

	// inPlaceTS is the commit timestamp of the newest transaction that
	// took UpsertBatchTxn's in-place path on the table, all ones while it
	// is in flight, and inPlaceHolds counts the holds that keep writes off
	// that path (HoldInPlace).
	inPlaceTS    uint64
	inPlaceHolds int

	// pinned counts in-flight transactions holding write-log references to
	// slots of this table. While nonzero, GC must not compact (renumber
	// slots) and TruncateTxn must not physically reset the arrays.
	pinned int

	// scans counts the open cursors (Open), which hold the slot numbering
	// as a pin does. They open and close under the shared lock or none, so
	// the count is atomic; a sweep or a truncate reads it under the write
	// lock, when no cursor can open.
	scans atomic.Int32

	// abortHoles counts slots emptied by aborted inserts that no sweep has
	// yet reported as reclaimed (see gc).
	abortHoles int

	// mv is the catalog-wide transaction manager; set at CreateTable.
	mv *mvcc.Manager

	// Primary key: column positions and the index mapping a key to the
	// slot of its newest version. The index stores no keys: it is probed
	// by the hash of the encoded key, and candidates are compared against
	// the key columns of the row in the slot (pkProbe).
	pkCols  []int
	pkIndex slottab.Table

	// Write-path scratch buffers, guarded by mu (exclusive lock): every
	// writer serializes, so per-row key encoding reuses one buffer instead
	// of allocating.
	keyBuf  []byte
	valsBuf []sqltypes.Value

	// Secondary indexes, sorted by lower-cased name. A slice, not a map:
	// every write walks them.
	indexes []*Index
}

// Index is a secondary index over one or more columns. Like the primary
// key's, it stores no keys: heads maps the hash tag of an encoded key to the
// newest slot carrying that tag, and next, parallel to the table's rows,
// links each slot to the next older one with the same tag (-1 ends the
// chain). Keys that share a tag share a chain, so a probe compares the key
// columns of each row it walks, while maintenance reads no row: an insert
// pushes its slot onto its tag's chain, a removal unlinks it. The index
// costs 4 bytes per slot plus the head table's 9–18 bytes per tag, and
// allocates only when one of the two arrays grows. It serves point probes
// only (ProbeKeys); nothing walks it in key order. Index entries are not
// removed on delete — versions stay indexed until GC reclaims them — so
// lookups filter by snapshot visibility.
type Index struct {
	Name    string
	Table   string
	Columns []int // column positions
	Unique  bool
	heads   slottab.Table
	next    []int32
}

// indexHash tags an encoded secondary-index key (tests swap it to force
// tag collisions).
var indexHash = slottab.Hash

// View is a non-materialized view: a stored SELECT.
type View struct {
	Name      string
	SourceSQL string
}

// IVMMetadata mirrors the paper's metadata tables: for every materialized
// view we store its defining SQL, query classification, the generated
// propagation script and the associated delta-table names.
type IVMMetadata struct {
	ViewName    string
	SourceSQL   string
	QueryType   string // "projection", "aggregate", "join", "join_aggregate"
	BaseTables  []string
	DeltaTables []string
	// StorageTable materializes the view ("" means the view name itself;
	// differs under AVG decomposition).
	StorageTable string
	PropagateSQL string // the stored propagation script (paper: saved to disk)
	SetupSQL     string
}

// Catalog is the root namespace of an engine instance.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
	ivm    map[string]*IVMMetadata

	mv *mvcc.Manager
}

// New returns an empty catalog with a fresh transaction manager wired to
// sweep the catalog's tables.
func New() *Catalog {
	c := &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
		ivm:    make(map[string]*IVMMetadata),
		mv:     mvcc.NewManager(),
	}
	c.mv.SetSweeper(c.sweep)
	return c
}

// MVCC returns the catalog's transaction manager.
func (c *Catalog) MVCC() *mvcc.Manager { return c.mv }

// sweep is the storage half of GC: reclaim versions dead at or before the
// watermark in every table. Installed as the manager's sweeper.
func (c *Catalog) sweep(watermark uint64) int {
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	n := 0
	for _, t := range tables {
		n += t.gc(watermark)
	}
	return n
}

func norm(name string) string { return strings.ToLower(name) }

// CreateTable adds a table. PK columns (by name) may be empty.
func (c *Catalog) CreateTable(name string, cols []Column, pk []string, ifNotExists bool) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.tables[key]; ok {
		if ifNotExists {
			return c.tables[key], nil
		}
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, ok := c.views[key]; ok {
		return nil, fmt.Errorf("catalog: %q already exists as a view", name)
	}
	t := &Table{Name: name, Columns: cols, mv: c.mv}
	seen := map[string]bool{}
	for _, col := range cols {
		lc := norm(col.Name)
		if seen[lc] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[lc] = true
	}
	for _, pkc := range pk {
		pos := t.columnPos(pkc)
		if pos < 0 {
			return nil, fmt.Errorf("catalog: primary key column %q not in table %q", pkc, name)
		}
		t.pkCols = append(t.pkCols, pos)
	}
	c.tables[key] = t
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[norm(name)]
	if !ok {
		return nil, enginerr.Newf(enginerr.CodeUndefinedTable, "catalog: table %q does not exist", name)
	}
	return t, nil
}

// HasTable reports whether a table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[norm(name)]
	return ok
}

// IndexTable returns the table holding the secondary index name. Index
// names are one namespace across tables, as in PostgreSQL.
func (c *Catalog) IndexTable(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if _, ok := t.Index(name); ok {
			return t, true
		}
	}
	return nil, false
}

// DropTable removes a table (and its indexes). The bool reports whether
// a table was actually removed — an IF EXISTS no-op returns (false, nil),
// so callers can skip invalidation work when nothing changed.
func (c *Catalog) DropTable(name string, ifExists bool) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.tables[key]; !ok {
		if ifExists {
			return false, nil
		}
		return false, enginerr.Newf(enginerr.CodeUndefinedTable, "catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	return true, nil
}

// CreateView registers a plain (virtual) view.
func (c *Catalog) CreateView(name, sourceSQL string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.views[key]; ok {
		return fmt.Errorf("catalog: view %q already exists", name)
	}
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("catalog: %q already exists as a table", name)
	}
	c.views[key] = &View{Name: name, SourceSQL: sourceSQL}
	return nil
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[norm(name)]
	return v, ok
}

// Views lists all plain views sorted by name (checkpoint assembly).
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropView removes a view. The bool reports whether a view was actually
// removed (see DropTable).
func (c *Catalog) DropView(name string, ifExists bool) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.views[key]; !ok {
		if ifExists {
			return false, nil
		}
		return false, enginerr.Newf(enginerr.CodeUndefinedTable, "catalog: view %q does not exist", name)
	}
	delete(c.views, key)
	return true, nil
}

// PutIVM stores IVM metadata for a materialized view.
func (c *Catalog) PutIVM(m *IVMMetadata) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ivm[norm(m.ViewName)] = m
}

// IVM returns the IVM metadata for a view, if any.
func (c *Catalog) IVM(view string) (*IVMMetadata, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.ivm[norm(view)]
	return m, ok
}

// DropIVM removes IVM metadata.
func (c *Catalog) DropIVM(view string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.ivm, norm(view))
}

// IVMViews lists registered materialized views sorted by name.
func (c *Catalog) IVMViews() []*IVMMetadata {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*IVMMetadata, 0, len(c.ivm))
	for _, m := range c.ivm {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ViewName < out[j].ViewName })
	return out
}

// TableNames returns all table names sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Table data operations
// ---------------------------------------------------------------------------

func (t *Table) columnPos(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnPos returns the position of the named column or -1.
func (t *Table) ColumnPos(name string) int { return t.columnPos(name) }

// HasPrimaryKey reports whether the table has a primary key.
func (t *Table) HasPrimaryKey() bool { return len(t.pkCols) > 0 }

// PrimaryKeyColumns returns the PK column positions.
func (t *Table) PrimaryKeyColumns() []int { return t.pkCols }

// PrimaryKeyColumnNames returns the PK column names in key order.
func (t *Table) PrimaryKeyColumnNames() []string {
	out := make([]string, len(t.pkCols))
	for i, pos := range t.pkCols {
		out[i] = t.Columns[pos].Name
	}
	return out
}

// SetUnlogged marks the table as excluded from the write-ahead log and
// from checkpoints. The IVM extension uses it for delta and view
// storage tables, which recovery rebuilds from base state.
func (t *Table) SetUnlogged() {
	t.mu.Lock()
	t.unlogged = true
	t.mu.Unlock()
}

// Unlogged reports whether the table is excluded from durability: marked
// so, or a delta table, which stores nothing.
func (t *Table) Unlogged() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.unlogged || t.ReadsChanges()
}

// RowAt returns the row stored in a write-log slot. Redo capture uses
// it to resolve an undo-log op's slot reference to the committed row
// payload; the returned slice is the live backing row, so callers must
// finish with it before the commit critical section ends.
func (t *Table) RowAt(slot int32) sqltypes.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(slot) >= len(t.rows) {
		return nil
	}
	return t.rows[slot]
}

// RowCount returns the number of live row versions. Under concurrent
// transactions this counts uncommitted inserts and excludes uncommitted
// deletes — an estimate, which is all its callers (planning, stats) need.
// A delta table counts the rows its scan returns.
func (t *Table) RowCount() int {
	if l := t.changes.Load(); l != nil {
		return l.count(t.mv.LatestTS())
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// pkCursor is the result of seeking a key in the primary-key index: the
// key's hash tag and, when the key is present, its index entry and the
// slot of the key's newest version. It stays valid until the index is
// next mutated.
type pkCursor struct {
	tag  uint32
	pos  int
	slot int32 // -1 when absent
	ok   bool
}

// pkProbe finds the index entry whose row carries the key values vals
// (one per primary-key column; tag is the hash of their encoding). Key
// equality is value equality on the key columns of the indexed row.
func (t *Table) pkProbe(tag uint32, vals []sqltypes.Value) pkCursor {
	it := t.pkIndex.Probe(tag)
next:
	for it.Next() {
		r := t.rows[it.Slot()]
		if r == nil {
			continue
		}
		for i, p := range t.pkCols {
			if !sqltypes.Equal(r[p], vals[i]) {
				continue next
			}
		}
		return pkCursor{tag: tag, pos: it.Pos(), slot: it.Slot(), ok: true}
	}
	return pkCursor{tag: tag, slot: -1}
}

// pkSeekLocked seeks the key of a full-width row through the table's
// write-path scratch buffers; callers hold mu exclusively.
func (t *Table) pkSeekLocked(row sqltypes.Row) pkCursor {
	t.valsBuf = t.valsBuf[:0]
	for _, p := range t.pkCols {
		t.valsBuf = append(t.valsBuf, row[p])
	}
	t.keyBuf = sqltypes.EncodeKey(t.keyBuf[:0], t.valsBuf...)
	return t.pkProbe(slottab.Hash(t.keyBuf), t.valsBuf)
}

// pkStore maps the cursor's key to slot: repoints its entry, or adds one.
func (t *Table) pkStore(cur pkCursor, slot int) {
	if cur.ok {
		t.pkIndex.SetAt(cur.pos, int32(slot))
	} else {
		t.pkIndex.Insert(cur.tag, int32(slot))
	}
}

// visibleLocked walks the version chain rooted at slot, newest to oldest,
// and returns the slot of the version visible to sn, or -1.
func (t *Table) visibleLocked(sn mvcc.Snapshot, slot int32) int32 {
	for s := slot; s >= 0; s = t.vers[s].prev {
		if t.rows[s] != nil && sn.Visible(t.vers[s].begin, t.vers[s].end) {
			return s
		}
	}
	return -1
}

// validate coerces the row to the column types and checks NOT NULL. The
// input row is returned as-is when no value needs coercion (values are
// immutable, so storage can alias the caller's row); a copy is made only
// when a value actually changes.
func (t *Table) validate(row sqltypes.Row) (sqltypes.Row, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(row), len(t.Columns))
	}
	out := row
	copied := false
	for i, v := range row {
		cv, err := sqltypes.CoerceToColumn(v, t.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("table %s column %s: %w", t.Name, t.Columns[i].Name, err)
		}
		if cv.IsNull() && t.Columns[i].NotNull {
			return nil, fmt.Errorf("table %s: NOT NULL constraint on %s violated", t.Name, t.Columns[i].Name)
		}
		if cv != v && !copied {
			out = row.Clone()
			copied = true
		}
		if copied {
			out[i] = cv
		}
	}
	return out, nil
}

// logLocked records a write-log entry and pins the table on the
// transaction's first op against it.
func (t *Table) logLocked(tx *mvcc.Txn, op mvcc.Op) {
	if tx.Log(t, op) {
		t.pinned++
	}
}

// appendVersionLocked appends a new version of r begin-stamped by tx with
// the given chain predecessor, points the pk mapping at it (cur is the
// seek of r's key; unused when the table has no primary key), updates the
// secondary indexes, and logs the op.
func (t *Table) appendVersionLocked(tx *mvcc.Txn, r sqltypes.Row, cur pkCursor, prev int32) int {
	slot := len(t.rows)
	t.rows = append(t.rows, r)
	t.vers = append(t.vers, verMeta{begin: tx.StampID(), prev: prev})
	if t.HasPrimaryKey() {
		t.pkStore(cur, slot)
	}
	t.insertIndexedLocked(r, slot)
	t.live++
	t.logLocked(tx, mvcc.Op{Kind: mvcc.OpInsert, Slot: int32(slot), Prev: prev})
	return slot
}

// claimKeyLocked decides whether tx may append a new version of a key whose
// newest version sits in slot and is invisible to tx. A live version there
// is another transaction's uncommitted insert; a retired one is writable
// under first-updater-wins (mvcc.Manager.CheckWritable). Either conflict
// dooms tx.
func (t *Table) claimKeyLocked(tx *mvcc.Txn, slot int32) error {
	if t.rows[slot] == nil {
		return nil
	}
	end := t.vers[slot].end
	if end == 0 {
		tx.Doom()
		return fmt.Errorf("%w: primary key inserted by concurrent transaction on table %s", mvcc.ErrSerialization, t.Name)
	}
	if err := t.mv.CheckWritable(tx, end); err != nil {
		tx.Doom()
		return err
	}
	return nil
}

// insertOneLocked inserts a validated row as a new version, enforcing
// primary-key uniqueness against the caller's snapshot and detecting
// write-write conflicts with concurrent transactions.
func (t *Table) insertOneLocked(tx *mvcc.Txn, r sqltypes.Row) error {
	prev := int32(-1)
	var cur pkCursor
	if t.HasPrimaryKey() {
		if cur = t.pkSeekLocked(r); cur.ok {
			slot := cur.slot
			if t.visibleLocked(tx.Snapshot(), slot) >= 0 {
				return enginerr.Newf(enginerr.CodeDuplicateKey, "table %s: duplicate primary key %v", t.Name, r)
			}
			if err := t.claimKeyLocked(tx, slot); err != nil {
				return err
			}
			prev = slot
		}
	}
	if err := t.uniqueLocked(tx, r, -1); err != nil {
		return err
	}
	t.appendVersionLocked(tx, r, cur, prev)
	return nil
}

// InsertTxn appends a row; with a primary key, a duplicate key is an error.
// The new version stays invisible to other snapshots until tx commits.
func (t *Table) InsertTxn(tx *mvcc.Txn, row sqltypes.Row) error {
	r, err := t.validate(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertOneLocked(tx, r)
}

// InsertBatchTxn appends rows under a single lock acquisition — the batched
// DML path. Semantics match calling InsertTxn per row: the first failing
// row stops it with the error, leaving the rows before it in tx for the
// caller to abort.
func (t *Table) InsertBatchTxn(tx *mvcc.Txn, rows []sqltypes.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		r, err := t.validate(row)
		if err != nil {
			return err
		}
		if err := t.insertOneLocked(tx, r); err != nil {
			return err
		}
	}
	return nil
}

// Merge decides what an upsert stores in place of the row that holds its
// row's key: given that row (existing, the version visible to the upserting
// transaction, its own earlier writes included) and the upserted one
// (excluded), it returns the row that replaces existing, or nil to leave
// existing as it is. ON CONFLICT DO UPDATE merges; DO NOTHING returns nil.
// It runs under the table's write lock, so it must not read the table.
type Merge func(existing, excluded sqltypes.Row) (sqltypes.Row, error)

// UpsertBatchTxn inserts rows under one lock acquisition, each row whose
// key is taken going through merge instead: a nil merge replaces the
// existing row with the upserted one (DuckDB INSERT OR REPLACE). The table
// must have a primary key, and a merged row must keep existing's key. Rows
// apply in order, so a key repeated within the batch merges with the row
// its first occurrence left.
//
// A replaced version is end-stamped and a new version appended, so
// concurrent snapshots keep seeing the old row until commit — except when
// tx is an autocommit statement transaction and the sole observer (no
// other transaction, no registered snapshot — the same quiescence test
// TruncateTxn uses): then replaced rows are updated in place and fresh
// keys are appended already stamped committed, instead of version-churning
// every group on every refresh. The batch stays atomic for later-arriving
// readers because the table lock is held throughout, and the displaced
// rows ride the write log (OpReplace) so the rare doom-abort still reverts
// cleanly. A snapshot taken between the batch and the statement's commit
// would observe the statement's uncommitted writes, so a statement that
// can still abort after its write — its trigger handlers have yet to run —
// clears tx's autocommit mark first. Returns how many rows were inserted
// or replaced and — with wantRows, for trigger delivery — the inserted rows
// and the replaced old/new pairs; on error the applied prefix stays in tx,
// for the caller to abort.
func (t *Table) UpsertBatchTxn(tx *mvcc.Txn, rows []sqltypes.Row, merge Merge, wantRows bool) (inserted, replacedOld, replacedNew []sqltypes.Row, n int, err error) {
	if !t.HasPrimaryKey() {
		return nil, nil, nil, 0, fmt.Errorf("table %s: INSERT OR REPLACE requires a primary key or unique index", t.Name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	quiescent := t.quiescentLocked(tx) && t.inPlaceHolds == 0
	for _, row := range rows {
		r, verr := t.validate(row)
		if verr != nil {
			return inserted, replacedOld, replacedNew, n, verr
		}
		cur := t.pkSeekLocked(r)
		vis := t.visibleLocked(tx.Snapshot(), cur.slot)
		var old sqltypes.Row
		if vis >= 0 {
			old = t.rows[vis]
			if r, err = t.mergeLocked(merge, old, r); err != nil {
				return inserted, replacedOld, replacedNew, n, err
			}
			if r == nil {
				continue
			}
		}
		if err = t.uniqueLocked(tx, r, vis); err != nil {
			return inserted, replacedOld, replacedNew, n, err
		}
		switch {
		case quiescent && !cur.ok:
			// Fresh key: append stamped committed at tx's read timestamp
			// (not the latest one, so the row stays visible to tx's own
			// snapshot even if unrelated commits land mid-batch), logged
			// so an abort still removes it.
			slot := len(t.rows)
			t.rows = append(t.rows, r)
			t.vers = append(t.vers, verMeta{begin: tx.ReadTS, prev: -1})
			t.pkStore(cur, slot)
			t.insertIndexedLocked(r, slot)
			t.live++
			t.logLocked(tx, mvcc.Op{Kind: mvcc.OpInsert, Slot: int32(slot), Prev: -1})
			t.inPlaceTS = ^uint64(0)
		case quiescent && vis == cur.slot && t.vers[vis].begin&mvcc.TxnBit == 0 && t.vers[vis].end == 0:
			t.removeIndexedLocked(old, int(vis))
			t.rows[vis] = r
			t.insertIndexedLocked(r, int(vis))
			t.logLocked(tx, mvcc.Op{Kind: mvcc.OpReplace, Slot: vis, Old: old})
			t.inPlaceTS = ^uint64(0)
		default:
			// Non-quiescent, or an odd chain state (a key claimed by a
			// version committed after tx's snapshot, uncommitted stamps):
			// the general versioned path, which detects conflicts and
			// dooms tx as usual.
			if err = t.upsertLocked(tx, r, cur); err != nil {
				return inserted, replacedOld, replacedNew, n, err
			}
		}
		n++
		switch {
		case !wantRows:
		case vis >= 0:
			replacedOld = append(replacedOld, old)
			replacedNew = append(replacedNew, r)
		default:
			inserted = append(inserted, r)
		}
	}
	return inserted, replacedOld, replacedNew, n, nil
}

// mergeLocked returns the validated row that replaces old when excluded,
// validated, is upserted onto its key: excluded itself under a nil merge,
// else merge's row — nil when merge keeps old.
func (t *Table) mergeLocked(merge Merge, old, excluded sqltypes.Row) (sqltypes.Row, error) {
	if merge == nil {
		return excluded, nil
	}
	m, err := merge(old, excluded)
	if err != nil || m == nil {
		return nil, err
	}
	if m, err = t.validate(m); err != nil {
		return nil, err
	}
	for _, p := range t.pkCols {
		if !sqltypes.Equal(m[p], old[p]) {
			return nil, enginerr.Newf(enginerr.CodeFeatureNotSupported, "table %s: ON CONFLICT DO UPDATE cannot change the primary key", t.Name)
		}
	}
	return m, nil
}

// upsertLocked appends r as the newest version of its key, retiring the
// version visible to tx when there is one. The caller validated r, sought
// its key (cur) and holds the write lock.
func (t *Table) upsertLocked(tx *mvcc.Txn, r sqltypes.Row, cur pkCursor) error {
	if !cur.ok {
		t.appendVersionLocked(tx, r, cur, -1)
		return nil
	}
	newest := cur.slot
	vis := t.visibleLocked(tx.Snapshot(), newest)
	if vis < 0 {
		// No visible version: behaves as an insert, but the key may be
		// claimed by a concurrent writer.
		if err := t.claimKeyLocked(tx, newest); err != nil {
			return err
		}
	} else if err := t.retireLocked(tx, int(vis)); err != nil {
		return err
	}
	t.appendVersionLocked(tx, r, cur, newest)
	return nil
}

// candidatesLocked names the slots a filtered statement visits — the one
// resolution path of keyed reads (Open) and writes (DeleteTxn,
// UpdateTxn): with nil keys every slot (slots is nil and n the slot count),
// otherwise — keys holding one value per primary-key column, key after key
// — the version of each key visible to sn, ascending, n of them: what the
// scan would visit of those keys, in the scan's order. A key listed twice
// yields one slot and an absent key none. Keys that do not fit the table's
// primary key (no key, a ragged list) send the statement to the scan. The
// shared lock is enough: keys are encoded into a local buffer, the
// write-path scratch being off limits to concurrent readers.
func (t *Table) candidatesLocked(sn mvcc.Snapshot, keys []sqltypes.Value) (slots []int32, n int) {
	w := len(t.pkCols)
	if keys == nil || w == 0 || len(keys)%w != 0 {
		return nil, len(t.rows)
	}
	var buf [64]byte
	enc := buf[:0]
	slots = make([]int32, 0, len(keys)/w)
	for k := 0; k < len(keys); k += w {
		vals := keys[k : k+w]
		enc = sqltypes.EncodeKey(enc[:0], vals...)
		if s := t.visibleLocked(sn, t.pkProbe(slottab.Hash(enc), vals).slot); s >= 0 {
			slots = append(slots, s)
		}
	}
	slices.Sort(slots)
	slots = slices.Compact(slots)
	return slots, len(slots)
}

// candidate is the j-th slot of a candidatesLocked result.
func candidate(slots []int32, j int) int {
	if slots == nil {
		return j
	}
	return int(slots[j])
}

// retireLocked end-stamps the version in slot i, which the caller found
// visible to tx, with tx's stamp and logs it. First-updater-wins: a version
// another transaction already retired is a conflict, which dooms tx.
func (t *Table) retireLocked(tx *mvcc.Txn, i int) error {
	if err := t.mv.CheckWritable(tx, t.vers[i].end); err != nil {
		tx.Doom()
		return err
	}
	t.endStampLocked(tx, i)
	return nil
}

// endStampLocked is retireLocked past the conflict check: a version tx
// already retired itself stays as it is.
func (t *Table) endStampLocked(tx *mvcc.Txn, i int) {
	if t.vers[i].end == 0 {
		t.vers[i].end = tx.StampID()
		t.live--
		t.logLocked(tx, mvcc.Op{Kind: mvcc.OpDelete, Slot: int32(i)})
	}
}

// DeleteTxn removes the rows matching pred and returns them, in slot
// order. Non-nil keys — a set of primary keys, one value per key column,
// key after key — restrict the statement to the rows with those keys,
// found through the index instead of a scan (pred still applies to each;
// an empty set visits nothing). Deleted versions are end-stamped, not
// removed: concurrent snapshots keep seeing them, and GC reclaims them once
// no snapshot can.
func (t *Table) DeleteTxn(tx *mvcc.Txn, keys []sqltypes.Value, pred func(sqltypes.Row) (bool, error)) ([]sqltypes.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(tx, keys, pred)
}

// deleteLocked is DeleteTxn under the held write lock; a nil pred matches
// every row (TruncateTxn's versioned path).
func (t *Table) deleteLocked(tx *mvcc.Txn, keys []sqltypes.Value, pred func(sqltypes.Row) (bool, error)) ([]sqltypes.Row, error) {
	sn := tx.Snapshot()
	var deleted []sqltypes.Row
	slots, n := t.candidatesLocked(sn, keys)
	for j := 0; j < n; j++ {
		i := candidate(slots, j)
		r := t.rows[i]
		if r == nil {
			continue
		}
		vm := t.vers[i]
		if !sn.Visible(vm.begin, vm.end) {
			continue
		}
		if pred != nil {
			ok, err := pred(r)
			if err != nil {
				return deleted, err
			}
			if !ok {
				continue
			}
		}
		if err := t.retireLocked(tx, i); err != nil {
			return deleted, err
		}
		deleted = append(deleted, r)
	}
	return deleted, nil
}

// ApplyDeltasTxn replays a batch of Z-set deltas in order under one lock
// acquisition: rows[i] is inserted when insert[i] is set, otherwise
// exactly one copy equal to it is retracted (one deletion cancels one
// multiplicity unit, so duplicates retract one copy at a time) — possibly
// one inserted earlier in the same batch. A retraction resolves through
// the primary-key index; on a key-less table the batch's retractions share
// one pass over the table (retractions), so the cost is O(batch) or
// O(table + batch), never their product. The first failing op — a
// duplicate key, a retraction with no matching row, a write-write
// conflict — stops the batch with the ops before it still applied; a
// caller that needs all-or-nothing aborts tx.
func (t *Table) ApplyDeltasTxn(tx *mvcc.Txn, rows []sqltypes.Row, insert []bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sn := tx.Snapshot()
	var copies *retractions
	if !t.HasPrimaryKey() {
		copies = t.retractionsLocked(sn, rows, insert)
	}
	for i, row := range rows {
		if insert[i] {
			r, err := t.validate(row)
			if err != nil {
				return err
			}
			slot := int32(len(t.rows))
			if err := t.insertOneLocked(tx, r); err != nil {
				return err
			}
			copies.inserted(r, slot)
			continue
		}
		slot := int32(-1)
		if copies != nil {
			slot = copies.take(row)
		} else if len(row) == len(t.Columns) {
			slot = t.visibleLocked(sn, t.pkSeekLocked(row).slot)
			if slot >= 0 && !t.rows[slot].Equal(row) {
				slot = -1
			}
		}
		if slot < 0 {
			return fmt.Errorf("table %s: delta #%d retracts a row with no matching copy: %v", t.Name, i, row)
		}
		if err := t.retireLocked(tx, int(slot)); err != nil {
			return err
		}
	}
	return nil
}

// retractions resolves a delta batch's retractions on a key-less table:
// per distinct retracted row, the slots of the copies the batch may
// cancel, gathered in one pass over the table instead of one scan per
// retraction. Rows the batch itself inserts join as they land, so an
// insert-then-retract pair cancels and a retract-before-insert fails,
// exactly as row-at-a-time replay would.
type retractions struct {
	byRow map[string]*rowCopies // keyed by the encoded full row
	buf   []byte
}

type rowCopies struct {
	need  int     // retractions of this row in the batch
	slots []int32 // copies found so far, at most need
}

func (rs *retractions) lookup(row sqltypes.Row) *rowCopies {
	rs.buf = sqltypes.EncodeKey(rs.buf[:0], row...)
	return rs.byRow[string(rs.buf)]
}

// inserted offers a freshly inserted row as a copy later retractions of
// the same batch may cancel. Safe on a nil receiver (keyed tables).
func (rs *retractions) inserted(row sqltypes.Row, slot int32) {
	if rs == nil {
		return
	}
	if c := rs.lookup(row); c != nil {
		c.slots = append(c.slots, slot)
	}
}

// take hands out one copy of row, or -1 when none is left.
func (rs *retractions) take(row sqltypes.Row) int32 {
	c := rs.lookup(row)
	if c == nil || len(c.slots) == 0 {
		return -1
	}
	slot := c.slots[len(c.slots)-1]
	c.slots = c.slots[:len(c.slots)-1]
	return slot
}

// retractionsLocked gathers, for every row the batch retracts, up to as
// many retractable copies as the batch needs: versions visible to sn and
// not already delete-stamped. A batch that retracts a single distinct row
// (one-row replay) compares rows directly instead of encoding every row of
// the table.
func (t *Table) retractionsLocked(sn mvcc.Snapshot, rows []sqltypes.Row, insert []bool) *retractions {
	rs := &retractions{byRow: map[string]*rowCopies{}}
	missing := 0
	var only sqltypes.Row
	for i, row := range rows {
		if insert[i] {
			continue
		}
		c := rs.lookup(row)
		if c == nil {
			c = &rowCopies{}
			rs.byRow[string(rs.buf)] = c
			only = row
		}
		c.need++
		missing++
	}
	for i := 0; i < len(t.rows) && missing > 0; i++ {
		r := t.rows[i]
		if r == nil || t.vers[i].end != 0 || !sn.Visible(t.vers[i].begin, 0) {
			continue
		}
		var c *rowCopies
		if len(rs.byRow) > 1 {
			c = rs.lookup(r)
		} else if r.Equal(only) {
			c = rs.lookup(only)
		}
		if c != nil && len(c.slots) < c.need {
			c.slots = append(c.slots, int32(i))
			missing--
		}
	}
	return rs
}

// UpdateTxn applies set to the rows matching pred, returning (old, new)
// pairs: each matching row's current version is end-stamped and a new
// version appended, so the update is invisible to other snapshots until
// commit. Non-nil keys restrict the statement to the rows with those
// primary keys, found through the index instead of a scan (see DeleteTxn).
func (t *Table) UpdateTxn(tx *mvcc.Txn, keys []sqltypes.Value, pred func(sqltypes.Row) (bool, error), set func(sqltypes.Row) (sqltypes.Row, error)) (old, new []sqltypes.Row, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sn := tx.Snapshot()
	// The candidates are fixed up front: versions appended below must not
	// be revisited.
	slots, n := t.candidatesLocked(sn, keys)
	for j := 0; j < n; j++ {
		i := candidate(slots, j)
		r := t.rows[i]
		if r == nil {
			continue
		}
		vm := t.vers[i]
		if !sn.Visible(vm.begin, vm.end) {
			continue
		}
		ok, perr := pred(r)
		if perr != nil {
			return old, new, perr
		}
		if !ok {
			continue
		}
		nr, serr := set(r)
		if serr != nil {
			return old, new, serr
		}
		nr, serr = t.validate(nr)
		if serr != nil {
			return old, new, serr
		}
		if cerr := t.mv.CheckWritable(tx, vm.end); cerr != nil {
			tx.Doom()
			return old, new, cerr
		}
		if uerr := t.uniqueLocked(tx, nr, int32(i)); uerr != nil {
			return old, new, uerr
		}

		// Resolve the pk mapping for the new version before stamping.
		var cur pkCursor
		prev := int32(i)
		if t.HasPrimaryKey() {
			cur = t.pkSeekLocked(nr)
			if !sameKey(r, nr, t.pkCols) {
				prev = -1
				if cur.ok {
					if t.visibleLocked(sn, cur.slot) >= 0 {
						return old, new, enginerr.Newf(enginerr.CodeDuplicateKey, "table %s: update violates primary key", t.Name)
					}
					if cerr := t.claimKeyLocked(tx, cur.slot); cerr != nil {
						return old, new, cerr
					}
					prev = cur.slot
				}
				// The old key's mapping keeps pointing at the end-stamped
				// version — correct for its chain; GC removes it when the
				// version dies.
			}
		}

		t.endStampLocked(tx, i)
		t.appendVersionLocked(tx, nr, cur, prev)
		old = append(old, r)
		new = append(new, nr)
	}
	return old, new, nil
}

// quiescentLocked reports whether tx may take an irreversible in-place
// fast path on this table: tx carries the autocommit mark (an autocommit
// statement, or an extension's internal transaction such as a refresh:
// never rolled back by a client), has not lost a conflict, and is the sole
// observer — no other transaction, no registered snapshot — so nobody who
// is reading can tell the fast path from versioned writes. A transaction
// that begins after the write and before the commit sees it, as it sees a
// commit made before it began.
func (t *Table) quiescentLocked(tx *mvcc.Txn) bool {
	return tx.AutoCommit() && !tx.Doomed() && t.mv.OnlyActive(tx)
}

// TruncateTxn removes every row, returning the removed rows when wantRows
// is set and their number either way. When no transaction holds write-log
// references into the table, no cursor walks it (Open) and tx is quiescent
// (quiescentLocked), the backing arrays are released — an O(1) physical
// reset that also drops the rows committed after tx's snapshot, which
// nobody can observe — and the write log carries a single OpTruncate so
// redo replays it. Otherwise — and always on a tracked table — every
// version visible to tx is end-stamped like a DELETE, so concurrent
// snapshots keep a consistent view.
func (t *Table) TruncateTxn(tx *mvcc.Txn, wantRows bool) ([]sqltypes.Row, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pinned != 0 || t.scans.Load() != 0 || !t.quiescentLocked(tx) || t.Tracked() {
		rows, err := t.deleteLocked(tx, nil, nil)
		return rows, len(rows), err
	}
	n := t.live
	var rows []sqltypes.Row
	if wantRows {
		rows = make([]sqltypes.Row, 0, n)
		for i, r := range t.rows {
			if r != nil && t.vers[i].end == 0 {
				rows = append(rows, r)
			}
		}
	}
	t.resetLocked()
	t.logLocked(tx, mvcc.Op{Kind: mvcc.OpTruncate, Slot: -1})
	return rows, n, nil
}

// resetLocked releases the row arrays and empties the indexes. The
// backing array is released rather than reused so row copies handed out
// earlier never observe post-truncate writes.
func (t *Table) resetLocked() {
	t.rows = nil
	t.vers = nil
	t.live = 0
	t.abortHoles = 0
	t.pkIndex.Reset()
	for _, idx := range t.indexes {
		idx.heads.Reset()
		idx.next = nil
	}
}

// Rows returns a copy of the rows visible to the latest snapshot, taken
// under one hold of the shared lock (the checkpoint's read). A delta table
// returns its change log's rows.
func (t *Table) Rows() []sqltypes.Row {
	if l := t.changes.Load(); l != nil {
		return l.scan(t.mv.LatestTS())
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	sn := t.mv.Current()
	out := make([]sqltypes.Row, 0, t.live)
	for i, r := range t.rows {
		if r != nil && sn.Visible(t.vers[i].begin, t.vers[i].end) {
			out = append(out, r)
		}
	}
	return out
}

// Open opens c, a cursor the caller provides (an operator's own field,
// which costs no allocation of its own), over the rows visible to sn, in
// slot order: every row, or — with non-nil keys, a set of primary keys,
// one value per key column, key after key — the rows with those keys,
// found through the index instead of a scan (see DeleteTxn): the same rows
// in the same order the scan returns for them, at the cost of the keys
// instead of the table. The zero snapshot means latest-committed: the
// cursor registers one at open and unregisters it at close. A delta
// table's cursor walks its change log's rows (ReadChanges).
//
// The cursor reads the table's slots in place, taking the shared lock once
// per Next; nothing of the table is copied at open. A full scan stops at
// the slot count of its open, so rows appended later — a self-reading
// INSERT … SELECT's own — are never visited. Until it is exhausted or
// closed the cursor holds the slot numbering, like a writer's pin: a sweep
// does not compact the table and TruncateTxn does not reset it. What it
// relies on beyond that is sn: its versions stay visible to it (a
// registered snapshot holds the GC watermark), and versions written after
// the open are invisible to it — which the owner of a transaction's
// snapshot must keep true by not writing in that transaction while a
// cursor over it is open.
//
// It returns the number of rows the scan is expected to return: exact for
// a keyed scan and a delta table, the table's live version count for a
// full scan.
func (t *Table) Open(c *Cursor, sn mvcc.Snapshot, keys []sqltypes.Value) (estimate int) {
	*c = Cursor{t: t}
	if l := t.changes.Load(); l != nil {
		if sn.M == nil {
			sn = t.mv.Current()
		}
		c.delta = l.scan(sn.ReadTS)
		c.n = int32(len(c.delta))
		return len(c.delta)
	}
	if sn.M == nil {
		sn, c.release = t.mv.AcquireSnapshot()
	}
	c.sn = sn
	t.mu.RLock()
	slots, n := t.candidatesLocked(sn, keys)
	c.slots, c.n, estimate = slots, int32(n), t.live
	if slots != nil {
		estimate = n
	}
	if n > 0 {
		c.pinned = true
		t.scans.Add(1)
	}
	t.mu.RUnlock()
	if !c.pinned {
		c.Close()
	}
	return estimate
}

// Cursor is an open scan of one table at one snapshot (Table.Open). It
// belongs to one goroutine.
type Cursor struct {
	t      *Table
	sn     mvcc.Snapshot
	slots  []int32        // a keyed scan's slots (candidatesLocked); nil for a full scan
	delta  []sqltypes.Row // a delta table's rows
	pos, n int32          // the next candidate to visit, and the candidates: the key slots, or the slot count at open

	pinned  bool   // holds t.scans
	release func() // unregisters the snapshot a zero-snapshot open took
}

// Next appends to dst the next rows visible to the cursor's snapshot for
// which keep holds (nil keeps every row), up to n of them, and reports
// whether rows may remain. It holds the table's shared lock throughout, so
// keep must not read the table; a predicate that might (a subquery) runs
// on the returned rows instead. A cursor that has visited everything
// closes itself.
func (c *Cursor) Next(dst []sqltypes.Row, n int, keep func(sqltypes.Row) bool) ([]sqltypes.Row, bool) {
	if c.delta != nil {
		for ; c.pos < c.n && n > 0; c.pos++ {
			if r := c.delta[c.pos]; keep == nil || keep(r) {
				dst = append(dst, r)
				n--
			}
		}
		return dst, c.pos < c.n
	}
	if !c.pinned {
		return dst, false
	}
	t, sn := c.t, c.sn
	t.mu.RLock()
	for ; c.pos < c.n && n > 0; c.pos++ {
		i := candidate(c.slots, int(c.pos))
		r := t.rows[i]
		if r == nil {
			continue
		}
		vm := t.vers[i]
		// Fast path: committed at-or-before the snapshot and not deleted.
		if (vm.begin&mvcc.TxnBit != 0 || vm.begin > sn.ReadTS || vm.end != 0) && !sn.Visible(vm.begin, vm.end) {
			continue
		}
		if keep == nil || keep(r) {
			dst = append(dst, r)
			n--
		}
	}
	t.mu.RUnlock()
	if c.pos < c.n {
		return dst, true
	}
	c.Close()
	return dst, false
}

// Close ends the scan: the slot numbering and the snapshot it registered
// are released. Idempotent.
func (c *Cursor) Close() {
	if c.pinned {
		c.pinned = false
		c.t.scans.Add(-1)
	}
	if c.release != nil {
		c.release()
		c.release = nil
	}
}

// OpenScans reports how many cursors hold the table's slot numbering.
func (t *Table) OpenScans() int { return int(t.scans.Load()) }

// ---------------------------------------------------------------------------
// mvcc.Store: commit/abort application
// ---------------------------------------------------------------------------

// ApplyCommit restamps the transaction's ops with its commit timestamp and,
// on a tracked table, appends them to the change log. Called by the
// transaction manager with the commit mutex held, so the log fills in
// commit order; takes the table's write lock so no reader observes a
// half-restamped transaction on this table. The table stays pinned until
// Unpin: the commit hook that runs next still resolves the write log's slot
// numbers (redo capture reads the committed rows through RowAt), so no
// sweep may renumber them in between.
func (t *Table) ApplyCommit(ops []mvcc.Op, commitTS uint64) {
	t.mu.Lock()
	dead := 0
	for _, op := range ops {
		s := int(op.Slot)
		if s < 0 || s >= len(t.vers) {
			continue // defensive: compaction cannot run while pinned
		}
		switch op.Kind {
		case mvcc.OpInsert:
			if t.vers[s].begin&mvcc.TxnBit != 0 {
				t.vers[s].begin = commitTS
			} else {
				t.inPlaceTS = commitTS // appended committed: the in-place path
			}
		case mvcc.OpDelete:
			if t.vers[s].end&mvcc.TxnBit != 0 {
				t.vers[s].end = commitTS
				dead++
			}
		case mvcc.OpReplace:
			// In-place replacement: the slot already carries the new
			// value under its old committed begin stamp — nothing to
			// restamp, no version died.
			t.inPlaceTS = commitTS
		}
	}
	if l := t.log.Load(); l != nil {
		t.logChangesLocked(l, ops, commitTS)
	}
	t.mu.Unlock()
	t.mv.NoteDead(dead)
}

// Unpin drops the pin the transaction's first write against this table
// took (mvcc.Store): its write log no longer references slots here.
func (t *Table) Unpin() {
	t.mu.Lock()
	if t.pinned > 0 {
		t.pinned--
	}
	t.mu.Unlock()
}

// ApplyAbort reverts the transaction's ops in reverse order: inserted
// versions are unlinked (pk mapping restored to the logged predecessor)
// and delete stamps cleared.
func (t *Table) ApplyAbort(ops []mvcc.Op) {
	t.mu.Lock()
	dead := 0
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		s := int(op.Slot)
		if s < 0 || s >= len(t.vers) {
			continue
		}
		switch op.Kind {
		case mvcc.OpInsert:
			r := t.rows[s]
			if r == nil {
				continue
			}
			if t.vers[s].begin&mvcc.TxnBit == 0 {
				t.inPlaceTS = 0
			}
			if t.HasPrimaryKey() {
				if cur := t.pkSeekLocked(r); cur.ok && int(cur.slot) == s {
					// A sweep may have reclaimed the logged predecessor
					// while this transaction was in flight: fall through
					// to the nearest version still stored.
					prev := op.Prev
					for prev >= 0 && t.rows[prev] == nil {
						prev = t.vers[prev].prev
					}
					if prev >= 0 {
						t.pkIndex.SetAt(cur.pos, prev)
					} else {
						t.pkIndex.DeleteAt(cur.pos)
					}
				}
			}
			t.removeIndexedLocked(r, s)
			t.rows[s] = nil
			t.live--
			dead++
		case mvcc.OpDelete:
			if t.vers[s].end&mvcc.TxnBit != 0 {
				t.vers[s].end = 0
				t.live++
			}
		case mvcc.OpReplace:
			// Restore the pre-replace value — unless a later transaction
			// has since stamped the slot: it already read the replaced
			// value, and rewriting the row underneath its chain would
			// corrupt what it based its write on.
			t.inPlaceTS = 0
			if op.Old != nil && t.vers[s].end == 0 {
				if r := t.rows[s]; r != nil {
					t.removeIndexedLocked(r, s)
				}
				t.rows[s] = op.Old
				t.insertIndexedLocked(op.Old, s)
			}
		}
	}
	t.abortHoles += dead
	t.mu.Unlock()
	t.mv.NoteDead(dead)
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

// compactFraction is the share of the slot array that must be garbage —
// empty slots plus reclaimable versions — before a sweep renumbers the
// slots and rebuilds the indexes; below it, dead versions are emptied in
// place at a cost proportional to their number, not the table's.
const compactFraction = 4

// reclaimableLocked reports whether the version in slot i died at or
// before the watermark, i.e. no snapshot can still see it.
func (t *Table) reclaimableLocked(i int, watermark uint64) bool {
	e := t.vers[i].end
	return e != 0 && e&mvcc.TxnBit == 0 && e <= watermark
}

// gc reclaims versions dead at or before the watermark and returns how
// many it reclaimed, plus the slots aborted inserts emptied since the
// last sweep (they were announced through NoteDead as well). Dead
// versions are normally emptied in place — slot set to nil, index entries
// dropped, prev pointers compressed past it — which allocates nothing per
// surviving row. Only when garbage exceeds 1/compactFraction of the slot
// array, and no transaction or open cursor pins the slot numbering, are the arrays
// compacted, so hot upsert/truncate churn still cannot grow them without
// bound.
func (t *Table) gc(watermark uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	dead, holes := 0, 0
	for i, r := range t.rows {
		if r == nil {
			holes++
		} else if t.reclaimableLocked(i, watermark) {
			dead++
		}
	}
	n := dead + t.abortHoles
	t.abortHoles = 0
	if t.pinned == 0 && t.scans.Load() == 0 && (dead+holes)*compactFraction > len(t.rows) {
		t.compactLocked(watermark)
		return n
	}
	if dead == 0 {
		return n
	}
	for i, r := range t.rows {
		if r == nil || !t.reclaimableLocked(i, watermark) {
			continue
		}
		if t.HasPrimaryKey() {
			if cur := t.pkSeekLocked(r); cur.ok && int(cur.slot) == i {
				t.pkIndex.DeleteAt(cur.pos)
			}
		}
		t.removeIndexedLocked(r, i)
		t.rows[i] = nil
	}
	if t.HasPrimaryKey() {
		// Path-compress prev pointers through reclaimed (and aborted)
		// slots so chain walks stay short. Key-less tables have no chains.
		for i := range t.vers {
			p := t.vers[i].prev
			for p >= 0 && t.rows[p] == nil {
				p = t.vers[p].prev
			}
			t.vers[i].prev = p
		}
	}
	return n
}

// compactLocked rebuilds the row/version arrays keeping only versions
// still reachable by some snapshot, renumbering slots. The primary-key
// index is renumbered in place (entries of dropped slots fall out); the
// secondary indexes are rebuilt. Only legal with no pinned transactions
// (their write logs hold slot numbers) and no open cursor (it walks them).
func (t *Table) compactLocked(watermark uint64) {
	keep := 0
	newSlot := make([]int32, len(t.rows))
	for i, r := range t.rows {
		if r == nil || t.reclaimableLocked(i, watermark) {
			newSlot[i] = -1
			continue
		}
		newSlot[i] = int32(keep)
		keep++
	}
	rows := make([]sqltypes.Row, keep)
	vers := make([]verMeta, keep)
	for i, r := range t.rows {
		ns := newSlot[i]
		if ns < 0 {
			continue
		}
		rows[ns] = r
		vm := t.vers[i]
		p := vm.prev
		for p >= 0 && newSlot[p] < 0 {
			p = t.vers[p].prev
		}
		if p >= 0 {
			vm.prev = newSlot[p]
		} else {
			vm.prev = -1
		}
		vers[ns] = vm
	}
	t.pkIndex.Remap(newSlot)
	t.rows = rows
	t.vers = vers
	for _, idx := range t.indexes {
		_ = t.buildIndexLocked(idx, false)
	}
}

// ---------------------------------------------------------------------------
// Secondary indexes
// ---------------------------------------------------------------------------

// CreateIndex builds a secondary index over the named columns. Every
// stored version is indexed, dead or retired ones included: an older
// snapshot may still see them, and an uncommitted delete may yet abort.
// A unique index is checked over live versions, as every later write
// checks it (uniqueLocked).
func (t *Table) CreateIndex(name string, cols []string, unique bool, ifNotExists bool) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx := t.indexLocked(name); idx != nil {
		if ifNotExists {
			return idx, nil
		}
		return nil, enginerr.Newf(enginerr.CodeDuplicateTable, "catalog: index %q already exists on %s", name, t.Name)
	}
	idx := &Index{Name: name, Table: t.Name, Unique: unique}
	for _, cn := range cols {
		pos := t.columnPos(cn)
		if pos < 0 {
			return nil, fmt.Errorf("catalog: index column %q not in table %q", cn, t.Name)
		}
		idx.Columns = append(idx.Columns, pos)
	}
	if err := t.buildIndexLocked(idx, true); err != nil {
		return nil, err
	}
	i, _ := slices.BinarySearchFunc(t.indexes, norm(name), func(x *Index, n string) int { return strings.Compare(norm(x.Name), n) })
	t.indexes = slices.Insert(t.indexes, i, idx)
	return idx, nil
}

// DropIndex removes a secondary index, reporting whether it existed. The
// index is emptied too: a probe that looked it up before the drop finds no
// slot a later compaction could have renumbered.
func (t *Table) DropIndex(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.indexLocked(name)
	if idx == nil {
		return false
	}
	t.indexes = slices.DeleteFunc(t.indexes, func(x *Index) bool { return x == idx })
	idx.heads.Reset()
	idx.next = nil
	return true
}

// buildIndexLocked (re)builds idx over every stored version in slot order,
// so each chain runs from its highest slot down. With check, a unique index
// refuses a key held by two live versions.
func (t *Table) buildIndexLocked(idx *Index, check bool) error {
	idx.heads.Reset()
	idx.next = make([]int32, len(t.rows))
	for slot, r := range t.rows {
		idx.next[slot] = -1
		if r == nil {
			continue
		}
		tag := t.indexTagLocked(idx, r)
		if check && idx.Unique && t.vers[slot].end == 0 && idx.holdsLive(t, tag, r, -1, 0) {
			return t.uniqueViolation(idx)
		}
		idx.link(tag, slot)
	}
	return nil
}

// Indexes lists the table's secondary indexes sorted by name.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Clone(t.indexes)
}

// Index returns a secondary index by name.
func (t *Table) Index(name string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.indexLocked(name)
	return idx, idx != nil
}

func (t *Table) indexLocked(name string) *Index {
	for _, idx := range t.indexes {
		if strings.EqualFold(idx.Name, name) {
			return idx
		}
	}
	return nil
}

// indexTagLocked encodes r's key under idx into the write-path scratch and
// returns its tag; the caller holds mu exclusively.
func (t *Table) indexTagLocked(idx *Index, r sqltypes.Row) uint32 {
	t.keyBuf = t.keyBuf[:0]
	for _, p := range idx.Columns {
		t.keyBuf = sqltypes.EncodeKey(t.keyBuf, r[p])
	}
	return indexHash(t.keyBuf)
}

// head returns the newest slot of tag's chain, or -1.
func (idx *Index) head(tag uint32) int32 {
	it := idx.heads.Probe(tag)
	if !it.Next() {
		return -1
	}
	return it.Slot()
}

// link pushes slot onto the chain of tag.
func (idx *Index) link(tag uint32, slot int) {
	for len(idx.next) <= slot {
		idx.next = append(idx.next, -1)
	}
	it := idx.heads.Probe(tag)
	if it.Next() {
		idx.next[slot] = it.Slot()
		idx.heads.SetAt(it.Pos(), int32(slot))
		return
	}
	idx.next[slot] = -1
	idx.heads.Insert(tag, int32(slot))
}

// unlink removes slot from the chain of tag.
func (idx *Index) unlink(tag uint32, slot int) {
	it := idx.heads.Probe(tag)
	if !it.Next() {
		return
	}
	s := int32(slot)
	switch h := it.Slot(); {
	case h == s && idx.next[s] >= 0:
		idx.heads.SetAt(it.Pos(), idx.next[s])
	case h == s:
		idx.heads.DeleteAt(it.Pos())
	default:
		for p := h; p >= 0; p = idx.next[p] {
			if idx.next[p] == s {
				idx.next[p] = idx.next[s]
				break
			}
		}
	}
	idx.next[s] = -1
}

// holdsLive reports whether a stored version other than the one in except
// carries r's key (tag is its tag) and is live to a writer stamping own: not
// retired, or retired by another transaction still in flight, which may
// abort. A key holding a NULL is never held (NULLs are distinct).
func (idx *Index) holdsLive(t *Table, tag uint32, r sqltypes.Row, except int32, own uint64) bool {
	for _, p := range idx.Columns {
		if r[p].IsNull() {
			return false
		}
	}
	for s := idx.head(tag); s >= 0; s = idx.next[s] {
		o := t.rows[s]
		if s == except || o == nil {
			continue
		}
		if end := t.vers[s].end; (end == 0 || end&mvcc.TxnBit != 0 && end != own) && sameKey(o, r, idx.Columns) {
			return true
		}
	}
	return false
}

// uniqueLocked checks r, about to be stored by tx, against every unique
// index of the table; except is the slot r replaces (-1 for none), whose
// version is retired or overwritten by the same write.
func (t *Table) uniqueLocked(tx *mvcc.Txn, r sqltypes.Row, except int32) error {
	for _, idx := range t.indexes {
		if idx.Unique && idx.holdsLive(t, t.indexTagLocked(idx, r), r, except, tx.StampID()) {
			return t.uniqueViolation(idx)
		}
	}
	return nil
}

func (t *Table) uniqueViolation(idx *Index) error {
	return enginerr.Newf(enginerr.CodeDuplicateKey, "catalog: unique index %q violated on %s", idx.Name, t.Name)
}

// sameKeyVals reports whether row r holds vals in the columns cols.
func sameKeyVals(r sqltypes.Row, cols []int, vals []sqltypes.Value) bool {
	for k, p := range cols {
		if !sqltypes.Equal(r[p], vals[k]) {
			return false
		}
	}
	return true
}

// sameKey reports whether rows a and b agree on the columns cols.
func sameKey(a, b sqltypes.Row, cols []int) bool {
	for _, p := range cols {
		if !sqltypes.Equal(a[p], b[p]) {
			return false
		}
	}
	return true
}

func (t *Table) insertIndexedLocked(r sqltypes.Row, slot int) {
	for _, idx := range t.indexes {
		idx.link(t.indexTagLocked(idx, r), slot)
	}
}

func (t *Table) removeIndexedLocked(r sqltypes.Row, slot int) {
	for _, idx := range t.indexes {
		idx.unlink(t.indexTagLocked(idx, r), slot)
	}
}

// ---------------------------------------------------------------------------
// Key probes
// ---------------------------------------------------------------------------

// KeyIndex names one of a table's point-lookup structures for ProbeKeys:
// the primary-key index (Name "pk") or a secondary index. Cols are the
// table column positions of the key, in the order probe values are given.
// Keys is how many distinct keys the index held when it was looked up: the
// table's live rows for the primary key, the tags of a secondary index
// (keys that share a tag count once).
type KeyIndex struct {
	Name string
	Cols []int
	Keys int
	idx  *Index // nil = primary key
}

// KeyIndexOn returns the key index whose columns are exactly cols, in any
// order: the primary key if it qualifies, otherwise the first qualifying
// secondary index by name.
func (t *Table) KeyIndexOn(cols []int) (KeyIndex, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if sameColumns(t.pkCols, cols) {
		return KeyIndex{Name: "pk", Cols: t.pkCols, Keys: t.live}, true
	}
	for _, idx := range t.indexes {
		if sameColumns(idx.Columns, cols) {
			return KeyIndex{Name: idx.Name, Cols: idx.Columns, Keys: idx.heads.Len(), idx: idx}, true
		}
	}
	return KeyIndex{}, false
}

// sameColumns reports whether b is a permutation of the non-empty column
// list a (index column lists never repeat a column).
func sameColumns(a, b []int) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i, c := range b {
		if !slices.Contains(a, c) || slices.Contains(b[:i], c) {
			return false
		}
	}
	return true
}

// ProbeKeys resolves every row of probes to the stored rows carrying its
// key, through ki instead of a scan: probe[at[k]] is the value for column
// ki.Cols[k]. Matches are appended to one slice; ends[i] is where probe i's
// matches end (they start at ends[i-1], or 0). A probe with a NULL key
// value matches nothing — SQL equality — unless nullSafe[k] (nil: none) says
// that key compares as IS NOT DISTINCT FROM, whose NULL finds the rows
// stored with a NULL there. All probes are resolved under one
// hold of the shared lock against one snapshot (the zero snapshot means
// latest-committed, resolved under the lock), so the result
// is what a scan at that moment would have returned for those keys. Index
// entries outlive the versions' visibility (they go when GC reclaims the
// version), hence the per-version visibility check on the secondary path;
// the primary-key path walks the key's version chain.
func (t *Table) ProbeKeys(sn mvcc.Snapshot, ki KeyIndex, probes []sqltypes.Row, at []int, nullSafe []bool) (rows []sqltypes.Row, ends []int) {
	rows = make([]sqltypes.Row, 0, len(probes))
	ends = make([]int, len(probes))
	vals := make([]sqltypes.Value, len(at))
	var key []byte
	var hits []int32
	t.mu.RLock()
	defer t.mu.RUnlock()
	if sn.M == nil {
		sn = t.mv.Current()
	}
probe:
	for i, p := range probes {
		ends[i] = len(rows)
		for k, c := range at {
			if p[c].IsNull() && (nullSafe == nil || !nullSafe[k]) {
				continue probe
			}
			vals[k] = p[c]
		}
		key = sqltypes.EncodeKey(key[:0], vals...)
		if ki.idx == nil {
			if s := t.visibleLocked(sn, t.pkProbe(slottab.Hash(key), vals).slot); s >= 0 {
				rows = append(rows, t.rows[s])
			}
		} else {
			// The chain runs newest slot first, mostly: collect its matches,
			// then emit them in ascending slot order, as a scan would.
			hits = hits[:0]
			for s := ki.idx.head(indexHash(key)); s >= 0; s = ki.idx.next[s] {
				if r := t.rows[s]; r != nil && sn.Visible(t.vers[s].begin, t.vers[s].end) && sameKeyVals(r, ki.Cols, vals) {
					hits = append(hits, s)
				}
			}
			slices.Reverse(hits)
			if !slices.IsSorted(hits) {
				slices.Sort(hits)
			}
			for _, s := range hits {
				rows = append(rows, t.rows[s])
			}
		}
		ends[i] = len(rows)
	}
	return rows, ends
}
