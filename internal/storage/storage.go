// Package storage is the engine's durability layer — the boundary the
// paper's demo engine needed to cross to go from cache-scale to durable:
// a Backend that owns the write-ahead log, columnar checkpoints and
// recovery, and the redo and checkpoint records it persists. Tables
// themselves are internal/catalog's; this package holds no table.
//
// # The Backend contract
//
// A Backend persists two things: a totally ordered redo log and
// periodic full snapshots (checkpoints). The engine drives it:
//
//   - AppendCommit is called from inside the MVCC commit critical
//     section, so records enter the log in commit-timestamp order.
//     It only stages the record; WaitDurable blocks until an fsync
//     covers it, letting concurrent commits share one fsync (group
//     commit).
//   - AppendDDL stages a schema change under the same append lock,
//     keeping the log totally ordered. Commit and DDL are the only two
//     record kinds: every data change is some transaction's commit.
//   - Checkpoint atomically replaces the log prefix with a snapshot.
//     The engine assembles the CheckpointData while holding the
//     backend's append lock (via BeginCheckpoint/EndCheckpoint), so a
//     record is either covered by the snapshot or positioned after it
//     — never both.
//   - Recover replays the newest valid checkpoint and every decodable
//     log record after it, stopping cleanly at a torn tail (a crash
//     mid-write) and returning CodeRecoveryCorruption for damage
//     before the tail.
//
// MemBackend is the default: nothing persists, every call is a no-op,
// and the engine's hot paths stay exactly as fast as before durability
// existed.
package storage

import (
	"openivm/internal/metrics"
	"openivm/internal/sqltypes"
)

// OpKind enumerates logical redo operations.
type OpKind uint8

const (
	// OpInsert appends a row.
	OpInsert OpKind = 1
	// OpDelete removes exactly one row equal to the payload.
	OpDelete OpKind = 2
	// OpUpsert inserts or replaces by primary key.
	OpUpsert OpKind = 3
	// OpTruncate clears the table (payload row is nil).
	OpTruncate OpKind = 4
)

// RedoOp is one logical redo operation against a named table. Rows
// carry computed values (never expressions), so replaying a committed
// prefix in log order reproduces the exact committed state regardless
// of the original snapshot interleaving.
type RedoOp struct {
	Table string
	Kind  OpKind
	Row   sqltypes.Row // nil for OpTruncate
}

// CommitRecord is the redo payload of one committed transaction.
type CommitRecord struct {
	CommitTS uint64
	Ops      []RedoOp
}

// DDLKind enumerates logged schema changes.
type DDLKind uint8

const (
	DDLCreateTable DDLKind = 1
	DDLCreateIndex DDLKind = 2
	DDLCreateView  DDLKind = 3
	// DDLCreateMatView records a materialized view by its defining
	// SELECT; recovery re-executes the CREATE through the IVM extension
	// after base state is restored, which rebuilds the view's storage,
	// delta tables and capture triggers in one stroke.
	DDLCreateMatView DDLKind = 4
	DDLDrop          DDLKind = 5
	// DDLCreateTrigger records CREATE TRIGGER … EXECUTE 'handler' by the
	// handler's registered name; recovery re-attaches it once the tables
	// exist, and fails when no handler of that name is registered.
	DDLCreateTrigger DDLKind = 6
)

// ColumnDef is the durable form of a column definition.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Type
	NotNull    bool
	HasDefault bool
	Default    sqltypes.Value
}

// IndexDef is the durable form of a secondary index definition.
type IndexDef struct {
	Name    string
	Columns []string
	Unique  bool
}

// DDLRecord is one logged schema change. Fields are populated by kind:
// create-table carries Columns/PrimaryKey (+ Rows for CREATE TABLE AS
// SELECT: the statement's transaction logs this record in place of a
// commit record, so table and population recover together or not at
// all); create-index carries Table/IdxColumns/Unique; views carry SQL
// (the defining SELECT); drop carries ObjectKind ("TABLE", "VIEW" or
// "INDEX", the last with its Table);
// create-trigger carries Table, Events and Handler.
type DDLRecord struct {
	Kind       DDLKind
	Name       string
	Table      string
	ObjectKind string
	Columns    []ColumnDef
	PrimaryKey []string
	IdxColumns []string
	Unique     bool
	SQL        string
	Rows       []sqltypes.Row
	Events     []string // trigger events: INSERT, DELETE, UPDATE
	Handler    string   // registered name of the trigger's handler
}

// TriggerSnap is the durable form of a row-level trigger created by SQL,
// as a checkpoint holds it: the events it fires on and the registered
// name of its handler.
type TriggerSnap struct {
	Name    string
	Table   string
	Events  []string
	Handler string
}

// TableSnap is one logged table's schema and visible rows inside a
// checkpoint. Rows are stored column-major in the file (columnar
// checkpoint of the snapshot arrays) but decode back to rows.
type TableSnap struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
	Indexes    []IndexDef
	Rows       []sqltypes.Row
}

// ViewSnap is a (materialized or plain) view's name and defining SQL.
type ViewSnap struct {
	Name string
	SQL  string
}

// CheckpointData is a full engine snapshot: every logged table at one
// consistent MVCC read timestamp, plus view definitions. Materialized
// views are recorded by definition only — recovery rebuilds them from
// base state, which also re-arms their capture triggers.
type CheckpointData struct {
	LastLSN  uint64 // log records with LSN <= LastLSN are covered
	LastTS   uint64 // MVCC timestamp of the snapshot (informational)
	Tables   []TableSnap
	Views    []ViewSnap
	MatViews []ViewSnap
	Triggers []TriggerSnap
}

// RecoveryHandler receives the durable history during Recover, in
// order: at most one Checkpoint call first, then each log record.
type RecoveryHandler interface {
	Checkpoint(snap *CheckpointData) error
	Commit(rec *CommitRecord) error
	DDL(rec *DDLRecord) error
}

// Stats holds storage.* counters as engine.DB.StorageStats reads them
// from the registry (see Backend.Register).
type Stats struct {
	WALBytes, WALRecords, Fsyncs, ReplayedRecords int64
}

// Backend owns durability for one engine instance. Implementations
// must allow concurrent WaitDurable callers; Append* calls are
// externally serialized by the engine (MVCC commit lock or the
// backend's own append locking via the engine's DDL path).
type Backend interface {
	// Durable reports whether the backend persists anything. The
	// engine skips redo capture entirely when false.
	Durable() bool

	// AppendCommit stages a commit record, returning its log sequence
	// number. Called in commit order under the MVCC commit lock.
	AppendCommit(rec *CommitRecord) (lsn uint64, err error)

	// WaitDurable blocks until every record with sequence <= lsn is on
	// stable storage, batching concurrent waiters behind one fsync.
	WaitDurable(lsn uint64) error

	// AppendDDL stages a schema change and makes it durable before
	// returning (DDL is rare; it pays its own fsync).
	AppendDDL(rec *DDLRecord) error

	// BeginCheckpoint freezes the log (append lock held) and returns
	// the LSN of the last staged record. The engine assembles the
	// snapshot while the log is frozen, then calls Checkpoint (which
	// releases the freeze) or EndCheckpoint to abandon it.
	BeginCheckpoint() (lastLSN uint64, err error)

	// Checkpoint durably writes snap, rotates the log, discards
	// segments the snapshot covers, and releases the freeze taken by
	// BeginCheckpoint.
	Checkpoint(snap *CheckpointData) error

	// EndCheckpoint releases the freeze without writing a snapshot.
	EndCheckpoint()

	// NeedCheckpoint reports whether enough log has accumulated since
	// the last checkpoint that the engine should take one.
	NeedCheckpoint() bool

	// Recover replays the newest valid checkpoint and the log into h.
	// It must be called once, before any Append.
	Recover(h RecoveryHandler) error

	// Register enters the backend's counters into r under storage.*,
	// replacing those of the backend it succeeds.
	Register(r *metrics.Registry)

	// Close flushes and releases the backend.
	Close() error
}

// MemBackend is the default in-memory backend: nothing persists and
// every operation is a no-op, so an engine without a data directory
// pays nothing for the durability API.
type MemBackend struct{}

var _ Backend = MemBackend{}

func (MemBackend) Durable() bool                              { return false }
func (MemBackend) AppendCommit(*CommitRecord) (uint64, error) { return 0, nil }
func (MemBackend) WaitDurable(uint64) error                   { return nil }
func (MemBackend) AppendDDL(*DDLRecord) error                 { return nil }
func (MemBackend) BeginCheckpoint() (uint64, error)           { return 0, nil }
func (MemBackend) Checkpoint(*CheckpointData) error           { return nil }
func (MemBackend) EndCheckpoint()                             {}
func (MemBackend) NeedCheckpoint() bool                       { return false }
func (MemBackend) Recover(RecoveryHandler) error              { return nil }
func (MemBackend) Close() error                               { return nil }

// Register enters the counters of a disk backend never opened: zeros,
// and no checkpoint taken.
func (MemBackend) Register(r *metrics.Registry) { new(DiskBackend).register(r, 0) }
