// Robustness: graceful degradation to read-only after a sticky storage
// failure, and per-statement panic isolation.
//
// # Degraded mode
//
// A durable backend that fails an I/O operation (write, fsync, rename,
// dir-sync — classified SQLSTATE 58030 by the storage layer) is
// poisoned: its sticky flushErr refuses all further appends, so every
// subsequent commit would fail anyway, just with a confusing per-commit
// error. Instead the engine notes the first 58030 it sees on a
// durability path and flips into READ-ONLY DEGRADED MODE:
//
//   - write statements (DML and DDL) fail fast with SQLSTATE 58030 and
//     a message naming the root cause — no partial commits pile up
//     against a dead disk;
//   - reads, EXPLAIN, BEGIN/COMMIT/ROLLBACK of read-only
//     transactions, and the stats op keep serving: the in-memory MVCC
//     state is intact and remains authoritative;
//   - the IVM extension's internal sessions (WAL-bypassed) keep
//     maintaining derived state for the reads that still run.
//
// Service is restored by operator intervention: AttachBackend with a
// fresh, EMPTY durable backend reseeds durability via a full checkpoint
// of the authoritative in-memory state, then re-enables writes. (The
// old backend's directory is recovery input for a post-mortem, not for
// this process: its log may have lost its tail, so re-attaching
// non-empty state would silently fork history.)
//
// # Panic isolation
//
// Every statement runs under a recover() (Session.isolate): a panic
// anywhere in the statement path — binder, optimizer, executor, triggers,
// extension hooks, and the batches a streamed result pulls later — is
// converted into a SQLSTATE XX000 internal error carrying the panic value
// and stack. The statement's transaction is rolled
// back (the undo log makes this exact), the session survives, and no
// other connection observes anything but its own consistent snapshot.
// The executor runs a statement on the statement's goroutine, so this one
// boundary covers it.
package engine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"openivm/internal/enginerr"
	"openivm/internal/sqlparser"
	"openivm/internal/storage"
)

// degradedState is the DB's read-only-mode flag and its root cause.
type degradedState struct {
	flag   atomic.Bool
	mu     sync.Mutex
	reason error
}

// Degraded reports whether the engine is in read-only degraded mode.
func (db *DB) Degraded() bool { return db.degr.flag.Load() }

// RecoveredPanics returns how many statement-level panics this DB has
// converted into XX000 errors.
func (db *DB) RecoveredPanics() int64 { return db.panicsRecovered.Load() }

// enterDegraded flips the engine into read-only mode, keeping the first
// cause (later failures are consequences of the same dead disk).
func (db *DB) enterDegraded(cause error) {
	db.degr.mu.Lock()
	if db.degr.reason == nil {
		db.degr.reason = cause
	}
	db.degr.mu.Unlock()
	db.degr.flag.Store(true)
}

// clearDegraded restores write service (degraded re-attach succeeded).
func (db *DB) clearDegraded() {
	db.degr.mu.Lock()
	db.degr.reason = nil
	db.degr.mu.Unlock()
	db.degr.flag.Store(false)
}

// degradedErr builds the fail-fast write rejection: SQLSTATE 58030
// carrying the root cause.
func (db *DB) degradedErr() error {
	db.degr.mu.Lock()
	cause := db.degr.reason
	db.degr.mu.Unlock()
	return enginerr.Newf(enginerr.CodeIOFailure,
		"engine: database is in read-only degraded mode after a storage failure; writes are rejected until an operator re-attaches a healthy backend (cause: %v)", cause)
}

// noteStorageErr inspects a durability-path error and degrades the
// engine on an I/O-classified (58030) failure. Returns err unchanged.
func (db *DB) noteStorageErr(err error) error {
	if err != nil && enginerr.HasCode(err, enginerr.CodeIOFailure) {
		db.enterDegraded(err)
	}
	return err
}

// isWriteStmt reports whether a statement mutates database state — the
// set rejected in degraded mode. Transaction control, EXPLAIN and SELECT
// pass.
func isWriteStmt(stmt sqlparser.Statement) bool {
	if isDML(stmt) {
		return true
	}
	switch stmt.(type) {
	case *sqlparser.CreateTableStmt, *sqlparser.CreateIndexStmt, *sqlparser.CreateViewStmt,
		*sqlparser.DropStmt, *sqlparser.CreateTriggerStmt, *sqlparser.RefreshStmt:
		return true
	}
	return false
}

// isDML reports whether stmt writes rows in its transaction.
func isDML(stmt sqlparser.Statement) bool {
	switch stmt.(type) {
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt, *sqlparser.TruncateStmt:
		return true
	}
	return false
}

// isolate is deferred around every stretch of the statement path
// (Session.openStmt, Stream.Next): a panic there becomes a SQLSTATE XX000
// error in *err and whatever transaction the statement left dangling is
// rolled back.
func (s *Session) isolate(err *error) {
	if r := recover(); r != nil {
		s.db.panicsRecovered.Add(1)
		s.recoverStatement()
		*err = enginerr.Newf(enginerr.CodeInternal,
			"engine: internal error executing statement (the statement's transaction was rolled back; the session remains usable): %v\n%s",
			r, debug.Stack())
	}
}

// recoverStatement rolls back whatever transaction a panicking statement
// left open: the autocommit statement's own, or the session's explicit
// transaction — a panic mid-transaction aborts the whole transaction,
// because the statement may have applied part of its writes.
func (s *Session) recoverStatement() {
	if s.txn != nil {
		s.end(s.txn, errRolledBack)
	}
}

// --- degraded re-attach ---

// recoveryProbe counts what a backend's Recover would replay, without
// applying any of it — the emptiness check behind degraded re-attach.
type recoveryProbe struct{ records int }

func (p *recoveryProbe) Checkpoint(*storage.CheckpointData) error { p.records++; return nil }
func (p *recoveryProbe) Commit(*storage.CommitRecord) error       { p.records++; return nil }
func (p *recoveryProbe) DDL(*storage.DDLRecord) error             { p.records++; return nil }

// reattachDegraded restores write service after degradation. The
// in-memory committed state is authoritative — the failed backend's log
// may have lost its tail — so the replacement backend must be EMPTY;
// its durable state is seeded with a full checkpoint of memory, and
// writes re-enable only once that checkpoint is durable.
func (db *DB) reattachDegraded(b storage.Backend) error {
	if !b.Durable() {
		return fmt.Errorf("engine: degraded re-attach requires a durable backend")
	}
	probe := &recoveryProbe{}
	if err := b.Recover(probe); err != nil {
		return err
	}
	if probe.records > 0 {
		return fmt.Errorf("engine: degraded re-attach requires an empty data directory: the in-memory state is authoritative and the target already holds durable state (%d recovered records); recover that directory in a fresh instance instead", probe.records)
	}
	old := db.be()
	db.setBackend(b)
	if err := db.Checkpoint(); err != nil {
		// The replacement backend failed too: stay degraded (the
		// checkpoint path re-noted the failure), keep the new backend
		// for the operator's next attempt.
		return err
	}
	db.clearDegraded()
	old.Close()
	return nil
}
