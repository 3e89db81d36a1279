package engine

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// Session is one connection's execution context over a shared DB. All
// per-connection state lives here — the open transaction, the bound
// parameters and the cancellation context — so N sessions can run
// interleaved DML and queries against one DB without sharing any mutable
// statement state.
//
// A Session is cheap to create (the wire server makes one per accepted
// connection, the IVM extension one per internal script run) and is NOT
// itself safe for concurrent use: one goroutine drives a session at a
// time, exactly like one client drives one connection. Cancel is the one
// exception — it may be called from any goroutine to interrupt the
// session's in-flight query (Close, which also rolls back, belongs to
// the driving goroutine; see its comment).
type Session struct {
	db *DB

	// ctx is the session's lifetime context: queries started through the
	// plain Exec/Query API run under it, and Cancel/Close cancel it, which
	// stops in-flight scans (see exec.Options.Ctx).
	ctx    context.Context
	cancel context.CancelFunc

	// txn is the session's open transaction: the explicit one between
	// BEGIN and COMMIT, &auto while an autocommit statement writes, nil
	// otherwise. Deliberately unsynchronized: a session is single-goroutine.
	txn *txnState

	// auto is the autocommit statement's transaction state, kept here so
	// that a statement allocates none of it; autoDone and joinDone are the
	// completion funcs BeginWrite hands out, bound once per session, and
	// mark is the write-log length at which the current statement joined
	// the open transaction.
	auto               txnState
	autoDone, joinDone func(error) error
	mark               int

	// token identifies this session in the DB's session registry, so an
	// out-of-band actor (another wire connection's cancel op) can find it
	// without holding a *Session.
	token string

	// stmtMu guards stmtCancel, the cancel func of the statement currently
	// running under StartStatement. Interrupt — callable from any
	// goroutine, like Cancel — cancels just that statement; the session
	// survives and serves the next one.
	stmtMu     sync.Mutex
	stmtCancel context.CancelFunc

	// params holds the session's $N values (BindParams): a statement that
	// names $N parameters executes with them, and PlanSelect binds against
	// them.
	params expr.ParamBinding

	// walBypass excludes this session's writes and DDL from the
	// write-ahead log. The IVM extension sets it on its internal
	// sessions: propagation and matview bookkeeping are derived state that recovery rebuilds from base tables, so logging
	// it would double both the log volume and the replayed effects.
	walBypass bool

	// internal marks extension-internal sessions (IVM propagation and
	// bookkeeping). Statement hooks consult it to skip interception —
	// e.g. the lazy-refresh hook must not re-trigger a refresh for the
	// SELECTs a propagation script itself runs.
	internal bool

	// snap is the snapshot of the SELECT whose operators are running on
	// the session — opening, or pulling a batch of its stream — and zero
	// otherwise: that SELECT's subqueries read at it (subqueryOpts).
	snap mvcc.Snapshot

	// txnStreams are the open streams that read at the snapshot of the
	// session's transaction. Their cursors read the tables in place, and
	// could not tell the transaction's writes made before they opened
	// from those made after: while one is open the transaction takes no
	// write, and its end closes them (cutStreams).
	txnStreams []*Stream
}

// SetWALBypass excludes (or re-includes) this session's writes and DDL
// from the write-ahead log. Intended for extension-internal sessions
// whose writes are derived state rebuilt on recovery; user data written
// through a bypassed session is NOT durable.
func (s *Session) SetWALBypass(on bool) { s.walBypass = on }

// SetInternal marks this session as extension-internal; statement hooks
// skip interception on internal sessions. Set before the session runs
// any statements and never changed concurrently with execution.
func (s *Session) SetInternal(on bool) { s.internal = on }

// Internal reports whether the session is extension-internal.
func (s *Session) Internal() bool { return s.internal }

// NewSession creates an independent execution context over the database.
// Sessions share the catalog, triggers, materialized views and the plan
// cache; they do not share transactions. Every session is entered
// into the DB's token registry until Close, so out-of-band cancellation
// can address it.
func (db *DB) NewSession() *Session {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Session{db: db, ctx: ctx, cancel: cancel, token: newSessionToken()}
	db.registerSession(s)
	return s
}

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Token returns the session's registry token — the handle a SECOND
// connection presents to cancel this session's in-flight statement (the
// wire protocol's out-of-band cancel op). Tokens are unguessable random
// identifiers, not small integers, so one client cannot sweep-cancel
// another's queries.
func (s *Session) Token() string { return s.token }

// newSessionToken returns an unguessable session identifier.
func newSessionToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall back to
		// a process-unique counter rather than panic in a constructor.
		return fmt.Sprintf("s-%d", sessionSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var sessionSeq atomic.Int64

// StartStatement begins one interruptible statement: it returns a context
// derived from the session's lifetime context — additionally bounded by
// timeout when positive (the wire server's query governor) — and a finish
// func the driving goroutine must call when the statement completes.
// While the statement runs, Interrupt (from any goroutine) cancels it
// without killing the session, which is what distinguishes a wire-level
// "cancel" from connection teardown.
func (s *Session) StartStatement(timeout time.Duration) (context.Context, context.CancelFunc) {
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(s.ctx)
	}
	s.stmtMu.Lock()
	s.stmtCancel = cancel
	s.stmtMu.Unlock()
	finish := func() {
		s.stmtMu.Lock()
		s.stmtCancel = nil
		s.stmtMu.Unlock()
		cancel()
	}
	return ctx, finish
}

// Interrupt cancels the statement currently running under StartStatement
// (a no-op when none is). Unlike Cancel it leaves the session usable: the
// interrupted statement returns context.Canceled and the session serves
// the next statement normally. Safe to call from any goroutine.
func (s *Session) Interrupt() {
	s.stmtMu.Lock()
	c := s.stmtCancel
	s.stmtMu.Unlock()
	if c != nil {
		c()
	}
}

// BindParams sets the session's $N parameter values for subsequent
// executions. The wire server binds parameters per prepared execution;
// values stay bound until the next call.
func (s *Session) BindParams(vals []sqltypes.Value) { s.params.Vals = vals }

// Cancel interrupts the session's in-flight query (if any): scans and
// joins observe the cancelled context and the statement
// returns context.Canceled. The session itself becomes unusable for
// further queries — Cancel is a connection-teardown primitive, not a
// per-statement one (use ExecContext for that).
func (s *Session) Cancel() { s.cancel() }

// Close releases the session: the in-flight query (if any) is cancelled
// and an open transaction is rolled back. Like every other session
// method, Close must be called by the session's driving goroutine once
// it has stopped executing statements (the wire server calls it from the
// connection goroutine's teardown, after the read loop exits) — the
// rollback replays the undo log, which must not race a statement in
// flight. To interrupt a session from ANOTHER goroutine, use Cancel: it
// only cancels the context, which is safe concurrently, and the driver
// then observes the error and closes.
func (s *Session) Close() error {
	s.cancel()
	s.db.dropSession(s)
	if s.txn != nil {
		s.end(s.txn, errRolledBack)
	}
	return nil
}

// ReadTS returns the read timestamp of the session's open transaction: it
// sees the commits at or before it. 0 when none is open.
func (s *Session) ReadTS() uint64 {
	if s.txn == nil {
		return 0
	}
	return s.txn.mtx.ReadTS
}

// InTxn reports whether the session has a transaction open: between BEGIN
// and COMMIT, or while a statement's trigger events are delivered inside
// the statement's own.
func (s *Session) InTxn() bool { return s.txn != nil }

// execOpts assembles the executor options for one statement: its
// cancellation context.
func (s *Session) execOpts(ctx context.Context) exec.Options {
	return exec.Options{Ctx: ctx}
}

// subqueryOpts is what a subquery executes with: the snapshot of the
// SELECT whose operators run it, else that of the session's transaction —
// a write's own, or the open one.
func (s *Session) subqueryOpts() exec.Options {
	if s.snap.M != nil {
		o := s.execOpts(s.ctx)
		o.Snap = s.snap
		return o
	}
	return s.execOptsTxn(s.ctx, s.currentTxn())
}

// execOptsTxn is execOpts with a transaction's read snapshot attached,
// so scans observe the transaction's consistent view (own uncommitted
// writes included). A nil tx means latest-committed reads.
func (s *Session) execOptsTxn(ctx context.Context, tx *mvcc.Txn) exec.Options {
	o := s.execOpts(ctx)
	if tx != nil {
		o.Snap = tx.Snapshot()
	}
	return o
}

// currentTxn returns the session's open transaction — a trigger handler
// reads inside the writer's — nil in autocommit.
func (s *Session) currentTxn() *mvcc.Txn {
	if s.txn != nil {
		return s.txn.mtx
	}
	return nil
}

// bindSnap attaches a statement's read snapshot to opts: the open
// transaction's snapshot (repeatable reads within the transaction), or a
// freshly registered statement snapshot in autocommit. The returned
// release func unpins the autocommit snapshot from the GC watermark once
// the statement is done; it must be called exactly once.
func (s *Session) bindSnap(opts *exec.Options) func() {
	if s.txn != nil {
		opts.Snap = s.txn.mtx.Snapshot()
		return func() {}
	}
	sn, release := s.db.cat.MVCC().AcquireSnapshot()
	opts.Snap = sn
	return release
}
