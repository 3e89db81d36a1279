package engine

import (
	"context"
	"fmt"
	"slices"

	"openivm/internal/enginerr"
	"openivm/internal/exec"
	"openivm/internal/mvcc"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
)

// Stream is a running statement whose result is consumed batch by batch
// instead of materialized — what every statement entry point opens, and
// what the wire protocol streams to the client. For a SELECT it wraps the
// live operator tree: each Next pulls one batch, so a consumer that stops
// pulling (a slow network peer) parks the whole pipeline — natural
// backpressure all the way down to the scan.
// Statements with no streaming shape (DML, DDL, hook-handled statements)
// have already run when the stream is returned; it serves their
// materialized result as a single batch.
//
// A Stream must be closed exactly once, drained or not: Close releases
// the operator tree. Like the session that
// produced it, a Stream belongs to one goroutine.
type Stream struct {
	// Columns names the result columns (empty for pure DML).
	Columns []string

	s       *Session           // owner of a live operator tree (panic isolation)
	it      exec.BatchIterator // nil when materialized
	res     *Result            // materialized payload (nil when streaming)
	snap    mvcc.Snapshot      // the snapshot the operator tree reads at
	served  bool
	closed  bool
	cut     bool       // closed by the end of the transaction it read in
	release func()     // statement-snapshot unpin (nil when none)
	ent     *planEntry // the cache entry the operator tree was planned from, given back at Close
}

// errStreamCut is what Next returns once the transaction a stream read in
// has ended: its cursors read that transaction's snapshot, which its end
// changes.
var errStreamCut = enginerr.New(enginerr.CodeNotInPrerequisiteState,
	"engine: the stream's transaction has ended; the stream was closed")

// errWriteUnderStream refuses a write to a transaction an open stream of
// the session reads.
var errWriteUnderStream = enginerr.New(enginerr.CodeNotInPrerequisiteState,
	"engine: a stream of this session still reads the transaction; close it before writing")

// Next returns the next batch of rows, or nil at end of stream. The
// returned slice is owned by the stream and only valid until the next
// Next or Close call; the rows it references are durable. A panic in the
// operator tree is isolated to the statement like one at open (see
// Session.isolate).
func (st *Stream) Next() (rows []sqltypes.Row, err error) {
	if st.cut {
		return nil, errStreamCut
	}
	if st.it != nil {
		defer st.s.isolate(&err)
		defer func(prev mvcc.Snapshot) { st.s.snap = prev }(st.s.snap)
		st.s.snap = st.snap
		b, nerr := st.it.NextBatch()
		if nerr != nil || b == nil {
			return nil, nerr
		}
		return b.Rows, nil
	}
	if st.served || len(st.res.Rows) == 0 {
		return nil, nil
	}
	st.served = true
	return st.res.Rows, nil
}

// RowsAffected returns the DML row count (0 for streamed SELECTs).
func (st *Stream) RowsAffected() int {
	if st.res == nil {
		return 0
	}
	return st.res.RowsAffected
}

// Close releases the stream's operator tree, unpins its read snapshot from
// the MVCC GC watermark and gives its plan back to the cache. Idempotent.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.it != nil {
		st.it.Close()
		if i := slices.Index(st.s.txnStreams, st); i >= 0 {
			st.s.txnStreams = slices.Delete(st.s.txnStreams, i, i+1)
		}
	}
	if st.release != nil {
		st.release()
	}
	if st.ent != nil {
		st.s.db.plans.give(st.ent)
	}
}

// cutStreams closes the streams that read at the snapshot of the session's
// transaction, which is ending; their Next reports it.
func (s *Session) cutStreams() {
	for i := len(s.txnStreams) - 1; i >= 0; i-- {
		st := s.txnStreams[i]
		s.txnStreams = s.txnStreams[:i]
		st.Close()
		st.cut = true
	}
}

// result drains a just-opened stream into a materialized Result and
// closes it; it takes open's return values as they come.
func result(st *Stream, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if st.it == nil {
		return st.res, nil
	}
	res := &Result{Columns: st.Columns}
	for {
		batch, err := st.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, batch...)
	}
}

// finish runs the statement to completion, discarding its rows, and
// closes the stream.
func (st *Stream) finish() error {
	defer st.Close()
	for st.it != nil {
		if batch, err := st.Next(); err != nil || batch == nil {
			return err
		}
	}
	return nil
}

// materializedStream wraps an already computed result.
func materializedStream(res *Result) *Stream {
	if res == nil {
		res = &Result{}
	}
	return &Stream{Columns: res.Columns, res: res}
}

// --- entry points ---
//
// Every way a statement enters the engine is one call to open: SQL text or
// a prepared handle in, a Stream out. The materialized API drains that
// stream into a Result.

// ExecStream executes a statement or script with a streamed result: a
// SELECT opens its operator tree and returns before pulling a single
// batch, never materializing the result set; everything else has executed
// when the stream is returned. A script streams its last statement. ctx
// cancels execution per batch (nil = session context).
func (s *Session) ExecStream(ctx context.Context, sql string) (*Stream, error) {
	return s.open(ctx, sql, nil)
}

// ExecPreparedStream is ExecStream for a prepared handle (PrepareScript).
// $N parameters are whatever the session's binding currently holds
// (BindParams).
func (s *Session) ExecPreparedStream(ctx context.Context, p *Prepared) (*Stream, error) {
	return s.open(ctx, "", p)
}

// Exec parses and executes a statement or semicolon-separated script
// under the session context, returning the last statement's result.
func (s *Session) Exec(sql string) (*Result, error) { return s.ExecContext(s.ctx, sql) }

// Query is Exec, for readability at row-returning call sites.
func (s *Session) Query(sql string) (*Result, error) { return s.Exec(sql) }

// ExecScript is Exec, for readability at call sites that run scripts.
func (s *Session) ExecScript(sql string) (*Result, error) { return s.Exec(sql) }

// ExecContext is Exec with an explicit cancellation context: the
// statement's own execution — scans, joins, filtered
// UPDATE/DELETE sweeps — observes ctx. (Uncorrelated scalar/IN subqueries
// are bound to the session at plan time and run under the session context
// instead.)
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return result(s.open(ctx, sql, nil))
}

// ExecStmts executes a prepared handle under the session context,
// returning the last statement's result. Statements observe current table
// contents like re-parsed SQL: plans snapshot rows at open, not at plan.
func (s *Session) ExecStmts(p *Prepared) (*Result, error) {
	return result(s.open(s.ctx, "", p))
}

// --- the statement pipeline ---

// open is the engine's single statement front door. Text is lexed into
// statements with their literals lifted out; a prepared handle was lexed
// and parsed already. Every statement the cache does not hold is parsed
// before the first one runs, so a script with a syntax error runs nothing.
// Each statement is then checked out of the plan cache (or built from its
// parse) and takes the same path (openStmt): hooks once, plan (or reuse
// the entry's plan), open. All statements but the last are drained as they
// go, giving their entries back, so a script that repeats a statement
// finds it in the cache; the last one's stream is returned, and gives its
// entry back when closed.
func (s *Session) open(ctx context.Context, sql string, p *Prepared) (*Stream, error) {
	if ctx == nil {
		ctx = s.ctx
	}
	if p == nil {
		var err error
		if p, err = s.db.split(sql); err != nil {
			return nil, err
		}
	}
	// The first statement's parse error surfaces at its checkout, before
	// anything ran.
	for i := 1; i < len(p.lifted); i++ {
		if err := s.parseUncached(p, i); err != nil {
			return nil, err
		}
	}
	for i := range p.lifted {
		ent, err := s.checkout(p, i)
		if err != nil {
			return nil, err
		}
		st, err := s.openStmt(ctx, ent)
		if err != nil || st.it == nil {
			s.db.plans.give(ent)
		} else {
			st.ent = ent
		}
		if err != nil {
			return nil, err
		}
		if i == len(p.lifted)-1 {
			return st, nil
		}
		if err := st.finish(); err != nil {
			return nil, err
		}
	}
	return materializedStream(nil), nil
}

// openStmt runs one statement: read-only degraded mode is enforced, a
// doomed transaction takes nothing but COMMIT and ROLLBACK, panics are
// isolated to the statement, the statement hooks see it exactly once, and
// then a SELECT is planned (or its entry's plan reused) and its operator
// tree opened, while any other statement executes to completion.
func (s *Session) openStmt(ctx context.Context, ent *planEntry) (st *Stream, err error) {
	stmt := ent.stmt
	if s.db.degr.flag.Load() && !s.walBypass && isWriteStmt(stmt) {
		return nil, s.db.degradedErr()
	}
	if s.doomed(stmt) {
		return nil, errTxnAborted
	}
	defer s.isolate(&err)
	if len(s.txnStreams) > 0 && isDML(stmt) {
		return nil, errWriteUnderStream
	}

	// Statement hooks first (IVM interception: lazy refresh ahead of a
	// view read, materialized-view DDL). A hook-handled schema change is
	// logged here — the engine's own DDL cases never see it.
	for _, h := range s.db.hooks {
		handled, res, err := h(s, stmt)
		if err != nil {
			return nil, err
		}
		if handled {
			return materializedStream(res), s.logHookDDL(stmt)
		}
	}

	sel, isSel := stmt.(*sqlparser.SelectStmt)
	if !isSel {
		res, err := s.execStmt(ctx, ent)
		if err != nil {
			return nil, err
		}
		return materializedStream(res), nil
	}
	n, err := s.planSelect(ent, sel)
	if err != nil {
		return nil, err
	}
	return s.openStream(ctx, n)
}

// openStream opens the operator tree for a planned SELECT without pulling
// any batches. The statement reads under the session's transaction
// snapshot, or in autocommit under a statement snapshot that stays pinned
// until Close — a slow consumer must not have its visible versions
// reclaimed mid-stream.
func (s *Session) openStream(ctx context.Context, n plan.Node) (*Stream, error) {
	opts := s.execOpts(ctx)
	release := s.bindSnap(&opts)
	defer func(prev mvcc.Snapshot) { s.snap = prev }(s.snap)
	s.snap = opts.Snap
	it, err := exec.OpenBatch(n, opts)
	if err != nil {
		release()
		return nil, err
	}
	st := &Stream{s: s, it: it, snap: opts.Snap, release: release}
	for _, c := range n.Schema() {
		st.Columns = append(st.Columns, c.Name)
	}
	if s.txn != nil {
		s.txnStreams = append(s.txnStreams, st)
	}
	return st, nil
}

// execStmt dispatches a non-SELECT statement the hooks passed on. ctx
// cancels any query execution the statement performs.
func (s *Session) execStmt(ctx context.Context, ent *planEntry) (*Result, error) {
	switch st := ent.stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return s.execCreateTable(ctx, st)
	case *sqlparser.CreateIndexStmt:
		return s.execCreateIndex(st)
	case *sqlparser.CreateViewStmt:
		if st.Materialized {
			return nil, fmt.Errorf("engine: CREATE MATERIALIZED VIEW requires the IVM extension (openivm/internal/ivmext)")
		}
		if err := s.db.cat.CreateView(st.Name, st.SourceSQL); err != nil {
			return nil, err
		}
		s.db.bumpSchemaEpoch() // after the mutation; see execCreateTable
		if s.walLogging() {
			if err := s.appendDDL(&storage.DDLRecord{Kind: storage.DDLCreateView, Name: st.Name, SQL: st.SourceSQL}); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	case *sqlparser.DropStmt:
		return s.execDrop(st)
	case *sqlparser.InsertStmt:
		return s.execInsert(ctx, ent, st)
	case *sqlparser.UpdateStmt:
		return s.execUpdate(ctx, &ent.params, st)
	case *sqlparser.DeleteStmt:
		return s.execDelete(ctx, ent, st)
	case *sqlparser.TruncateStmt:
		return s.execTruncate(st)
	case *sqlparser.BeginStmt:
		return s.execBegin()
	case *sqlparser.CommitStmt:
		return s.execCommit()
	case *sqlparser.RollbackStmt:
		return s.execRollback()
	case *sqlparser.ExplainStmt:
		return s.execExplain(&ent.params, st)
	case *sqlparser.CreateTriggerStmt:
		return s.execCreateTrigger(st)
	case *sqlparser.RefreshStmt:
		return nil, fmt.Errorf("engine: REFRESH MATERIALIZED VIEW requires the IVM extension")
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", ent.stmt)
}
