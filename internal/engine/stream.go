package engine

import (
	"context"
	"fmt"

	"openivm/internal/exec"
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
// backpressure all the way down to the parallel scan's bounded channels.
// Statements with no streaming shape (DML, DDL, hook-handled statements)
// have already run when the stream is returned; it serves their
// materialized result as a single batch.
//
// A Stream must be closed exactly once, drained or not: Close releases
// the operator tree (terminating parallel workers). Like the session that
// produced it, a Stream belongs to one goroutine.
type Stream struct {
	// Columns names the result columns (empty for pure DML).
	Columns []string

	s       *Session           // owner of a live operator tree (panic isolation)
	it      exec.BatchIterator // nil when materialized
	res     *Result            // materialized payload (nil when streaming)
	served  bool
	closed  bool
	release func() // statement-snapshot unpin (nil when none)
}

// Next returns the next batch of rows, or nil at end of stream. The
// returned slice is owned by the stream and only valid until the next
// Next or Close call; the rows it references are durable. A panic in the
// operator tree is isolated to the statement like one at open (see
// Session.isolate).
func (st *Stream) Next() (rows []sqltypes.Row, err error) {
	if st.it != nil {
		defer st.s.isolate(&err)
		b, nerr := st.it.NextBatch()
		if nerr != nil || b == nil {
			return nil, nerr
		}
		return b.RowView(), nil
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

// Close releases the stream's operator tree and unpins its read
// snapshot from the MVCC GC watermark. Idempotent.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.it != nil {
		st.it.Close()
	}
	if st.release != nil {
		st.release()
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
// Parameters are whatever the session's binding currently holds
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
// statement's own execution — scans, parallel workers, filtered
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

// open is the engine's single statement front door. Text goes through
// cache probe → parse (fallback parsers included); a prepared handle
// starts from its parsed statements. Every statement then takes the same
// per-statement path (openStmt): hooks once, plan, publish, open. All
// statements but the last are drained as they go; the last one's stream
// is returned.
func (s *Session) open(ctx context.Context, sql string, p *Prepared) (*Stream, error) {
	if ctx == nil {
		ctx = s.ctx
	}
	var stmts []sqlparser.Statement
	if p != nil {
		stmts = p.stmts
		prev := s.executing
		s.executing = p
		defer func() { s.executing = prev }()
	} else {
		shaped := selectShaped(sql)
		if shaped {
			if ent := s.lookupPlan(s.stamp(), sql, nil); ent != nil {
				return s.openStmt(ctx, ent.sel, sql, ent)
			}
		}
		var err error
		if stmts, err = s.db.parseScript(sql); err != nil {
			return nil, err
		}
		shareable := false
		if shaped && len(stmts) == 1 {
			_, shareable = stmts[0].(*sqlparser.SelectStmt)
		}
		if !shareable {
			sql = "" // nothing the shared cache could hold
		}
	}
	for i, stmt := range stmts {
		st, err := s.openStmt(ctx, stmt, sql, nil)
		if err != nil {
			return nil, err
		}
		if i == len(stmts)-1 {
			return st, nil
		}
		if err := st.finish(); err != nil {
			return nil, err
		}
	}
	return materializedStream(nil), nil
}

// openStmt runs one parsed statement: read-only degraded mode is
// enforced, panics are isolated to the statement, the statement hooks see
// it exactly once, and then a SELECT is planned (or served from hit, the
// cache entry the caller already found for it) and its operator tree
// opened, while any other statement executes to completion. sql is the
// statement's text when its plan may be published in the shared cache.
func (s *Session) openStmt(ctx context.Context, stmt sqlparser.Statement, sql string, hit *planEntry) (st *Stream, err error) {
	if s.db.degr.flag.Load() && !s.walBypass && isWriteStmt(stmt) {
		return nil, s.db.degradedErr()
	}
	defer s.isolate(&err)

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
		res, err := s.execStmt(ctx, stmt)
		if err != nil {
			return nil, err
		}
		return materializedStream(res), nil
	}
	var n plan.Node
	if hit != nil && hit.stamp == s.stamp() { // a hook may have moved the schema
		n = hit.node
	} else if n, err = s.planSelect(sql, sel); err != nil {
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
	it, err := exec.OpenBatch(n, opts)
	if err != nil {
		release()
		return nil, err
	}
	st := &Stream{s: s, it: it, release: release}
	for _, c := range n.Schema() {
		st.Columns = append(st.Columns, c.Name)
	}
	return st, nil
}

// execStmt dispatches a non-SELECT statement the hooks passed on. ctx
// cancels any query execution the statement performs.
func (s *Session) execStmt(ctx context.Context, stmt sqlparser.Statement) (*Result, error) {
	switch st := stmt.(type) {
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
		return s.execInsert(ctx, st)
	case *sqlparser.UpdateStmt:
		return s.execUpdate(ctx, st)
	case *sqlparser.DeleteStmt:
		return s.execDelete(ctx, st)
	case *sqlparser.TruncateStmt:
		return s.execTruncate(st)
	case *sqlparser.BeginStmt:
		return s.execBegin()
	case *sqlparser.CommitStmt:
		return s.execCommit()
	case *sqlparser.RollbackStmt:
		return s.execRollback()
	case *sqlparser.PragmaStmt:
		if err := s.setPragmaChecked(st.Name, st.Value); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.ExplainStmt:
		return s.execExplain(st)
	case *sqlparser.CreateTriggerStmt:
		return s.execCreateTrigger(st)
	case *sqlparser.RefreshStmt:
		return nil, fmt.Errorf("engine: REFRESH MATERIALIZED VIEW requires the IVM extension")
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}
