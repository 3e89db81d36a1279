package engine

import (
	"context"
	"fmt"
	"strings"

	"openivm/internal/catalog"
	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/fault"
	"openivm/internal/mvcc"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// execInsert handles INSERT, INSERT OR REPLACE (DuckDB dialect) and
// INSERT ... ON CONFLICT (PostgreSQL dialect).
func (s *Session) execInsert(ctx context.Context, ent *planEntry, st *sqlparser.InsertStmt) (*Result, error) {
	tbl, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Conflict != nil && !st.Conflict.DoNothing && !tbl.HasPrimaryKey() {
		return nil, fmt.Errorf("engine: ON CONFLICT DO UPDATE requires a primary key on %s", st.Table)
	}

	// Source plan (rows are pulled after the column mapping is known: the
	// plain-INSERT path streams batches instead of materializing them).
	n, err := s.planSelect(ent, st.Select)
	if err != nil {
		return nil, err
	}

	// Column mapping: named columns or positional.
	colPos := make([]int, 0, len(tbl.Columns))
	if len(st.Columns) > 0 {
		for _, cn := range st.Columns {
			p := tbl.ColumnPos(cn)
			if p < 0 {
				return nil, fmt.Errorf("engine: column %q not in table %q", cn, st.Table)
			}
			colPos = append(colPos, p)
		}
	} else {
		for i := range tbl.Columns {
			colPos = append(colPos, i)
		}
	}

	// Identity mapping — every column, in table order — is the shape of
	// generated DML (IVM propagation scripts name the full column list).
	// Source rows are durable and values immutable, so storage can adopt
	// them without the per-row rebuild (the same aliasing contract
	// catalog.Table.validate documents).
	identity := len(colPos) == len(tbl.Columns)
	for i, p := range colPos {
		if p != i {
			identity = false
			break
		}
	}
	buildRow := func(src sqltypes.Row) (sqltypes.Row, error) {
		if len(src) != len(colPos) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(src), len(colPos))
		}
		if identity {
			return src, nil
		}
		row := make(sqltypes.Row, len(tbl.Columns))
		filled := make([]bool, len(tbl.Columns))
		for i, p := range colPos {
			row[p] = src[i]
			filled[p] = true
		}
		for i := range row {
			if !filled[i] {
				if tbl.Columns[i].HasDef {
					row[i] = tbl.Columns[i].Default
				} else {
					row[i] = sqltypes.Null
				}
			}
		}
		return row, nil
	}

	// Plain INSERT: stream source batches straight into storage, one lock
	// acquisition per batch — the batched DML path IVM delta application
	// runs on. Columnar batches (fused scan pipelines) sink through
	// Table.InsertVecsTxn without ever boxing through the batch's RowView.
	if !st.OrReplace && st.Conflict == nil {
		return s.insertStream(ctx, n, tbl, st, colPos, identity, buildRow)
	}

	tx, done := s.BeginWrite()
	srcRows, err := exec.RunOpts(n, s.execOptsTxn(ctx, tx))
	if err != nil {
		return nil, done(err)
	}
	var inserted, replacedOld, replacedNew []sqltypes.Row
	if st.OrReplace {
		// One batched storage call: the whole REPLACE set lands under a
		// single table-lock acquisition, which lets storage take its
		// quiescent in-place path (no version churn in the IVM combine
		// loop) while keeping the batch atomic for concurrent readers.
		built := make([]sqltypes.Row, 0, len(srcRows))
		for _, src := range srcRows {
			row, err := buildRow(src)
			if err != nil {
				return nil, done(err)
			}
			built = append(built, row)
		}
		inserted, replacedOld, replacedNew, err = tbl.UpsertBatchTxn(tx, built)
		if err != nil {
			return nil, done(err)
		}
		if err := done(nil); err != nil {
			return nil, err
		}
		if err := s.fireTxn(st.Table, TrigInsert, nil, inserted); err != nil {
			return nil, err
		}
		if err := s.fireTxn(st.Table, TrigUpdate, replacedOld, replacedNew); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: len(inserted) + len(replacedNew)}, nil
	}
	for _, src := range srcRows {
		row, err := buildRow(src)
		if err != nil {
			return nil, done(err)
		}
		switch {
		case st.Conflict != nil:
			old, existed := lookupByPK(tbl, tx, row)
			if existed && st.Conflict.DoNothing {
				continue
			}
			if existed {
				merged, err := s.applyConflictSet(&ent.params, tbl, st.Conflict, old, row)
				if err != nil {
					return nil, done(err)
				}
				if err := tbl.UpsertTxn(tx, merged); err != nil {
					return nil, done(err)
				}
				replacedOld = append(replacedOld, old)
				replacedNew = append(replacedNew, merged)
			} else {
				if err := tbl.InsertTxn(tx, row); err != nil {
					return nil, done(err)
				}
				inserted = append(inserted, row)
			}
		}
	}

	if err := done(nil); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigInsert, nil, inserted); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigUpdate, replacedOld, replacedNew); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(inserted) + len(replacedNew)}, nil
}

// insertStream executes the plain-INSERT sink over a batch pipeline. Each
// batch lands under one table lock; a columnar identity-mapped batch goes
// through the vectorized InsertVecsTxn path (typed column loops, hoisted
// validation), anything else builds rows and uses InsertBatchTxn. Error
// semantics per batch match InsertBatchTxn: the first failing row stops the
// statement with every earlier row (including earlier batches) kept in
// place — committed by the autocommit bracket, or carried by the open
// transaction until COMMIT/ROLLBACK settles it.
func (s *Session) insertStream(ctx context.Context, n plan.Node, tbl *catalog.Table, st *sqlparser.InsertStmt,
	colPos []int, identity bool, buildRow func(sqltypes.Row) (sqltypes.Row, error)) (*Result, error) {
	tx, done := s.BeginWrite()
	it, err := exec.OpenBatch(n, s.execOptsTxn(ctx, tx))
	if err != nil {
		return nil, done(err)
	}
	defer it.Close()
	total := 0
	collect := s.wantsTriggerRows(st.Table, TrigInsert)
	var all []sqltypes.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, done(err)
		}
		if b == nil {
			break
		}
		var rows []sqltypes.Row
		var landed int
		var insErr error
		if identity && b.Cols != nil && len(b.Cols) == len(colPos) {
			rows, landed, insErr = tbl.InsertVecsTxn(tx, b.Cols, b.Len())
		} else if b.Cols != nil && len(b.Cols) != len(colPos) {
			return nil, done(fmt.Errorf("engine: INSERT has %d values for %d columns", len(b.Cols), len(colPos)))
		} else {
			src := b.RowView()
			built := make([]sqltypes.Row, len(src))
			for i, r := range src {
				row, berr := buildRow(r)
				if berr != nil {
					return nil, done(berr)
				}
				built[i] = row
			}
			landed, insErr = tbl.InsertBatchTxn(tx, built)
			rows = built
		}
		total += landed
		if collect && landed > 0 {
			all = append(all, rows[:landed]...)
		}
		if insErr != nil {
			return nil, done(insErr)
		}
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigInsert, nil, all); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: total}, nil
}

// lookupByPK fetches the row matching row's primary key as seen by the
// writing transaction's snapshot (own uncommitted writes included).
func lookupByPK(tbl *catalog.Table, tx *mvcc.Txn, row sqltypes.Row) (sqltypes.Row, bool) {
	if !tbl.HasPrimaryKey() {
		return nil, false
	}
	return tbl.LookupPKRowSnap(tx.Snapshot(), row)
}

// applyConflictSet computes the merged row for ON CONFLICT DO UPDATE.
// Assignment expressions see the schema [table columns..., excluded.*].
func (s *Session) applyConflictSet(params *expr.ParamBinding, tbl *catalog.Table, oc *sqlparser.OnConflict, old, new sqltypes.Row) (sqltypes.Row, error) {
	schema := make([]plan.ColumnInfo, 0, 2*len(tbl.Columns))
	for _, c := range tbl.Columns {
		schema = append(schema, plan.ColumnInfo{Table: tbl.Name, Name: c.Name, Type: c.Type})
	}
	for _, c := range tbl.Columns {
		schema = append(schema, plan.ColumnInfo{Table: "excluded", Name: c.Name, Type: c.Type})
	}
	env := make(sqltypes.Row, 0, 2*len(old))
	env = append(env, old...)
	env = append(env, new...)

	merged := old.Clone()
	b := s.newBinder(params)
	for _, a := range oc.Set {
		p := tbl.ColumnPos(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("engine: ON CONFLICT SET column %q unknown", a.Column)
		}
		e, err := b.BindExprSchema(a.Value, schema)
		if err != nil {
			return nil, err
		}
		v, err := e.Eval(env)
		if err != nil {
			return nil, err
		}
		merged[p] = v
	}
	return merged, nil
}

func (s *Session) execUpdate(ctx context.Context, params *expr.ParamBinding, st *sqlparser.UpdateStmt) (*Result, error) {
	tbl, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := tableSchema(tbl)
	b := s.newBinder(params)

	var pred expr.Expr
	if st.Where != nil {
		pred, err = b.BindExprSchema(st.Where, schema)
		if err != nil {
			return nil, err
		}
	}
	type setOp struct {
		pos int
		e   expr.Expr
	}
	var sets []setOp
	var setExprs []expr.Expr
	for _, a := range st.Set {
		p := tbl.ColumnPos(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("engine: SET column %q unknown", a.Column)
		}
		e, err := b.BindExprSchema(a.Value, schema)
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{pos: p, e: e})
		setExprs = append(setExprs, e)
	}

	tx, done := s.BeginWrite()
	check := ctxChecker(ctx)
	keys, err := keysBeforeLock(tbl, pred, setExprs...)
	if err != nil {
		return nil, done(err)
	}
	old, new_, err := tbl.UpdateTxn(tx, keys,
		func(r sqltypes.Row) (bool, error) {
			if err := check(); err != nil {
				return false, err
			}
			if pred == nil {
				return true, nil
			}
			v, err := pred.Eval(r)
			if err != nil {
				return false, err
			}
			return v.IsTrue(), nil
		},
		func(r sqltypes.Row) (sqltypes.Row, error) {
			nr := r.Clone()
			for _, s := range sets {
				v, err := s.e.Eval(r)
				if err != nil {
					return nil, err
				}
				nr[s.pos] = v
			}
			return nr, nil
		})
	if err != nil {
		return nil, done(err)
	}
	if err := done(nil); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigUpdate, old, new_); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(new_)}, nil
}

func (s *Session) execDelete(ctx context.Context, params *expr.ParamBinding, st *sqlparser.DeleteStmt) (*Result, error) {
	tbl, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	var pred expr.Expr
	if st.Where != nil {
		pred, err = s.newBinder(params).BindExprSchema(st.Where, tableSchema(tbl))
		if err != nil {
			return nil, err
		}
	}
	tx, done := s.BeginWrite()
	var deleted []sqltypes.Row
	affected := 0
	if pred == nil {
		// Unfiltered DELETE is a truncate: storage clears the whole table
		// in one shot when nobody could observe the difference (IVM empties
		// its delta tables on every refresh; that path runs with triggers
		// suppressed, so it also skips the row copy).
		deleted, affected, err = tbl.TruncateTxn(tx, s.wantsTriggerRows(st.Table, TrigDelete))
	} else {
		check := ctxChecker(ctx)
		var keys []sqltypes.Value
		if keys, err = keysBeforeLock(tbl, pred); err == nil {
			deleted, err = tbl.DeleteTxn(tx, keys, func(r sqltypes.Row) (bool, error) {
				if err := check(); err != nil {
					return false, err
				}
				v, err := pred.Eval(r)
				if err != nil {
					return false, err
				}
				return v.IsTrue(), nil
			})
		}
		affected = len(deleted)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigDelete, deleted, nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected}, nil
}

func (s *Session) execTruncate(st *sqlparser.TruncateStmt) (*Result, error) {
	tbl, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	tx, done := s.BeginWrite()
	rows, affected, err := tbl.TruncateTxn(tx, s.wantsTriggerRows(st.Table, TrigDelete))
	if err := done(err); err != nil {
		return nil, err
	}
	if err := s.fireTxn(st.Table, TrigDelete, rows, nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected}, nil
}

func tableSchema(tbl *catalog.Table) []plan.ColumnInfo {
	out := make([]plan.ColumnInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		out[i] = plan.ColumnInfo{Table: tbl.Name, Name: c.Name, Type: c.Type}
	}
	return out
}

// ApplyDeltaRow replays one captured delta row: ApplyDeltaBatch with a
// batch of one.
func (s *Session) ApplyDeltaRow(table string, row sqltypes.Row, mult bool) error {
	return s.ApplyDeltaBatch(table, []sqltypes.Row{row}, []bool{mult})
}

// ApplyDeltaBatch replays captured delta rows against a table, in order,
// as one write: rows[i] is inserted when insert[i] is set, otherwise
// exactly one matching copy is removed (Z-set semantics; see
// catalog.Table.ApplyDeltasTxn for how retractions are resolved). This is
// the primitive the cross-system HTAP pipeline uses to mirror remote
// deltas locally. In autocommit the batch is all-or-nothing — one
// transaction, hence one table lock, one redo record and one commit; a
// failing row (a retraction with no matching copy, a duplicate key)
// aborts it and nothing is captured. Inside an explicit transaction it
// joins that transaction, like any other DML. Row-level triggers then
// fire once per event kind, retractions first, so IVM delta capture
// observes the replayed change.
func (s *Session) ApplyDeltaBatch(table string, rows []sqltypes.Row, insert []bool) error {
	if len(rows) != len(insert) {
		return fmt.Errorf("engine: delta batch for %s has %d rows but %d multiplicities", table, len(rows), len(insert))
	}
	if s.db.degr.flag.Load() && !s.walBypass {
		return s.db.degradedErr()
	}
	tbl, err := s.db.cat.Table(table)
	if err != nil {
		return err
	}
	tx, done := s.BeginWrite()
	if err := tbl.ApplyDeltasTxn(tx, rows, insert); err != nil {
		if s.txn == nil {
			s.activeWrite = nil
			s.db.cat.MVCC().Abort(tx)
		}
		return err
	}
	if err := done(nil); err != nil {
		return err
	}
	var retracted, inserted []sqltypes.Row
	for i, r := range rows {
		if insert[i] {
			inserted = append(inserted, r)
		} else {
			retracted = append(retracted, r)
		}
	}
	if err := s.fireTxn(table, TrigDelete, retracted, nil); err != nil {
		return err
	}
	return s.fireTxn(table, TrigInsert, nil, inserted)
}

// InsertRows inserts rows into tbl as one committed write of s (inside an
// explicit transaction, as part of it), returning how many landed: a
// failing row leaves the rows before it in place. A catalog-level write,
// so no trigger fires — bulk loads, mirrors and trigger handlers use it.
func (s *Session) InsertRows(tbl *catalog.Table, rows []sqltypes.Row) (int, error) {
	tx, done := s.BeginWrite()
	n, err := tbl.InsertBatchTxn(tx, rows)
	return n, done(err)
}

// DrainTable removes and returns the committed rows of a table — the pull
// half of cross-system delta shipping (the wire drain op serves it). It is
// a truncate that returns its rows, run and logged as the session's own
// write like TRUNCATE: a row committed while the drain runs is either in
// the result or left for the next drain, never lost, and a snapshot taken
// before the drain commits keeps seeing the drained rows. No trigger fires.
func (s *Session) DrainTable(table string) ([]sqltypes.Row, error) {
	tbl, err := s.db.cat.Table(table)
	if err != nil {
		return nil, err
	}
	if tbl.RowCount() == 0 {
		return nil, nil
	}
	tx, done := s.BeginWrite()
	rows, _, err := tbl.TruncateTxn(tx, true)
	return rows, done(err)
}

// ctxChecker returns a per-row cancellation probe for filtered
// UPDATE/DELETE loops: the context is consulted every 1024 rows, so a
// long predicate sweep over a huge table observes cancellation promptly
// without paying a context check per row.
func ctxChecker(ctx context.Context) func() error {
	if ctx == nil {
		return func() error { return nil }
	}
	n := 0
	return func() error {
		n++
		if n&1023 != 0 {
			return nil
		}
		return ctx.Err()
	}
}

// --- transactions ---

// pendingFire is a trigger event queued inside an explicit transaction
// and delivered after COMMIT publishes the writes: IVM delta capture and
// eager propagation must read committed state, and a ROLLBACK must leave
// no trace in the captured deltas.
type pendingFire struct {
	table    string
	ev       TriggerEvent
	old, new []sqltypes.Row
}

// txnState is an open explicit transaction: the MVCC transaction that
// carries the write set and consistent read snapshot, plus the deferred
// trigger events. ROLLBACK aborts the MVCC transaction (storage restamps
// the logged versions) and drops the queued events — nothing was
// captured, so nothing needs compensating.
type txnState struct {
	mtx   *mvcc.Txn
	wal   *walPending // staged redo record state (nil when not logging)
	fires []pendingFire
}

// BeginWrite returns the transaction a write runs under and a completion
// func that takes the write's error and returns the statement's. It is the
// one bracket every catalog write of the engine and its extensions goes
// through: DML, trigger handlers (delta capture), the IVM extension's
// delta-table upkeep, the cross-system drain, recovery replay. Inside an
// explicit transaction the write joins it and completion defers to COMMIT.
// In autocommit the write runs as its own transaction, committed by the
// completion func BEFORE triggers fire so propagation reads the published
// state, and made durable before the func returns. Autocommit commits even
// when the write failed partway: the landed prefix stays in place (a
// doomed conflicting statement aborts inside Commit instead and keeps
// nothing).
func (s *Session) BeginWrite() (*mvcc.Txn, func(error) error) {
	if s.txn != nil {
		return s.txn.mtx, func(err error) error { return err }
	}
	mgr := s.db.cat.MVCC()
	tx := mgr.Begin()
	tx.SetAutoCommit()
	wp := s.walArm(tx)
	s.activeWrite = tx // panic cleanup target until completion runs
	settled := false
	return tx, func(err error) error {
		if settled {
			return err
		}
		settled = true
		if err == nil {
			// Injected while activeWrite is still set: a panic-action fire
			// unwinds into recoverStatement, which aborts the transaction.
			if ferr := fault.Inject(fault.EngineCommit); ferr != nil {
				s.activeWrite = nil
				mgr.Abort(tx)
				return ferr
			}
		}
		s.activeWrite = nil
		if cerr := mgr.Commit(tx); cerr != nil && err == nil {
			err = cerr
		}
		if err == nil {
			// Group commit: block until the staged redo record's fsync.
			// On a statement error the landed prefix stays committed in
			// memory (historical autocommit semantics) and its staged
			// record rides the next flush.
			err = wp.wait(s.db)
		}
		return err
	}
}

// fireTxn delivers a DML trigger event: immediately in autocommit (the
// statement's own transaction has already committed), queued until COMMIT
// inside an explicit transaction. The suppression decision is taken now,
// at DML time, so it matches the rows the statement collected.
func (s *Session) fireTxn(table string, ev TriggerEvent, oldRows, newRows []sqltypes.Row) error {
	if len(oldRows)+len(newRows) == 0 || s.trigOff.Load() > 0 {
		return nil
	}
	if s.txn != nil {
		s.txn.fires = append(s.txn.fires, pendingFire{table: table, ev: ev, old: oldRows, new: newRows})
		return nil
	}
	return s.fireForce(table, ev, oldRows, newRows)
}

func (s *Session) execBegin() (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("engine: transaction already in progress")
	}
	tx := s.db.cat.MVCC().Begin()
	s.txn = &txnState{mtx: tx, wal: s.walArm(tx)}
	return &Result{}, nil
}

func (s *Session) execCommit() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	tx := s.txn
	// Injected while s.txn is still set: a panic-action fire unwinds into
	// recoverStatement, which aborts the whole transaction.
	if ferr := fault.Inject(fault.EngineCommit); ferr != nil {
		s.txn = nil
		s.db.cat.MVCC().Abort(tx.mtx)
		return nil, ferr
	}
	s.txn = nil // deferred fires below run in autocommit, not re-queued
	if err := s.db.cat.MVCC().Commit(tx.mtx); err != nil {
		// First-committer-wins conflict: the manager has already aborted
		// and restamped the write set; surface the serialization failure.
		return nil, err
	}
	if err := tx.wal.wait(s.db); err != nil {
		// Committed in memory but not confirmed durable: surface the
		// failure before the client treats the COMMIT as acknowledged.
		return nil, err
	}
	for _, f := range tx.fires {
		if err := s.fireForce(f.table, f.ev, f.old, f.new); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (s *Session) execRollback() (*Result, error) {
	if s.txn == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	tx := s.txn
	s.txn = nil
	s.db.cat.MVCC().Abort(tx.mtx)
	return &Result{}, nil
}

// --- lazy scalar subquery ---

// keysBeforeLock is what UPDATE and DELETE do before they take tbl's write
// lock: run every uncorrelated subquery of the predicate and of the other
// expressions evaluated per row (each caches its result) — first evaluated
// under the lock, one that reads tbl itself would wait for the lock its own
// statement holds — and return the keys pred pins (nil: the scan).
func keysBeforeLock(tbl *catalog.Table, pred expr.Expr, perRow ...expr.Expr) (keys []sqltypes.Value, err error) {
	fetch := func(x expr.Expr) {
		if err != nil {
			return
		}
		switch q := x.(type) {
		case *expr.InQuery:
			_, err = q.Rows()
		case *lazySubquery:
			_, err = q.Eval(nil)
		}
	}
	expr.Walk(pred, fetch)
	for _, e := range perRow {
		expr.Walk(e, fetch)
	}
	if err != nil {
		return nil, err
	}
	return plan.PinnedKeys(tbl, pred).Resolve(tbl)
}

// lazySubquery evaluates an uncorrelated scalar subquery on first use and
// caches the result. It is bound to the session that planned it and to the
// parameter binding of its statement: the subquery runs with that session's
// execution options and cancellation context. Plans holding one are never
// cached (expr.ParallelSafe refuses unknown node kinds).
type lazySubquery struct {
	s      *Session
	sel    *sqlparser.SelectStmt
	params *expr.ParamBinding
	done   bool
	cached sqltypes.Value
	typ    sqltypes.Type
}

// Eval implements expr.Expr.
func (l *lazySubquery) Eval(sqltypes.Row) (sqltypes.Value, error) {
	if l.done {
		return l.cached, nil
	}
	n, err := l.s.bindSelect(l.sel, l.params, l.s.stamp())
	if err != nil {
		return sqltypes.Null, err
	}
	rows, err := exec.RunOpts(n, l.s.execOptsTxn(l.s.ctx, l.s.currentTxn()))
	if err != nil {
		return sqltypes.Null, err
	}
	switch {
	case len(rows) == 0:
		l.cached = sqltypes.Null
	case len(rows) == 1 && len(rows[0]) == 1:
		l.cached = rows[0][0]
	default:
		return sqltypes.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows))
	}
	l.done = true
	return l.cached, nil
}

// Type implements expr.Expr.
func (l *lazySubquery) Type() sqltypes.Type { return l.typ }

// String implements expr.Expr.
func (l *lazySubquery) String() string { return "(<subquery>)" }

// --- result formatting ---

// Format renders a result as an aligned text table (shell output).
func (r *Result) Format() string {
	var sb strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(v)
			if w := widths[i] - len(v); w > 0 && i < len(vals)-1 {
				sb.WriteString(strings.Repeat(" ", w))
			}
		}
		sb.WriteByte('\n')
	}
	if len(r.Columns) > 0 {
		writeRow(r.Columns)
		total := 0
		for _, w := range widths {
			total += w + 3
		}
		sb.WriteString(strings.Repeat("-", total))
		sb.WriteByte('\n')
	}
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}
