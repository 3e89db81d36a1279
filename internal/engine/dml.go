package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"openivm/internal/catalog"
	"openivm/internal/enginerr"
	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/fault"
	"openivm/internal/mvcc"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
)

// execInsert handles INSERT, INSERT OR REPLACE and INSERT ... ON
// CONFLICT. The last two are one upsert: UpsertBatchTxn, given the ON
// CONFLICT clause as its merge.
func (s *Session) execInsert(ctx context.Context, ent *planEntry, st *sqlparser.InsertStmt) (*Result, error) {
	tbl, err := s.writeTable(st.Table)
	if err != nil {
		return nil, err
	}
	if st.Conflict != nil {
		if err := checkConflictTarget(tbl, st.Conflict); err != nil {
			return nil, err
		}
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
	// runs on. DO NOTHING on a table without a key has nothing to conflict
	// with.
	if !st.OrReplace && (st.Conflict == nil || !tbl.HasPrimaryKey()) {
		return s.insertStream(ctx, n, tbl, st, buildRow)
	}

	tx, done := s.BeginWrite()
	triggered := s.wantsTriggerRows(st.Table, TrigInsert) || s.wantsTriggerRows(st.Table, TrigUpdate)
	if triggered {
		// The handlers run after the write, in its transaction, and can
		// still abort it: no snapshot may see its rows in place.
		tx.SetAutoCommit(false)
	}
	srcRows, err := exec.RunOpts(n, s.execOptsTxn(ctx, tx))
	if err != nil {
		return nil, done(err)
	}
	built := make([]sqltypes.Row, 0, len(srcRows))
	for _, src := range srcRows {
		row, err := buildRow(src)
		if err != nil {
			return nil, done(err)
		}
		built = append(built, row)
	}
	var merge storage.Merge
	if st.Conflict != nil {
		if merge, err = s.conflictMerge(ent, tbl, st.Conflict, len(built)); err != nil {
			return nil, done(err)
		}
	}
	// One batched storage call: the whole set lands under a single
	// table-lock acquisition, which lets storage take its quiescent
	// in-place path (no version churn in the IVM combine step) while
	// keeping the batch atomic for concurrent readers.
	inserted, replacedOld, replacedNew, written, err := tbl.UpsertBatchTxn(tx, built, merge, triggered)
	if err == nil && triggered {
		s.fireTxn(st.Table, TrigInsert, nil, inserted)
		s.fireTxn(st.Table, TrigUpdate, replacedOld, replacedNew)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: written}, nil
}

// checkConflictTarget refuses an ON CONFLICT target that is not the
// table's primary key, the one constraint that arbitrates conflicts, and DO
// UPDATE on a table without one. A clause without a target names the key.
func checkConflictTarget(tbl *catalog.Table, oc *sqlparser.OnConflict) error {
	named := make([]int, len(oc.Columns))
	for i, c := range oc.Columns {
		if named[i] = tbl.ColumnPos(c); named[i] < 0 {
			return enginerr.Newf(enginerr.CodeUndefinedColumn, "engine: ON CONFLICT column %q not in table %q", c, tbl.Name)
		}
	}
	pk := slices.Clone(tbl.PrimaryKeyColumns())
	slices.Sort(pk)
	slices.Sort(named)
	if len(named) > 0 && !slices.Equal(slices.Compact(named), pk) || len(pk) == 0 && !oc.DoNothing {
		return enginerr.Newf(enginerr.CodeInvalidColumnReference, "engine: ON CONFLICT (%s) does not name the primary key of %s",
			strings.Join(oc.Columns, ", "), tbl.Name)
	}
	return nil
}

// conflictMerge turns an ON CONFLICT clause into the merge its upsert
// applies to each conflicting row: DO NOTHING keeps the existing row; DO
// UPDATE evaluates its SET list over the schema [table columns...,
// excluded.*] and stores the existing row with those columns replaced.
// Merged rows are carved from one block sized to the statement's rows,
// which each conflict at most once.
func (s *Session) conflictMerge(ent *planEntry, tbl *catalog.Table, oc *sqlparser.OnConflict, rows int) (storage.Merge, error) {
	if oc.DoNothing {
		return func(_, _ sqltypes.Row) (sqltypes.Row, error) { return nil, nil }, nil
	}
	sets, err := s.conflictSets(ent, tbl, oc)
	if err != nil {
		return nil, err
	}
	w := len(tbl.Columns)
	env := make(sqltypes.Row, 2*w)
	var block []sqltypes.Value
	return func(existing, excluded sqltypes.Row) (sqltypes.Row, error) {
		if block == nil {
			block = make([]sqltypes.Value, rows*w)
		}
		merged := sqltypes.Row(block[:w:w])
		block = block[w:]
		copy(env, existing)
		copy(env[w:], excluded)
		copy(merged, existing)
		return merged, sets.apply(env, merged)
	}, nil
}

// conflictSets binds the SET list of DO UPDATE. The bound list is kept on
// the entry beside its cached plan, under the plan's schema epoch, when
// every expression is expr.Stateless — its parameters read the entry's
// binding at Eval — so a cached statement, every refresh's step 2 among
// them, binds it once; a list with a subquery is bound per execution.
func (s *Session) conflictSets(ent *planEntry, tbl *catalog.Table, oc *sqlparser.OnConflict) (setList, error) {
	at := s.db.epoch()
	if ent.sets != nil && ent.stamp == at {
		return *ent.sets, nil
	}
	schema := tableSchema(tbl)
	for _, c := range tbl.Columns {
		schema = append(schema, plan.ColumnInfo{Table: "excluded", Name: c.Name, Type: c.Type})
	}
	sets, err := bindSetList(s.newBinder(&ent.params), tbl, oc.Set, schema)
	if err == nil {
		err = runSubqueries(sets.exprs...)
	}
	if err != nil {
		return sets, err
	}
	keep := ent.node != nil && ent.stamp == at && s.db.epoch() == at
	for _, e := range sets.exprs {
		keep = keep && expr.Stateless(e)
	}
	if keep {
		ent.sets = &sets
	}
	return sets, nil
}

// setList is a bound SET list, UPDATE's or ON CONFLICT DO UPDATE's: for
// each assignment, the column it writes and its value's expression.
type setList struct {
	pos   []int
	exprs []expr.Expr
}

// bindSetList binds the assignments of a SET list on tbl over schema.
func bindSetList(b *plan.Binder, tbl *catalog.Table, set []sqlparser.Assignment, schema []plan.ColumnInfo) (setList, error) {
	l := setList{pos: make([]int, len(set)), exprs: make([]expr.Expr, len(set))}
	for i, a := range set {
		if l.pos[i] = tbl.ColumnPos(a.Column); l.pos[i] < 0 {
			return l, enginerr.Newf(enginerr.CodeUndefinedColumn, "engine: SET column %q not in table %q", a.Column, tbl.Name)
		}
		var err error
		if l.exprs[i], err = b.BindExprSchema(a.Value, schema); err != nil {
			return l, err
		}
	}
	return l, nil
}

// apply writes the list's values, evaluated over env, into row.
func (l setList) apply(env, row sqltypes.Row) error {
	for i, e := range l.exprs {
		v, err := e.Eval(env)
		if err != nil {
			return err
		}
		row[l.pos[i]] = v
	}
	return nil
}

// insertStream executes the plain-INSERT sink over a batch pipeline. Each
// batch's rows are built and land under one table lock (InsertBatchTxn).
// The first failing row fails the statement, which then keeps none of its
// rows.
func (s *Session) insertStream(ctx context.Context, n plan.Node, tbl *catalog.Table, st *sqlparser.InsertStmt,
	buildRow func(sqltypes.Row) (sqltypes.Row, error)) (*Result, error) {
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
		rows := make([]sqltypes.Row, len(b.Rows))
		for i := 0; i < len(rows) && err == nil; i++ {
			rows[i], err = buildRow(b.Rows[i])
		}
		if err == nil {
			err = tbl.InsertBatchTxn(tx, rows)
		}
		if err != nil {
			return nil, done(err)
		}
		total += len(rows)
		if collect && all == nil {
			all = rows // full-length, so a later append copies
		} else if collect {
			all = append(all, rows...)
		}
	}
	s.fireTxn(st.Table, TrigInsert, nil, all)
	if err := done(nil); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: total}, nil
}

func (s *Session) execUpdate(ctx context.Context, params *expr.ParamBinding, st *sqlparser.UpdateStmt) (*Result, error) {
	tbl, err := s.writeTable(st.Table)
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
	sets, err := bindSetList(b, tbl, st.Set, schema)
	if err != nil {
		return nil, err
	}

	tx, done := s.BeginWrite()
	check := ctxChecker(ctx)
	keys, err := keysBeforeLock(tbl, pred, sets.exprs...)
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
			return nr, sets.apply(r, nr)
		})
	if err == nil {
		s.fireTxn(st.Table, TrigUpdate, old, new_)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(new_)}, nil
}

func (s *Session) execDelete(ctx context.Context, params *expr.ParamBinding, st *sqlparser.DeleteStmt) (*Result, error) {
	tbl, err := s.writeTable(st.Table)
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
	if pred == nil {
		return s.truncate(tbl, st.Table)
	}
	tx, done := s.BeginWrite()
	check := ctxChecker(ctx)
	var deleted []sqltypes.Row
	keys, err := keysBeforeLock(tbl, pred)
	if err == nil {
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
	if err == nil {
		s.fireTxn(st.Table, TrigDelete, deleted, nil)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(deleted)}, nil
}

func (s *Session) execTruncate(st *sqlparser.TruncateStmt) (*Result, error) {
	tbl, err := s.writeTable(st.Table)
	if err != nil {
		return nil, err
	}
	return s.truncate(tbl, st.Table)
}

// truncate runs TRUNCATE, and DELETE without WHERE: storage clears the whole
// table in one shot when nobody could observe the difference and no change
// log needs its rows (IVM empties its scratch tables that way on every
// refresh, and skips the row copy). A table with delete triggers takes the
// versioned path: its handlers run after the truncate, in its transaction,
// and can still abort it.
func (s *Session) truncate(tbl *catalog.Table, table string) (*Result, error) {
	want := s.wantsTriggerRows(table, TrigDelete)
	tx, done := s.BeginWrite()
	if want {
		tx.SetAutoCommit(false)
	}
	rows, affected, err := tbl.TruncateTxn(tx, want)
	if err == nil {
		s.fireTxn(table, TrigDelete, rows, nil)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected}, nil
}

// writeTable resolves the table a statement writes. A delta table reads its
// base table's change log (catalog.Table.ReadChanges) and takes no writes.
func (s *Session) writeTable(name string) (*catalog.Table, error) {
	tbl, err := s.db.cat.Table(name)
	if err == nil && tbl.ReadsChanges() {
		return nil, fmt.Errorf("engine: %s is a delta table: it reads its base table's change log and cannot be written", tbl.Name)
	}
	return tbl, err
}

func tableSchema(tbl *catalog.Table) []plan.ColumnInfo {
	out := make([]plan.ColumnInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		out[i] = plan.ColumnInfo{Table: tbl.Name, Name: c.Name, Type: c.Type}
	}
	return out
}

// ApplyDeltaBatch replays captured delta rows against a table, in order,
// as one write: rows[i] is inserted when insert[i] is set, otherwise
// exactly one matching copy is removed (Z-set semantics; see
// catalog.Table.ApplyDeltasTxn for how retractions are resolved). This is
// the primitive the cross-system HTAP pipeline uses to mirror remote
// deltas locally. It is one write, like any statement: in autocommit one
// transaction, hence one table lock, one redo record and one commit, and
// a failing row (a retraction with no matching copy, a duplicate key)
// aborts it whole. Row-level triggers see it as two events, retractions
// first.
func (s *Session) ApplyDeltaBatch(table string, rows []sqltypes.Row, insert []bool) error {
	if len(rows) != len(insert) {
		return fmt.Errorf("engine: delta batch for %s has %d rows but %d multiplicities", table, len(rows), len(insert))
	}
	if s.db.degr.flag.Load() && !s.walBypass {
		return s.db.degradedErr()
	}
	tbl, err := s.writeTable(table)
	if err != nil {
		return err
	}
	tx, done := s.BeginWrite()
	if err := tbl.ApplyDeltasTxn(tx, rows, insert); err != nil {
		return done(err)
	}
	var retracted, inserted []sqltypes.Row
	for i, r := range rows {
		if insert[i] {
			inserted = append(inserted, r)
		} else {
			retracted = append(retracted, r)
		}
	}
	s.fireTxn(table, TrigDelete, retracted, nil)
	s.fireTxn(table, TrigInsert, nil, inserted)
	return done(nil)
}

// InsertRows inserts rows into tbl as one write of s: a transaction of its
// own, or part of the open one (a trigger handler's joins the writer's). A
// catalog-level write, so no trigger fires — bulk loads, mirrors and
// trigger handlers use it.
func (s *Session) InsertRows(tbl *catalog.Table, rows []sqltypes.Row) error {
	tx, done := s.BeginWrite()
	return done(tbl.InsertBatchTxn(tx, rows))
}

// DrainTable removes and returns the committed rows of a table — the pull
// half of cross-system delta shipping (the wire drain op serves it). It is
// a truncate that returns its rows, run and logged as the session's own
// write like TRUNCATE: a row committed while the drain runs is either in
// the result or left for the next drain, never lost, and a snapshot taken
// before the drain commits keeps seeing the drained rows. No trigger fires.
func (s *Session) DrainTable(table string) ([]sqltypes.Row, error) {
	tbl, err := s.writeTable(table)
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

// pendingFire is a trigger event a write queued, delivered inside its
// transaction just before the commit (Session.deliver).
type pendingFire struct {
	table    string
	ev       TriggerEvent
	old, new []sqltypes.Row
}

// txnState is a transaction of the session: an explicit BEGIN … COMMIT, or
// the one of the autocommit statement writing now (Session.auto). It holds
// the MVCC transaction that carries the write set and the read snapshot,
// the staged redo record and the queued trigger events. ROLLBACK aborts the
// MVCC transaction (storage restamps the logged versions) and drops the
// queued events undelivered.
type txnState struct {
	mtx   *mvcc.Txn
	wal   *walPending // staged redo record state (nil when not logging)
	fires []pendingFire
	// err dooms the transaction: a statement failed after it had written,
	// so COMMIT aborts and returns err.
	err error
	// ending is set once COMMIT delivers: a handler cannot end the
	// transaction from inside.
	ending bool
}

// errRolledBack ends a transaction that nothing failed in: ROLLBACK, Close.
var errRolledBack = errors.New("engine: transaction rolled back")

// errTxnAborted refuses a statement sent to a doomed transaction (one whose
// err is set): only COMMIT, which returns that err, and ROLLBACK end it.
var errTxnAborted = enginerr.New(enginerr.CodeInFailedTxn,
	"engine: current transaction is aborted, commands ignored until end of transaction block")

// doomed reports whether stmt must be refused because the session's
// explicit transaction is doomed.
func (s *Session) doomed(stmt sqlparser.Statement) bool {
	if t := s.explicit(); t == nil || t.err == nil {
		return false
	}
	switch stmt.(type) {
	case *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		return false
	}
	return true
}

// BeginWrite returns the transaction a write runs under and a completion
// func that takes the write's error and returns the statement's. It is the
// one bracket every catalog write of the engine and its extensions goes
// through: DML, trigger handlers (delta capture), the IVM extension's
// scratch-table upkeep, the cross-system drain, recovery replay. A statement
// either happens or does not. In autocommit the write is a transaction of
// its own: completion delivers the statement's trigger events inside it,
// then commits and waits for the commit's fsync — or, when the write or a
// handler failed, aborts, and nothing of the statement stays. Inside an
// open transaction (an explicit one, or the one whose events are being
// delivered) the write joins it, and a write that fails after changing
// something dooms it: COMMIT returns the failure and keeps nothing.
func (s *Session) BeginWrite() (*mvcc.Txn, func(error) error) {
	if s.autoDone == nil {
		s.autoDone, s.joinDone = s.endAuto, s.endJoined
	}
	if s.txn != nil {
		s.mark = s.txn.mtx.Ops()
		return s.txn.mtx, s.joinDone
	}
	tx := s.db.cat.MVCC().Begin()
	tx.SetAutoCommit(true)
	s.auto.mtx, s.auto.wal = tx, s.walArm(tx)
	s.txn = &s.auto
	return tx, s.autoDone
}

// endAuto completes an autocommit statement's write.
func (s *Session) endAuto(err error) error {
	if s.txn != &s.auto {
		return err // completed already
	}
	if err == nil {
		err = s.deliver(&s.auto)
	}
	return s.end(&s.auto, err)
}

// endJoined completes a write that joined the open transaction.
func (s *Session) endJoined(err error) error {
	if t := s.txn; err != nil && t != nil && t.err == nil && t.mtx.Ops() != s.mark {
		t.err = err
	}
	return err
}

// fireTxn queues a DML trigger event on the open transaction.
func (s *Session) fireTxn(table string, ev TriggerEvent, oldRows, newRows []sqltypes.Row) {
	if len(oldRows)+len(newRows) > 0 {
		s.txn.fires = append(s.txn.fires, pendingFire{table: table, ev: ev, old: oldRows, new: newRows})
	}
}

// deliver runs t's queued trigger events on the session, in queue order,
// inside t: a handler's writes share t's commit, and its error aborts t.
// Consecutive INSERT events on one table are one call, and so are
// consecutive DELETE events; UPDATE events never merge, so a keyed replay
// of the deltas sees every row version in turn. Events a handler queues
// are delivered after the ones before them.
func (s *Session) deliver(t *txnState) error {
	for i := 0; i < len(t.fires); {
		f := t.fires[i]
		j := i + 1
		for f.ev != TrigUpdate && j < len(t.fires) && t.fires[j].ev == f.ev && strings.EqualFold(t.fires[j].table, f.table) {
			j++
		}
		if j > i+1 {
			n := 0
			for _, g := range t.fires[i:j] {
				n += len(g.old) + len(g.new)
			}
			rows := make([]sqltypes.Row, 0, n)
			for _, g := range t.fires[i:j] {
				rows = append(append(rows, g.old...), g.new...)
			}
			if f.ev == TrigDelete {
				f.old = rows
			} else {
				f.new = rows
			}
		}
		for _, tr := range s.db.triggersFor(f.table) {
			if tr.events[f.ev] {
				if err := tr.handler(s, f.table, f.ev, f.old, f.new); err != nil {
					return fmt.Errorf("trigger %s: %w", tr.name, err)
				}
			}
		}
		i = j
	}
	return t.err
}

// end closes t — committing it when err is nil, aborting it otherwise —
// then, when it committed, runs the DB's after-commit hook. It returns err,
// else what failed committing or making the commit durable, else the
// hook's error.
func (s *Session) end(t *txnState, err error) error {
	mgr := s.db.cat.MVCC()
	if err == nil {
		// Injected while t is still open: a panic-action fire unwinds into
		// recoverStatement, which aborts it.
		err = fault.Inject(fault.EngineCommit)
	}
	s.txn = nil
	mtx, committed := t.mtx, false
	if err != nil {
		mgr.Abort(mtx)
	} else if err = mgr.Commit(mtx); err == nil {
		committed = true
		// Group commit: block until the staged redo record's fsync, before
		// the client or the hook treats the write as acknowledged.
		err = t.wal.wait(s.db)
	}
	fires := t.fires
	clear(fires)
	*t = txnState{fires: fires[:0]}
	if committed && s.db.afterCommit != nil {
		if herr := s.db.afterCommit(s, mtx); err == nil {
			err = herr
		}
	}
	return err
}

func (s *Session) execBegin() (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("engine: transaction already in progress")
	}
	tx := s.db.cat.MVCC().Begin()
	s.txn = &txnState{mtx: tx, wal: s.walArm(tx)}
	return &Result{}, nil
}

// explicit returns the session's explicit transaction, nil when none is
// open for COMMIT or ROLLBACK to end.
func (s *Session) explicit() *txnState {
	if t := s.txn; t != nil && t != &s.auto && !t.ending {
		return t
	}
	return nil
}

func (s *Session) execCommit() (*Result, error) {
	t := s.explicit()
	if t == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	t.ending = true
	err := t.err
	if err == nil {
		err = s.deliver(t)
	}
	if err := s.end(t, err); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (s *Session) execRollback() (*Result, error) {
	t := s.explicit()
	if t == nil {
		return nil, fmt.Errorf("engine: no transaction in progress")
	}
	s.end(t, errRolledBack)
	return &Result{}, nil
}

// --- lazy scalar subquery ---

// runSubqueries runs every uncorrelated subquery of exprs, each of which
// caches its result. A write runs them before it takes its table's write
// lock: first evaluated under the lock, one that reads the table itself
// would wait for the lock its own statement holds.
func runSubqueries(exprs ...expr.Expr) (err error) {
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
	for _, e := range exprs {
		expr.Walk(e, fetch)
	}
	return err
}

// keysBeforeLock is what UPDATE and DELETE do before they take tbl's write
// lock: run the subqueries of the predicate and of the other expressions
// evaluated per row, and return the keys pred pins (nil: the scan).
func keysBeforeLock(tbl *catalog.Table, pred expr.Expr, perRow ...expr.Expr) ([]sqltypes.Value, error) {
	err := runSubqueries(pred)
	if err == nil {
		err = runSubqueries(perRow...)
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
// cached (expr.Stateless refuses unknown node kinds).
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
	n, err := l.s.bindSelect(l.sel, l.params)
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
