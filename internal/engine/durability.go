// Durability: redo capture on the DML/DDL paths, checkpoint assembly,
// and recovery replay — the engine side of the storage.Backend
// contract.
//
// Redo records are derived from the MVCC undo log at commit time: the
// transaction's CommitHook (running inside the commit critical section,
// so records enter the log in commit-timestamp order) walks the write
// log, resolves each op's slot to its committed row payload, and stages
// one CommitRecord. The statement then group-commits: WaitDurable
// batches concurrent committers behind a single fsync.
//
// Recovery replays the newest checkpoint plus the log tail, one
// transaction per record through the same write bracket DML uses (no
// triggers: none is attached yet), then re-executes every CREATE
// MATERIALIZED VIEW — rebuilding view storage, delta tables and capture
// triggers from recovered base state in one stroke — and re-attaches the
// SQL-created triggers. IVM-derived tables are unlogged; internal
// extension sessions carry a WAL bypass.
package engine

import (
	"fmt"
	"strings"

	"openivm/internal/catalog"
	"openivm/internal/enginerr"
	"openivm/internal/mvcc"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
)

// walLogging reports whether this session's statements produce redo
// records: a durable backend finished recovery and the session is not
// an extension-internal bypass session.
func (s *Session) walLogging() bool { return s.db.logging.Load() && !s.walBypass }

// walPending tracks one transaction's staged redo record: the LSN to
// group-commit on and any append error (surfaced at commit completion —
// the MVCC commit has already published by the time the hook runs).
type walPending struct {
	lsn uint64
	err error
}

// wait completes group commit after a successful MVCC commit: block
// until the staged record's fsync, then take a checkpoint if the log
// has grown past the threshold. Safe on a nil receiver (logging off).
// Any I/O-classified failure on this path degrades the engine to
// read-only (see robustness.go): the backend's sticky flushErr would
// refuse every later commit anyway, so the engine fails fast instead.
func (wp *walPending) wait(db *DB) error {
	if wp == nil {
		return nil
	}
	if wp.err != nil {
		return db.noteStorageErr(wp.err)
	}
	if wp.lsn == 0 {
		return nil // read-only or unlogged-only transaction
	}
	be := db.be()
	if err := be.WaitDurable(wp.lsn); err != nil {
		return db.noteStorageErr(err)
	}
	if be.NeedCheckpoint() {
		return db.Checkpoint()
	}
	return nil
}

// walArm attaches redo capture to tx. The returned walPending is nil
// when the session does not log. The hook runs under the commit mutex:
// it must only read the write log and stage the record — the fsync
// happens later, in walPending.wait, outside the critical section.
func (s *Session) walArm(tx *mvcc.Txn) *walPending {
	if !s.walLogging() {
		return nil
	}
	wp := &walPending{}
	tx.CommitHook = func(ts uint64) {
		rec := storage.CommitRecord{CommitTS: ts}
		tx.Writes(func(store mvcc.Store, ops []mvcc.Op) {
			tbl := store.(*catalog.Table)
			if tbl.Unlogged() {
				return
			}
			name := tbl.Name
			for _, op := range ops {
				switch op.Kind {
				case mvcc.OpInsert:
					rec.Ops = append(rec.Ops, storage.RedoOp{Table: name, Kind: storage.OpInsert, Row: tbl.RowAt(op.Slot)})
				case mvcc.OpDelete:
					rec.Ops = append(rec.Ops, storage.RedoOp{Table: name, Kind: storage.OpDelete, Row: tbl.RowAt(op.Slot)})
				case mvcc.OpReplace:
					rec.Ops = append(rec.Ops, storage.RedoOp{Table: name, Kind: storage.OpUpsert, Row: tbl.RowAt(op.Slot)})
				case mvcc.OpTruncate:
					rec.Ops = append(rec.Ops, storage.RedoOp{Table: name, Kind: storage.OpTruncate})
				}
			}
		})
		if len(rec.Ops) == 0 {
			return
		}
		wp.lsn, wp.err = s.db.be().AppendCommit(&rec)
	}
	return wp
}

// be reads the backend pointer under its lock (a degraded re-attach
// swaps it while stats readers may be live).
func (db *DB) be() storage.Backend {
	db.backendMu.RLock()
	b := db.backend
	db.backendMu.RUnlock()
	return b
}

// setBackend swaps the backend pointer (instance setup and degraded
// re-attach only); the backend's counters replace its predecessor's in
// the registry.
func (db *DB) setBackend(b storage.Backend) {
	db.backendMu.Lock()
	db.backend = b
	db.backendMu.Unlock()
	b.Register(db.metrics)
}

// appendDDL stages and syncs one DDL record, degrading the engine on an
// I/O-classified failure (DDL pays its own fsync, so the failure is
// observed here, not at group commit).
func (s *Session) appendDDL(rec *storage.DDLRecord) error {
	return s.db.noteStorageErr(s.db.be().AppendDDL(rec))
}

// Close flushes and releases the storage backend. The DB must not be
// used afterwards.
func (db *DB) Close() error {
	db.logging.Store(false)
	return db.be().Close()
}

// AttachBackend installs a durable storage backend: it replays the
// backend's checkpoint and log into the catalog (restoring committed
// state to a prefix-consistent point), re-executes every CREATE
// MATERIALIZED VIEW so view storage, delta tables and capture triggers
// are rebuilt against recovered base state, and then arms redo logging.
//
// Call it during instance setup — after extensions are installed (the
// IVM extension must be present to rebuild materialized views) and
// before the DB serves sessions concurrently.
func (db *DB) AttachBackend(b storage.Backend) error {
	if db.degr.flag.Load() {
		return db.reattachDegraded(b)
	}
	if db.logging.Load() {
		return fmt.Errorf("engine: a durable backend is already attached")
	}
	db.setBackend(b)
	if !b.Durable() {
		return nil
	}
	s := db.NewSession()
	s.SetWALBypass(true)
	defer s.Close()
	rec := &recoverer{s: s, mv: map[string]string{}}
	if err := b.Recover(rec); err != nil {
		return err
	}
	for _, name := range rec.mvOrder {
		sql, ok := rec.mv[name]
		if !ok {
			continue // dropped later in the log
		}
		stmt := "CREATE MATERIALIZED VIEW " + name + " AS " + sql
		if _, err := s.ExecScript(stmt); err != nil {
			return enginerr.Wrap(enginerr.CodeRecoveryCorruption,
				fmt.Errorf("engine: rebuilding materialized view %s: %w", name, err))
		}
	}
	// Triggers last: every table they name exists by now, and nothing
	// replayed above may fire them.
	for _, t := range rec.triggers {
		if !db.cat.HasTable(t.Table) {
			continue // its table was dropped later in the log
		}
		if err := db.addNamedTrigger(t); err != nil {
			return enginerr.Wrap(enginerr.CodeRecoveryCorruption,
				fmt.Errorf("engine: re-attaching trigger %s on %s: %w", t.Name, t.Table, err))
		}
	}
	db.bumpSchemaEpoch()
	db.logging.Store(true)
	return nil
}

// recoverer applies the durable history to the catalog. Base-table
// state is written one transaction per replayed record through the
// recovery session's write bracket (logging is not armed yet, and no
// trigger is attached); materialized views and SQL-created triggers are
// collected and rebuilt after replay, so their records carry definitions
// only.
type recoverer struct {
	s        *Session
	mvOrder  []string          // creation order
	mv       map[string]string // lower(name) -> defining SQL; deleted on drop
	triggers []storage.TriggerSnap
}

func (r *recoverer) addMatView(name, sql string) {
	key := strings.ToLower(name)
	if _, ok := r.mv[key]; !ok {
		r.mvOrder = append(r.mvOrder, key)
	}
	r.mv[key] = sql
}

// dropMatView removes a pending rebuild, reporting whether one existed.
func (r *recoverer) dropMatView(name string) bool {
	key := strings.ToLower(name)
	if _, ok := r.mv[key]; ok {
		delete(r.mv, key)
		return true
	}
	return false
}

// createTable replays a table definition and its population, if any.
func (r *recoverer) createTable(name string, defs []storage.ColumnDef, pk []string, rows []sqltypes.Row) (*catalog.Table, error) {
	cols := make([]catalog.Column, len(defs))
	for i, c := range defs {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull, Default: c.Default, HasDef: c.HasDefault}
	}
	tbl, err := r.s.db.cat.CreateTable(name, cols, pk, false)
	if err != nil || len(rows) == 0 {
		return tbl, err
	}
	return tbl, r.s.InsertRows(tbl, rows)
}

// Checkpoint restores a full snapshot: tables with their indexes and
// rows, plain views, and the deferred materialized-view and trigger
// lists.
func (r *recoverer) Checkpoint(snap *storage.CheckpointData) error {
	for _, ts := range snap.Tables {
		// Indexes are built over the loaded rows (the chunked bulk build),
		// not maintained row by row during the load.
		tbl, err := r.createTable(ts.Name, ts.Columns, ts.PrimaryKey, ts.Rows)
		if err != nil {
			return err
		}
		for _, ix := range ts.Indexes {
			if _, err := tbl.CreateIndex(ix.Name, ix.Columns, ix.Unique, false); err != nil {
				return err
			}
		}
	}
	for _, v := range snap.Views {
		if err := r.s.db.cat.CreateView(v.Name, v.SQL); err != nil {
			return err
		}
	}
	for _, mv := range snap.MatViews {
		r.addMatView(mv.Name, mv.SQL)
	}
	r.triggers = append(r.triggers, snap.Triggers...)
	return nil
}

// Commit replays one committed transaction's logical redo ops as one
// transaction. A delete whose row is already absent is ignored — Z-set
// semantics, and the tolerance a record trailing the checkpoint that
// already holds its effect needs.
func (r *recoverer) Commit(rec *storage.CommitRecord) error {
	tx, done := r.s.BeginWrite()
	for _, op := range rec.Ops {
		tbl, err := r.s.db.cat.Table(op.Table)
		if err != nil {
			return done(enginerr.Wrap(enginerr.CodeRecoveryCorruption,
				fmt.Errorf("engine: redo for unknown table %q: %w", op.Table, err)))
		}
		switch op.Kind {
		case storage.OpInsert:
			err = tbl.InsertTxn(tx, op.Row)
		case storage.OpUpsert:
			_, _, _, _, err = tbl.UpsertBatchTxn(tx, []sqltypes.Row{op.Row}, nil, false)
		case storage.OpDelete:
			_ = tbl.ApplyDeltasTxn(tx, []sqltypes.Row{op.Row}, []bool{false}) // absent: see above
		case storage.OpTruncate:
			_, _, err = tbl.TruncateTxn(tx, false)
		}
		if err != nil {
			return done(err)
		}
	}
	return done(nil)
}

// DDL replays one schema change. Creates are skipped when the object
// already exists: a crash can land between a DDL's catalog mutation
// entering a checkpoint and its record being appended after it, so the
// record may trail the snapshot that already contains its effect.
func (r *recoverer) DDL(rec *storage.DDLRecord) error {
	cat := r.s.db.cat
	switch rec.Kind {
	case storage.DDLCreateTable:
		if cat.HasTable(rec.Name) {
			return nil
		}
		_, err := r.createTable(rec.Name, rec.Columns, rec.PrimaryKey, rec.Rows)
		return err
	case storage.DDLCreateIndex:
		tbl, err := cat.Table(rec.Table)
		if err != nil {
			return enginerr.Wrap(enginerr.CodeRecoveryCorruption,
				fmt.Errorf("engine: index DDL for unknown table %q: %w", rec.Table, err))
		}
		if _, err := tbl.CreateIndex(rec.Name, rec.IdxColumns, rec.Unique, true); err != nil {
			return err
		}
	case storage.DDLCreateView:
		if _, ok := cat.View(rec.Name); ok {
			return nil
		}
		return cat.CreateView(rec.Name, rec.SQL)
	case storage.DDLCreateMatView:
		r.addMatView(rec.Name, rec.SQL)
	case storage.DDLCreateTrigger:
		r.triggers = append(r.triggers, storage.TriggerSnap{Name: rec.Name, Table: rec.Table, Events: rec.Events, Handler: rec.Handler})
	case storage.DDLDrop:
		switch rec.ObjectKind {
		case "TABLE":
			_, err := cat.DropTable(rec.Name, true)
			return err
		case "VIEW":
			if r.dropMatView(rec.Name) {
				return nil // rebuild was pending; cancel it
			}
			_, err := cat.DropView(rec.Name, true)
			return err
		case "INDEX":
			if tbl, err := cat.Table(rec.Table); err == nil {
				tbl.DropIndex(rec.Name)
			}
		}
	}
	return nil
}

// Checkpoint writes a full columnar snapshot of the logged catalog
// state and truncates the log behind it. The dump runs with both the
// MVCC commit lock and the backend's append lock held, so no commit can
// land between publishing its writes and appending its record — every
// log record is either covered by the snapshot or ordered after it.
func (db *DB) Checkpoint() error {
	if !db.logging.Load() {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	var cerr error
	be := db.be()
	db.cat.MVCC().WithCommitLock(func() {
		lastLSN, err := be.BeginCheckpoint()
		if err != nil {
			cerr = err
			return
		}
		snap, err := db.assembleCheckpoint(lastLSN)
		if err != nil {
			be.EndCheckpoint()
			cerr = err
			return
		}
		cerr = be.Checkpoint(snap)
	})
	return db.noteStorageErr(cerr)
}

// assembleCheckpoint dumps every logged table, plain view and
// materialized-view definition. The plain view a materialized view with
// hidden columns is exposed through is excluded: the matview's CREATE is
// re-executed on recovery and recreates it.
func (db *DB) assembleCheckpoint(lastLSN uint64) (*storage.CheckpointData, error) {
	cat := db.cat
	snap := &storage.CheckpointData{LastLSN: lastLSN, LastTS: cat.MVCC().Current().ReadTS}

	ivmOwned := map[string]bool{}
	for _, m := range cat.IVMViews() {
		ivmOwned[strings.ToLower(m.ViewName)] = true
		snap.MatViews = append(snap.MatViews, storage.ViewSnap{Name: m.ViewName, SQL: m.SourceSQL})
	}

	for _, name := range cat.TableNames() {
		tbl, err := cat.Table(name)
		if err != nil {
			continue // dropped concurrently with assembly
		}
		if tbl.Unlogged() {
			continue
		}
		ts := storage.TableSnap{
			Name:       tbl.Name,
			PrimaryKey: tbl.PrimaryKeyColumnNames(),
			Rows:       tbl.Rows(),
		}
		ts.Columns = make([]storage.ColumnDef, len(tbl.Columns))
		for i, c := range tbl.Columns {
			ts.Columns[i] = storage.ColumnDef{Name: c.Name, Type: c.Type, NotNull: c.NotNull, HasDefault: c.HasDef, Default: c.Default}
		}
		for _, ix := range tbl.Indexes() {
			def := storage.IndexDef{Name: ix.Name, Unique: ix.Unique}
			for _, pos := range ix.Columns {
				def.Columns = append(def.Columns, tbl.Columns[pos].Name)
			}
			ts.Indexes = append(ts.Indexes, def)
		}
		snap.Tables = append(snap.Tables, ts)
	}

	for _, v := range cat.Views() {
		if ivmOwned[strings.ToLower(v.Name)] {
			continue
		}
		snap.Views = append(snap.Views, storage.ViewSnap{Name: v.Name, SQL: v.SourceSQL})
	}
	snap.Triggers = db.namedTriggers()
	return snap, nil
}

// logCreateTable logs a CREATE TABLE. rows carries the CREATE TABLE AS
// SELECT population, which rides in the DDL record so that table and rows
// are one record.
func (s *Session) logCreateTable(tbl *catalog.Table, rows []sqltypes.Row) error {
	if !s.walLogging() || tbl.Unlogged() {
		return nil
	}
	rec := &storage.DDLRecord{
		Kind:       storage.DDLCreateTable,
		Name:       tbl.Name,
		PrimaryKey: tbl.PrimaryKeyColumnNames(),
		Rows:       rows,
	}
	rec.Columns = make([]storage.ColumnDef, len(tbl.Columns))
	for i, c := range tbl.Columns {
		rec.Columns[i] = storage.ColumnDef{Name: c.Name, Type: c.Type, NotNull: c.NotNull, HasDefault: c.HasDef, Default: c.Default}
	}
	return s.appendDDL(rec)
}

// logHookDDL logs schema changes that a statement hook handled before
// the engine's own dispatch saw them: materialized-view creation (the
// record carries only name and defining SQL — recovery re-executes the
// CREATE) and the extension's view/table drops. Runs after the hook
// succeeded, so the record reflects an applied change.
func (s *Session) logHookDDL(stmt sqlparser.Statement) error {
	if !s.walLogging() {
		return nil
	}
	switch st := stmt.(type) {
	case *sqlparser.CreateViewStmt:
		if st.Materialized {
			if _, ok := s.db.cat.IVM(st.Name); ok {
				return s.appendDDL(&storage.DDLRecord{
					Kind: storage.DDLCreateMatView, Name: st.Name, SQL: st.SourceSQL,
				})
			}
		}
	case *sqlparser.DropStmt:
		switch st.Kind {
		case "VIEW":
			return s.appendDDL(&storage.DDLRecord{
				Kind: storage.DDLDrop, Name: st.Name, ObjectKind: "VIEW",
			})
		case "TABLE":
			if !s.db.cat.HasTable(st.Name) {
				return s.appendDDL(&storage.DDLRecord{
					Kind: storage.DDLDrop, Name: st.Name, ObjectKind: "TABLE",
				})
			}
		}
	}
	return nil
}
