// Package ivmext is the reproduction of the paper's DuckDB extension
// module: it plugs the OpenIVM SQL-to-SQL compiler (internal/ivm) into a
// running engine instance. Mirroring the paper's architecture:
//
//   - a fallback-parser/statement hook intercepts CREATE MATERIALIZED VIEW,
//     compiles it, executes the generated DDL, populates V and registers
//     the view in the engine's metadata tables;
//   - base-table changes reach the delta tables ΔT without a second write
//     (the paper injects an optimizer rule that reroutes DML into ΔT): a
//     base table that feeds a view keeps a change log its commits append
//     to, and ΔT is the catalog name the compiled scripts read it through;
//   - propagation runs on REFRESH MATERIALIZED VIEW, or when a statement
//     reads a view whose bases committed changes it has yet to apply;
//   - the generated SQL scripts are retained for inspection ("stored on
//     disk" in the paper) via Extension.Scripts.
//
// A refresh runs on its caller's goroutine, as one engine transaction whose
// read timestamp is its cut: each view of its group applies the changes
// committed between the view's previous cut and this one, and reads the
// bases at the cut, so one transaction's changes to several bases land in
// one refresh and a join's product-rule terms agree. The group commits
// once, or keeps nothing. Writers never wait on a refresh. Views that share
// a base table serialize through per-view refresh locks; callers
// refreshing disjoint groups overlap. A materialized view cannot read a
// table the extension maintains (a view's storage or a ΔT), and user
// statements cannot write or drop one, nor drop a base table a view reads.
// What runs is the script PropagateSQL prints: the prepared statements are
// ivm.Compilation.Body, Propagate without its step 4, and step 4 is the
// runtime's: ΔT's entries are dropped once every view over the base has
// applied them. There is no ΔV to empty: each statement of the body reads
// ΔT where it uses it.
//
// An aggregate view folds its delta into V by one plan, the paper's
// Listing 2 upsert through V's key index (see ivm.Options), and a group
// leaves it when its row count reaches 0.
package ivmext

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"openivm/internal/catalog"
	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/fault"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

// Extension is the installed IVM extension state for one engine instance.
type Extension struct {
	db *engine.DB

	// ddl serializes CREATE and DROP MATERIALIZED VIEW, so the names a
	// CREATE finds free (freeNames) stay free until its setup runs.
	ddl sync.Mutex

	// begin and commit bracket a refresh's transaction, parsed once.
	begin, commit *engine.Prepared

	mu    sync.Mutex
	views map[string]*view // by lower-cased view name
	// feeds holds, per delta table (lower-cased name), the change log of
	// its base table: shared by every view over the base, and kept as long
	// as one reads it.
	feeds map[string]*feed

	// The extension's counters, entered into the DB's registry under
	// ivm.* by Install (docs/OPERATIONS.md says what each counts).
	propagations, deltaRowsCaptured, lazyRefreshes, refreshes atomic.Int64
	generationsSealed, captureStallNanos                      atomic.Int64
}

// view is the registry entry of one materialized view. mu is the view's
// refresh lock: a propagation locks every view of its refresh group in
// sorted name order, so callers refreshing disjoint groups overlap while
// overlapping groups serialize deadlock-free. prepared is only touched
// under it.
type view struct {
	comp *ivm.Compilation
	// feeds are the change logs of the view's base tables, in comp.Bases
	// order.
	feeds []*feed
	mu    sync.Mutex
	// from is the commit timestamp V reflects its bases at: the next
	// refresh applies what committed after it, up to its cut, and moves it
	// to the cut once the refresh's transaction has committed, which makes
	// refresh exactly-once. Written under the view's refresh lock.
	from atomic.Uint64
	// prepared is the view's propagation body (comp.Body) as a prepared
	// handle, made on first refresh, so a refresh re-executes parsed
	// statements and cached plans instead of re-rendering, re-parsing and
	// re-planning its SQL every time. Dropping the view drops it, and with
	// it the handle's plans.
	prepared *engine.Prepared
}

// feed is one base table's change log, which its delta table ΔT reads.
type feed struct {
	delta string // ΔT
	base  *catalog.Table
	log   *catalog.ChangeLog
	// readers are the views over the base, the ones still being created
	// included (guarded by Extension.mu): the log keeps what one of them
	// has yet to apply.
	readers []*view
}

// Install registers the IVM extension on db and returns its handle.
func Install(db *engine.DB) *Extension {
	ext := &Extension{
		db:     db,
		begin:  mustPrepare(db, "BEGIN"),
		commit: mustPrepare(db, "COMMIT"),
		views:  map[string]*view{},
		feeds:  map[string]*feed{},
	}
	db.RegisterStatementHook(ext.statementHook)
	r := db.Metrics()
	r.Register("ivm.propagations", ext.propagations.Load)
	r.Register("ivm.deltaRowsCaptured", ext.deltaRowsCaptured.Load)
	r.Register("ivm.lazyRefreshes", ext.lazyRefreshes.Load)
	r.Register("ivm.refreshes", ext.refreshes.Load)
	r.Register("ivm.generationsSealed", ext.generationsSealed.Load)
	r.Register("ivm.captureStallNanos", ext.captureStallNanos.Load)
	r.Register("ivm.generationsPending", ext.pendingGauge)
	return ext
}

// mustPrepare prepares a statement the parser always takes.
func mustPrepare(db *engine.DB, sql string) *engine.Prepared {
	p, err := db.PrepareScript(sql)
	if err != nil {
		panic(err)
	}
	return p
}

// pendingGauge counts the change logs holding an entry a view has yet to
// apply.
func (ext *Extension) pendingGauge() int64 {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	var n int64
	for _, f := range ext.feeds {
		if f.log.LastTS() > f.applied() {
			n++
		}
	}
	return n
}

// applied is the commit timestamp every reader of the feed has applied
// its changes up to. The caller holds the extension mutex.
func (f *feed) applied() uint64 {
	low := uint64(math.MaxUint64)
	for _, v := range f.readers {
		low = min(low, v.from.Load())
	}
	return low
}

// pending reports whether a base of the view has committed a change the
// view has yet to apply.
func (v *view) pending() bool {
	from := v.from.Load()
	for _, f := range v.feeds {
		if f.log.LastTS() > from {
			return true
		}
	}
	return false
}

// statementHook intercepts the IVM-relevant statements.
func (ext *Extension) statementHook(s *engine.Session, stmt sqlparser.Statement) (bool, *engine.Result, error) {
	// Extension-internal sessions (propagation scripts, matview setup and
	// teardown) bypass interception entirely: a propagation's own SELECTs
	// must not re-trigger a lazy refresh of the view they are refreshing.
	if s.Internal() {
		return false, nil, nil
	}
	if err := ext.guard(stmt); err != nil {
		return true, nil, err
	}
	var run func() error
	switch st := stmt.(type) {
	case *sqlparser.CreateViewStmt:
		if st.Materialized {
			run = func() error { return ext.createMaterializedView(st) }
		}
	case *sqlparser.RefreshStmt:
		run = func() error { return ext.Refresh(st.View) }
	case *sqlparser.DropStmt:
		if st.Kind == "VIEW" {
			if v := ext.view(st.Name); v != nil { // else a plain view: the engine's
				run = func() error { return ext.dropMaterializedView(v) }
			}
		}
	case *sqlparser.SelectStmt, *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		// Refresh any stale materialized view the statement reads before
		// letting normal execution proceed (the paper models this as an
		// implicit table function ahead of the plan).
		if !s.InTxn() {
			if err := ext.refreshStale(stmt); err != nil {
				return true, nil, err
			}
		}
	}
	if run == nil {
		return false, nil, nil
	}
	// Inside a transaction nothing refreshes: a statement there reads at
	// the transaction's snapshot, which a refresh committing now cannot
	// change, and a refresh is not undone by ROLLBACK.
	if s.InTxn() {
		return true, nil, fmt.Errorf("ivmext: REFRESH and materialized-view DDL cannot run inside a transaction block")
	}
	return true, &engine.Result{}, run()
}

// guard refuses a user statement that would write or drop a table the
// extension maintains, or drop a base table a view reads: either would leave
// a view that no longer equals its query.
func (ext *Extension) guard(stmt sqlparser.Statement) error {
	var name string
	drop := false
	switch st := stmt.(type) {
	case *sqlparser.InsertStmt:
		name = st.Table
	case *sqlparser.UpdateStmt:
		name = st.Table
	case *sqlparser.DeleteStmt:
		name = st.Table
	case *sqlparser.TruncateStmt:
		name = st.Table
	case *sqlparser.DropStmt:
		if st.Kind != "TABLE" {
			return nil
		}
		name, drop = st.Name, true
	default:
		return nil
	}
	ext.mu.Lock()
	defer ext.mu.Unlock()
	if kind, v := ext.maintainerLocked(name); v != nil {
		return enginerr.Newf(enginerr.CodeWrongObjectType,
			"ivmext: %s is %s %s: only its refresh writes it", name, kind, v.comp.ViewName)
	}
	if drop {
		for _, f := range ext.feeds {
			if strings.EqualFold(f.base.Name, name) {
				return enginerr.Newf(enginerr.CodeDependentObjects,
					"ivmext: cannot drop table %s: materialized view %s reads it", name, f.readers[0].comp.ViewName)
			}
		}
	}
	return nil
}

// maintainerLocked returns the view whose name, storage table or delta
// table is name, and which of them it is (worded to precede the view's
// name); nil when the extension maintains no such table. Every
// view, the ones still being created included, reads a change log, so the
// logs' readers are all of them. The caller holds the extension mutex.
func (ext *Extension) maintainerLocked(name string) (string, *view) {
	for _, f := range ext.feeds {
		for _, v := range f.readers {
			c := v.comp
			for _, m := range [...]struct{ kind, name string }{
				{"materialized view", c.ViewName},
				{"the storage table of materialized view", c.Storage},
				{"the delta table of materialized view", f.delta},
			} {
				if strings.EqualFold(m.name, name) {
					return m.kind, v
				}
			}
		}
	}
	return "", nil
}

// refreshStale refreshes, one after another, every materialized view stmt
// reads whose base tables committed changes it has yet to apply. A reader
// that arrives while another goroutine's propagation is in flight blocks on
// the view's refresh lock and reads fresh state.
func (ext *Extension) refreshStale(stmt sqlparser.Statement) error {
	for _, v := range ext.matviewsRead(stmt) {
		if !v.pending() {
			continue
		}
		ext.lazyRefreshes.Add(1)
		if err := ext.propagate(v); err != nil {
			return err
		}
	}
	return nil
}

// view returns the registry entry of a materialized view, nil when the
// name is not one.
func (ext *Extension) view(name string) *view {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	return ext.views[strings.ToLower(name)]
}

// Views lists the names of the registered materialized views.
func (ext *Extension) Views() []string {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	var out []string
	for _, v := range ext.views {
		out = append(out, v.comp.ViewName)
	}
	return out
}

// Compilation returns the stored compiler output for a view.
func (ext *Extension) Compilation(view string) (*ivm.Compilation, bool) {
	v := ext.view(view)
	if v == nil {
		return nil, false
	}
	return v.comp, true
}

// createMaterializedView compiles the definition, runs the generated DDL,
// starts the base tables' change logs, populates V and stores the metadata.
func (ext *Extension) createMaterializedView(st *sqlparser.CreateViewStmt) error {
	comp, err := ivm.NewCompiler(ext.db, ivm.DefaultOptions()).Compile(st.Name, st.Select, st.SourceSQL)
	if err != nil {
		return err
	}
	ext.ddl.Lock()
	defer ext.ddl.Unlock()
	if err := ext.readsOwnTables(comp); err != nil {
		return err
	}
	if err := ext.freeNames(comp); err != nil {
		return err
	}

	// Execute setup DDL and initial population on a fresh internal
	// session. The view table's primary key — its group-key index — is
	// filled row by row as the population inserts.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // derived state: rebuilt on recovery, never logged
	if _, err := is.ExecScript(comp.SetupSQL()); err != nil {
		return fmt.Errorf("ivmext: setup script: %w", err)
	}
	// The logs keep every change from before the population on, and the
	// view starts at the population's snapshot: a write committed at or
	// before it is in V, one committed after it in the view's first window.
	v := &view{comp: comp}
	if err := ext.attach(v); err != nil {
		return err
	}
	if err := populate(is, v); err != nil {
		ext.mu.Lock()
		ext.detachLocked(v)
		ext.mu.Unlock()
		return err
	}

	// Exclude the view's storage from the WAL and from checkpoints:
	// recovery re-executes the CREATE MATERIALIZED VIEW, which rebuilds it
	// and the change logs from the recovered base tables. Delta tables
	// store nothing.
	if t, err := ext.db.Catalog().Table(comp.Storage); err == nil {
		t.SetUnlogged()
	}

	// Metadata tables (paper: query plan, SQL string, query type).
	ext.db.Catalog().PutIVM(&catalog.IVMMetadata{
		ViewName:     comp.ViewName,
		SourceSQL:    comp.SourceSQL,
		QueryType:    comp.Class.String(),
		BaseTables:   comp.BaseTableNames(),
		DeltaTables:  deltaNames(comp),
		StorageTable: comp.Storage,
		PropagateSQL: comp.PropagateSQL(),
		SetupSQL:     comp.SetupSQL(),
	})

	ext.mu.Lock()
	ext.views[strings.ToLower(comp.ViewName)] = v
	ext.mu.Unlock()
	return nil
}

// readsOwnTables refuses a view over a table the extension maintains — a
// view's storage or a delta table: nothing would refresh it when that
// table changes.
func (ext *Extension) readsOwnTables(comp *ivm.Compilation) error {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	for _, b := range comp.Bases {
		if _, v := ext.maintainerLocked(b.Name); v != nil {
			return enginerr.Newf(enginerr.CodeFeatureNotSupported,
				"ivmext: materialized view %s reads %s, a table a materialized view maintains", comp.ViewName, b.Name)
		}
	}
	return nil
}

// freeNames refuses the compilation when a table, view or index its setup
// creates exists already: the setup's CREATE … IF NOT EXISTS would take it
// over. A ΔT that reads a change log is another view's, and shared; so is
// an index on the same base columns (the compiler names it after them).
// Indexes share the relation namespace with tables and views.
func (ext *Extension) freeNames(comp *ivm.Compilation) error {
	cat := ext.db.Catalog()
	names := []string{comp.ViewName, comp.Storage}
	for _, b := range comp.Bases {
		if t, err := cat.Table(b.Delta); err != nil || !t.ReadsChanges() {
			names = append(names, b.Delta)
		}
	}
	for _, ix := range comp.Indexes {
		if t, ok := cat.IndexTable(ix.Name); !ok || !sameIndex(t, ix) {
			names = append(names, ix.Name)
		}
	}
	for _, name := range names {
		_, isView := cat.View(name)
		_, isIndex := cat.IndexTable(name)
		if isView || isIndex || cat.HasTable(name) {
			return enginerr.Newf(enginerr.CodeDuplicateTable,
				"ivmext: materialized view %s needs the name %s, which exists already", comp.ViewName, name)
		}
	}
	return nil
}

// sameIndex reports whether t's index named ix.Name is ix: on the same base,
// over the same columns.
func sameIndex(t *catalog.Table, ix ivm.BaseIndex) bool {
	idx, _ := t.Index(ix.Name)
	return strings.EqualFold(t.Name, ix.Table) && slices.EqualFunc(idx.Columns, ix.Columns,
		func(p int, c string) bool { return strings.EqualFold(t.Columns[p].Name, c) })
}

// attach makes v a reader of its base tables' change logs, starting the
// logs nobody reads yet and pointing their delta tables at them, with
// v.from at the latest commit: the logs keep every change after it.
func (ext *Extension) attach(v *view) error {
	cat := ext.db.Catalog()
	ext.mu.Lock()
	defer ext.mu.Unlock()
	v.from.Store(cat.MVCC().LatestTS())
	for _, b := range v.comp.Bases {
		key := strings.ToLower(b.Delta)
		f := ext.feeds[key]
		if f == nil {
			base, err := cat.Table(b.Name)
			var dt *catalog.Table
			if err == nil {
				dt, err = cat.Table(b.Delta)
			}
			if err != nil {
				ext.detachLocked(v)
				return err
			}
			f = &feed{delta: b.Delta, base: base}
			// No commit is half published while the log starts: each one
			// is either visible to the population's snapshot or logged.
			cat.MVCC().WithCommitLock(func() {
				f.log = base.Track(&ext.deltaRowsCaptured, &ext.captureStallNanos)
			})
			dt.ReadChanges(f.log)
			ext.feeds[key] = f
		}
		f.readers = append(f.readers, v)
		v.feeds = append(v.feeds, f)
	}
	return nil
}

// detachLocked removes v from the readers of its change logs and returns
// the logs it was the last reader of, which stop. The caller holds the
// extension mutex.
func (ext *Extension) detachLocked(v *view) []*feed {
	var dead []*feed
	for _, f := range v.feeds {
		f.readers = slices.DeleteFunc(f.readers, func(r *view) bool { return r == v })
		key := strings.ToLower(f.delta)
		if len(f.readers) == 0 && ext.feeds[key] == f {
			delete(ext.feeds, key)
			f.base.Untrack()
			dead = append(dead, f)
		}
	}
	return dead
}

// populate fills V at one snapshot, in a transaction of its own, and
// starts the view at that snapshot's timestamp. The snapshot must not see
// an in-place upsert before it commits, or its commit would reach V twice:
// the bases are held off that path (catalog.Table.HoldInPlace), and one
// that took it already commits before the snapshot is taken.
func populate(is *engine.Session, v *view) error {
	for _, f := range v.feeds {
		defer f.base.HoldInPlace()()
	}
	if _, err := is.Exec("BEGIN"); err != nil {
		return err
	}
	from := is.ReadTS()
	if _, err := is.ExecScript(v.comp.PopulateSQLText()); err != nil {
		_, _ = is.Exec("ROLLBACK") // the populate error is the one to report
		return fmt.Errorf("ivmext: populate script: %w", err)
	}
	if _, err := is.Exec("COMMIT"); err != nil {
		return fmt.Errorf("ivmext: populate script: %w", err)
	}
	v.from.Store(from)
	return nil
}

func deltaNames(comp *ivm.Compilation) []string {
	var out []string
	for _, b := range comp.Bases {
		out = append(out, b.Delta)
	}
	return out
}

// dropMaterializedView tears one view down completely: registry entry
// (and with it the prepared propagation scripts and their plans), the
// change logs and delta tables no surviving view needs, the storage table
// and metadata.
func (ext *Extension) dropMaterializedView(v *view) error {
	ext.ddl.Lock()
	defer ext.ddl.Unlock()
	// Serialize against propagation: lock the view's whole refresh group,
	// so a refresh mid-flight finishes before its scripts and delta
	// tables disappear underneath it.
	group, names, _ := ext.refreshGroup(v)
	defer lockViews(group, names)()
	comp := v.comp

	ext.mu.Lock()
	delete(ext.views, strings.ToLower(comp.ViewName))
	dead := ext.detachLocked(v) // logs still feeding surviving views stay
	ext.mu.Unlock()

	// Engine-side drops run through a fresh session so they follow the
	// ordinary DDL paths (epoch bumps, catalog locking). Marked internal,
	// so the hook pass skips these statements entirely.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // the hook wrapper logs the single DROP VIEW record
	for _, f := range dead {
		if _, err := is.Exec("DROP TABLE IF EXISTS " + f.delta); err != nil {
			return fmt.Errorf("ivmext: dropping delta table %s: %w", f.delta, err)
		}
	}
	cat := ext.db.Catalog()
	cat.DropIVM(comp.ViewName)
	if comp.Storage != comp.ViewName {
		// Hidden columns: ViewName is a plain view over the storage table.
		if _, err := is.Exec("DROP VIEW IF EXISTS " + comp.ViewName); err != nil {
			return fmt.Errorf("ivmext: dropping exposed view %s: %w", comp.ViewName, err)
		}
	}
	if _, err := is.Exec("DROP TABLE IF EXISTS " + comp.Storage); err != nil {
		return fmt.Errorf("ivmext: dropping storage table %s: %w", comp.Storage, err)
	}
	// An index on a base goes with the last view that probes by it. Its
	// base is logged, so a checkpoint may hold the index: the drop is
	// logged, unlike the setup's create, which recovery re-executes.
	ls := ext.db.NewSession()
	defer ls.Close()
	ls.SetInternal(true)
	for _, ix := range comp.Indexes {
		if !ext.indexNeeded(ix.Name) {
			if _, err := ls.Exec("DROP INDEX IF EXISTS " + ix.Name); err != nil {
				return fmt.Errorf("ivmext: dropping index %s: %w", ix.Name, err)
			}
		}
	}
	return nil
}

// indexNeeded reports whether a registered view's setup creates the index.
func (ext *Extension) indexNeeded(name string) bool {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	for _, v := range ext.views {
		if slices.ContainsFunc(v.comp.Indexes, func(ix ivm.BaseIndex) bool { return ix.Name == name }) {
			return true
		}
	}
	return false
}

// Refresh runs the propagation script for one view (REFRESH MATERIALIZED
// VIEW, or the lazy path before a query).
func (ext *Extension) Refresh(view string) error {
	v := ext.view(view)
	if v == nil {
		return fmt.Errorf("ivmext: %q is not a materialized view", view)
	}
	return ext.propagate(v)
}

// refreshGroup computes the target's refresh group under the extension
// mutex: the transitive closure of views linked by a shared base table,
// found by walking the readers of each change log the group reads. Views in
// one group must serialize — they read the same change logs; views in
// different groups share no base table and can propagate concurrently. A
// view reads no other view's tables (CREATE refuses it), so no other edge
// links two views. Returns the group, its sorted lower-cased view names (the
// lock order) and the change logs the group reads.
func (ext *Extension) refreshGroup(target *view) (map[string]*view, []string, []*feed) {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	group := map[string]*view{}
	var logs []*feed
	var add func(v *view)
	add = func(v *view) {
		name := strings.ToLower(v.comp.ViewName)
		if _, ok := group[name]; ok {
			return
		}
		group[name] = v
		for _, f := range v.feeds {
			if !slices.Contains(logs, f) {
				logs = append(logs, f)
				for _, r := range f.readers {
					add(r)
				}
			}
		}
	}
	add(target)
	names := make([]string, 0, len(group))
	for n := range group {
		names = append(names, n)
	}
	sort.Strings(names)
	return group, names, logs
}

// lockViews takes the refresh locks of the group's views in the given
// (sorted) name order and returns the unlock function. The entries outlive
// registry removal, so a group computed just before a concurrent drop
// still locks safely.
func lockViews(group map[string]*view, names []string) func() {
	for _, n := range names {
		group[n].mu.Lock()
	}
	return func() {
		for i := len(names) - 1; i >= 0; i-- {
			group[names[i]].mu.Unlock()
		}
	}
}

// propagate refreshes the target view together with every other view in
// its refresh group (views sharing a base table), on the caller's
// goroutine:
//
//  1. take the group's view locks in sorted name order — deadlock-free,
//     and callers on independent groups overlap;
//  2. re-check for pending changes: a propagation that ran while this one
//     waited may have applied them already (refresh coalescing);
//  3. begin one engine transaction: its read timestamp is the cut, so a
//     transaction's changes to the group's bases are all at or before it,
//     or all after, and every body reads the bases at it;
//  4. apply: run the body of each view over what its bases committed
//     after its from, up to the cut, then commit once and move every
//     view's from to the cut;
//  5. drop the change-log entries every view over the base has applied
//     (the script's step 4 for ΔT).
//
// A failure anywhere — a body, the commit — aborts the transaction: no
// view's write lands and every from stays, so the retry applies each
// window whole, once. The transaction is the only writer of the group's
// views, so while no other transaction or snapshot is open its upserts
// take V's in-place path, as an autocommit statement's do.
func (ext *Extension) propagate(target *view) error {
	group, names, logs := ext.refreshGroup(target)
	defer lockViews(group, names)()

	// Drop group members unregistered while we waited for the locks
	// (concurrent DROP MATERIALIZED VIEW), and coalesce: everything pending
	// when we were called may have been applied by a propagation that held
	// these locks before us.
	ext.mu.Lock()
	var views []*view
	pending := false
	for _, n := range names {
		if v := group[n]; ext.views[n] == v {
			views = append(views, v)
			pending = pending || v.pending()
		}
	}
	ext.mu.Unlock()
	if !pending {
		return nil
	}

	if err := fault.Inject(fault.IVMSeal); err != nil {
		return err
	}
	defer ext.release(logs)

	// Propagation runs on a fresh internal session: its transaction stays
	// invisible to the sessions whose DML logged the changes, and Close
	// rolls back what a failure left open. The group's view locks guarantee
	// a given script never executes on two goroutines at once.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // propagation touches only unlogged derived tables
	if _, err := is.ExecStmts(ext.begin); err != nil {
		return err
	}
	to := is.ReadTS()
	nonEmpty := false
	for _, v := range views {
		ran, err := ext.applyView(is, v, to)
		if err != nil {
			return err
		}
		nonEmpty = nonEmpty || ran
	}
	if err := fault.Inject(fault.IVMCombine); err != nil {
		return err
	}
	if _, err := is.ExecStmts(ext.commit); err != nil {
		return fmt.Errorf("ivmext: propagation: %w", err)
	}
	for _, v := range views {
		v.from.Store(to)
	}
	if nonEmpty {
		ext.generationsSealed.Add(1)
	}
	ext.refreshes.Add(1)
	return nil
}

// release ends a propagation's reading of its group's change logs: the
// windows close, and the entries every reader has applied go.
func (ext *Extension) release(logs []*feed) {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	for _, f := range logs {
		f.log.Trim(f.applied())
	}
}

// applyView runs the view's body in the refresh's transaction over what its
// bases committed in (v.from, to] — the windows its delta tables read — and
// reports whether there was anything to apply.
func (ext *Extension) applyView(is *engine.Session, v *view, to uint64) (bool, error) {
	rows := 0
	for _, f := range v.feeds {
		rows += f.log.SetWindow(v.from.Load(), to)
	}
	if rows == 0 {
		return false, nil
	}
	comp := v.comp
	if err := fault.Inject(fault.IVMPropagateView); err != nil {
		return false, fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	ext.propagations.Add(1)
	body, err := ext.preparedBody(v)
	if err == nil {
		_, err = is.ExecStmts(body)
	}
	if err != nil {
		return false, fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	return true, nil
}

// preparedBody returns the prepared handle of the view's body, preparing
// it on first use. A compiled script is immutable, so the handle never
// invalidates. The caller holds the view's refresh lock, which is what
// makes it the handle's only executor.
func (ext *Extension) preparedBody(v *view) (*engine.Prepared, error) {
	if v.prepared == nil {
		p, err := ext.db.PrepareScript(v.comp.Body.SQL())
		if err != nil {
			return nil, err
		}
		v.prepared = p
	}
	return v.prepared, nil
}

// Scripts returns the stored setup and propagation SQL for a view.
func (ext *Extension) Scripts(view string) (setup, propagate string, err error) {
	v := ext.view(view)
	if v == nil {
		return "", "", fmt.Errorf("ivmext: %q is not a materialized view", view)
	}
	return v.comp.SetupSQL(), v.comp.PropagateSQL(), nil
}

// matviewsRead collects the registered materialized views a statement
// reads: named in the FROM clauses (joins, derived tables), CTEs,
// set-operation arms and subquery expressions of a SELECT, reached through
// the definition of a plain view, or read by the source and the
// predicates of INSERT … SELECT, UPDATE and DELETE.
func (ext *Extension) matviewsRead(stmt sqlparser.Statement) []*view {
	w := readWalk{ext: ext}
	w.visit = func(x sqlparser.Expr) bool {
		if sq, ok := x.(*sqlparser.SubqueryExpr); ok {
			w.sel(sq.Select)
		}
		return true
	}
	switch st := stmt.(type) {
	case *sqlparser.SelectStmt:
		w.sel(st)
	case *sqlparser.InsertStmt:
		w.sel(st.Select)
	case *sqlparser.UpdateStmt:
		for _, a := range st.Set {
			w.expr(a.Value)
		}
		w.expr(st.Where)
	case *sqlparser.DeleteStmt:
		w.expr(st.Where)
	}
	return w.views
}

// readWalk is the state of one matviewsRead traversal.
type readWalk struct {
	ext   *Extension
	views []*view
	visit func(sqlparser.Expr) bool // WalkExpr callback: descends into subqueries
}

// expr descends into the subqueries of an expression.
func (w *readWalk) expr(e sqlparser.Expr) { sqlparser.WalkExpr(e, w.visit) }

func (w *readWalk) sel(s *sqlparser.SelectStmt) {
	if s == nil {
		return
	}
	for _, cte := range s.CTEs {
		w.sel(cte.Select)
	}
	for _, it := range s.Items {
		w.expr(it.Expr)
	}
	for _, row := range s.Values {
		for _, e := range row {
			w.expr(e)
		}
	}
	if s.From != nil {
		w.ref(s.From)
	}
	w.expr(s.Where)
	w.expr(s.Having)
	w.sel(s.Next)
}

func (w *readWalk) ref(tr sqlparser.TableRef) {
	switch t := tr.(type) {
	case *sqlparser.NamedTable:
		w.named(t.Name)
	case *sqlparser.SubqueryTable:
		w.sel(t.Select)
	case *sqlparser.JoinTable:
		w.ref(t.Left)
		w.ref(t.Right)
		w.expr(t.On)
	case *sqlparser.SeriesTable:
		w.expr(t.Lo)
		w.expr(t.Hi)
	}
}

func (w *readWalk) named(name string) {
	if v := w.ext.view(name); v != nil {
		for _, seen := range w.views {
			if seen == v {
				return
			}
		}
		w.views = append(w.views, v)
		return
	}
	// A plain view reads what its definition reads. One that does not
	// parse as a SELECT is the binder's error to report.
	if v, ok := w.ext.db.Catalog().View(name); ok {
		if def, err := sqlparser.Parse(v.SourceSQL); err == nil {
			if sel, ok := def.(*sqlparser.SelectStmt); ok {
				w.sel(sel)
			}
		}
	}
}
