// Package ivmext is the reproduction of the paper's DuckDB extension
// module: it plugs the OpenIVM SQL-to-SQL compiler (internal/ivm) into a
// running engine instance. Mirroring the paper's architecture:
//
//   - a fallback-parser/statement hook intercepts CREATE MATERIALIZED VIEW,
//     compiles it, executes the generated DDL, populates V and registers
//     the view in the engine's metadata tables;
//   - base-table INSERT/DELETE/UPDATE statements are intercepted (the
//     paper's injected optimizer rule; here, engine row-triggers) and
//     rerouted into the delta tables ΔT;
//   - propagation runs eagerly after every base-table change or lazily on
//     REFRESH / when the view is queried, controlled by PRAGMA ivm_mode;
//   - the generated SQL scripts are retained for inspection ("stored on
//     disk" in the paper) via Extension.Scripts and SaveScripts.
//
// Refresh is concurrent and pipelined: capture writes ΔT inside the
// writer's transaction; a propagation seals the generation in O(1) by
// freezing ΔT — the table itself is the sealed generation, and captures
// that arrive while it is frozen wait in memory and become the next
// generation when the propagation has consumed ΔT; and independent views
// refresh in parallel on a bounded worker pool — views that share a delta
// table or feed each other serialize through per-view refresh locks,
// everything else overlaps. What runs is the script PropagateSQL prints:
// the prepared statements are steps 1–3 of ivm.Compilation.Propagate, and
// step 4 (truncating ΔV and ΔT) goes through the catalog.
//
// Compiler switches are engine pragmas:
//
//	PRAGMA ivm_mode = 'eager' | 'lazy'        (default lazy)
//	PRAGMA ivm_strategy = 'upsert_left_join' | 'union_regroup' | 'full_outer_join' | 'auto'
//	PRAGMA ivm_empty = 'sum_zero' | 'hidden_count'
//	PRAGMA ivm_index = 'on' | 'off'
//	PRAGMA ivm_refresh_workers = N            (refresh-scheduler pool size)
//
// 'auto' defers the combine-strategy choice to refresh time, picking by
// the |ΔV| / |V| ratio — the cost-based selection the paper motivates.
package ivmext

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openivm/internal/catalog"
	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/fault"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// Extension is the installed IVM extension state for one engine instance.
type Extension struct {
	db *engine.DB

	mu    sync.Mutex
	views map[string]*view // by lower-cased view name
	// deltas holds the per-delta-table generation state, keyed by the
	// lower-cased delta table name. Shared across every view fed by the
	// table; an entry lives exactly as long as the table's capture trigger.
	deltas map[string]*deltaState

	// writers holds, per writer session with a transaction open, what the
	// transaction has captured (guarded by writersMu).
	writersMu sync.Mutex
	writers   map[*engine.Session]*writerTxn

	// pool bounds how many propagations run concurrently
	// (PRAGMA ivm_refresh_workers; capacity 1 reproduces serial refresh).
	pool workerPool

	// inFlight counts propagations currently applying, feeding the
	// ParallelRefreshes stat.
	inFlight atomic.Int64

	// Stats counts propagation runs and captured delta rows (benchmarks,
	// the demo shell and the wire stats endpoint read these). The int64
	// counters are updated atomically — capture runs on every writer
	// session and propagations overlap; AutoChoices stays guarded by mu.
	Stats struct {
		// Propagations counts per-view propagation bodies applied.
		Propagations int64
		// DeltasCaught counts rows appended to delta tables by capture.
		DeltasCaught int64
		// EagerRefreshes / LazyRefreshes count scheduler entries by path.
		EagerRefreshes int64
		LazyRefreshes  int64
		// Refreshes counts completed refresh-group propagations.
		Refreshes int64
		// ParallelRefreshes counts propagations that overlapped with at
		// least one other in-flight propagation.
		ParallelRefreshes int64
		// GenerationsSealed counts generation seals (a non-empty ΔT frozen
		// for a propagation).
		GenerationsSealed int64
		// CaptureStallNanos accumulates writer wait time on the delta's
		// generation lock — bounded by a seal's freeze or a consume, never
		// by a propagation.
		CaptureStallNanos int64
		// AutoChoices counts cost-based strategy selections by name
		// (guarded by the extension mutex).
		AutoChoices map[string]int
	}
}

// view is the registry entry of one materialized view. mu is the view's
// refresh lock: a propagation locks every view of its refresh group in
// sorted name order (after taking a pool slot), so groups with disjoint
// view sets run fully in parallel while overlapping groups serialize
// deadlock-free. applied and prepared are only touched under it.
type view struct {
	comp *ivm.Compilation
	// deltas is the generation state of each base table's delta table, in
	// comp.Bases order.
	deltas []*deltaState
	mu     sync.Mutex
	// applied records the newest sealed generation the view's propagation
	// body has consumed from each of its delta tables. A marker that trails
	// the delta's generation is an application still owed; a frozen ΔT
	// whose every dependent view is current can be consumed.
	applied map[*deltaState]int64
	// prepared holds the view's propagation bodies as prepared handles
	// keyed by the (immutable) compiled script, so a refresh re-executes
	// parsed statements and cached plans instead of re-rendering,
	// re-parsing and re-planning its SQL every time. Dropping the view
	// drops the entry, and with it the handles' plans.
	prepared map[*duckast.Script]*engine.Prepared
}

// deltaState is the generation state of one shared delta table ΔT, which
// cycles open → frozen → consumed (→ open):
//
//   - open: capture writes ΔT inside the writer's transaction, counted in
//     inflight (under mu) until that transaction has ended;
//   - seal: a propagation that finds ΔT non-empty sets frozen, waits for
//     inflight to drain and bumps gen — no row moves. A writer in flight is
//     between its capture and its commit, and waits on no propagation. A
//     frozen ΔT is the sealed generation: the propagation bodies read it,
//     and a capture keeps its rows until its writer commits, then appends
//     them to overflow, so ΔT does not change under them;
//   - consume: once every dependent view has applied gen, ΔT is truncated,
//     overflow moves into it as the next open generation and frozen
//     clears — one step under mu.
//
// A failed body leaves ΔT frozen with its rows. gen numbers the sealed
// generations, and each view records the last one it applied per delta
// table (view.applied) — the pair makes refresh exactly-once without
// wrapping propagation in an engine transaction. gen and frozen are
// written under mu with the delta's refresh-group view locks held, and
// read under either.
type deltaState struct {
	mu       sync.Mutex
	drained  sync.Cond // on mu: inflight fell to zero
	table    string    // ΔT
	frozen   bool
	gen      int64
	inflight int
	overflow []sqltypes.Row
}

// workerPool is a counting semaphore with dynamic capacity (re-read from
// the pragma at every acquire, so PRAGMA ivm_refresh_workers takes effect
// immediately).
type workerPool struct {
	mu    sync.Mutex
	cond  *sync.Cond
	inUse int
}

func (p *workerPool) acquire(capacity func() int) {
	p.mu.Lock()
	if p.cond == nil {
		p.cond = sync.NewCond(&p.mu)
	}
	for {
		max := capacity()
		if max < 1 {
			max = 1
		}
		if p.inUse < max {
			break
		}
		p.cond.Wait()
	}
	p.inUse++
	p.mu.Unlock()
}

func (p *workerPool) release() {
	p.mu.Lock()
	p.inUse--
	if p.cond != nil {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Install registers the IVM extension on db and returns its handle.
func Install(db *engine.DB) *Extension {
	ext := &Extension{
		db:      db,
		views:   map[string]*view{},
		deltas:  map[string]*deltaState{},
		writers: map[*engine.Session]*writerTxn{},
	}
	db.RegisterStatementHook(ext.statementHook)
	db.SetIVMStatsSource(ext.engineStats)
	return ext
}

// engineStats snapshots the scheduler counters for the engine's versioned
// stats surface (internal/wire exposes them as the ivm.* group).
func (ext *Extension) engineStats() engine.IVMStats {
	return engine.IVMStats{
		Refreshes:          atomic.LoadInt64(&ext.Stats.Refreshes),
		ParallelRefreshes:  atomic.LoadInt64(&ext.Stats.ParallelRefreshes),
		GenerationsSealed:  atomic.LoadInt64(&ext.Stats.GenerationsSealed),
		GenerationsPending: ext.pendingGauge(),
		CaptureStallNanos:  atomic.LoadInt64(&ext.Stats.CaptureStallNanos),
		DeltaRowsCaptured:  atomic.LoadInt64(&ext.Stats.DeltasCaught),
	}
}

// pendingGauge counts delta tables currently holding unconsumed rows.
func (ext *Extension) pendingGauge() int64 {
	ext.mu.Lock()
	states := make([]*deltaState, 0, len(ext.deltas))
	for _, ds := range ext.deltas {
		states = append(states, ds)
	}
	ext.mu.Unlock()
	var n int64
	for _, ds := range states {
		if ext.pending(ds) {
			n++
		}
	}
	return n
}

// pending reports whether the delta holds unconsumed rows: ΔT has rows
// (open or frozen) or captures overflowed while it was frozen. Rows only
// ever move from overflow into ΔT, so reading in that order misses none.
func (ext *Extension) pending(ds *deltaState) bool {
	ds.mu.Lock()
	overflowed := len(ds.overflow) > 0
	ds.mu.Unlock()
	if overflowed {
		return true
	}
	t, err := ext.db.Catalog().Table(ds.table)
	return err == nil && t.RowCount() > 0
}

// anyPending reports whether any of the delta tables holds unconsumed
// rows.
func (ext *Extension) anyPending(states []*deltaState) bool {
	for _, ds := range states {
		if ext.pending(ds) {
			return true
		}
	}
	return false
}

// options assembles compiler options from the engine's pragmas.
func (ext *Extension) options() (ivm.Options, error) {
	opts := ivm.DefaultOptions()
	if ext.db.Dialect() == engine.DialectPostgres {
		opts.Dialect = duckast.DialectPostgres
	}
	if s := ext.db.Pragma("ivm_strategy"); s != "" && !strings.EqualFold(s, "auto") {
		st, err := ivm.ParseStrategy(s)
		if err != nil {
			return opts, err
		}
		opts.Strategy = st
	}
	// 'auto' compiles under the default (upsert, so the index exists and
	// every alternative stays valid) and defers the choice to propagation
	// time — the cost-based selection the paper lists as future work.
	if s := ext.db.Pragma("ivm_empty"); s != "" {
		e, err := ivm.ParseEmptyDetection(s)
		if err != nil {
			return opts, err
		}
		opts.Empty = e
	}
	if s := ext.db.Pragma("ivm_index"); s != "" {
		opts.CreateIndex = strings.EqualFold(s, "on") || strings.EqualFold(s, "true")
	}
	return opts, nil
}

// eager reports whether propagation runs on every base-table change.
func (ext *Extension) eager() bool {
	return strings.EqualFold(ext.db.Pragma("ivm_mode"), "eager")
}

// refreshWorkers is the scheduler pool capacity: PRAGMA
// ivm_refresh_workers, defaulting to GOMAXPROCS capped at 8.
func (ext *Extension) refreshWorkers() int {
	if s := ext.db.Pragma("ivm_refresh_workers"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// statementHook intercepts the IVM-relevant statements.
func (ext *Extension) statementHook(s *engine.Session, stmt sqlparser.Statement) (bool, *engine.Result, error) {
	// Extension-internal sessions (propagation scripts, matview setup and
	// teardown) bypass interception entirely: a propagation's own SELECTs
	// must not re-trigger a lazy refresh of the view they are refreshing.
	if s.Internal() {
		return false, nil, nil
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
		// Lazy mode: refresh any stale materialized view the statement
		// reads before letting normal execution proceed (the paper models
		// this as an implicit table function ahead of the plan).
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
	// change, a refresh is not undone by ROLLBACK, and a session delivering
	// trigger events must not wait on a seal waiting for its own capture.
	if s.InTxn() {
		return true, nil, fmt.Errorf("ivmext: REFRESH and materialized-view DDL cannot run inside a transaction block")
	}
	return true, &engine.Result{}, run()
}

// refreshStale refreshes every materialized view stmt reads whose delta
// tables hold unconsumed rows. A reader that arrives while another
// goroutine's propagation is in flight blocks on the view's refresh lock
// inside the scheduler and reads fresh state. Several stale views refresh
// concurrently on the scheduler pool.
func (ext *Extension) refreshStale(stmt sqlparser.Statement) error {
	var stale []*view
	for _, v := range ext.matviewsRead(stmt) {
		if ext.anyPending(v.deltas) {
			stale = append(stale, v)
		}
	}
	switch len(stale) {
	case 0:
		return nil
	case 1:
		atomic.AddInt64(&ext.Stats.LazyRefreshes, 1)
		return ext.propagate(stale[0])
	}
	atomic.AddInt64(&ext.Stats.LazyRefreshes, int64(len(stale)))
	var wg sync.WaitGroup
	errs := make([]error, len(stale))
	for i, v := range stale {
		wg.Add(1)
		go func(i int, v *view) {
			defer wg.Done()
			errs[i] = ext.propagate(v)
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
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
// populates V, registers delta-capture triggers and stores the metadata.
func (ext *Extension) createMaterializedView(st *sqlparser.CreateViewStmt) error {
	opts, err := ext.options()
	if err != nil {
		return err
	}
	comp, err := ivm.NewCompiler(ext.db, opts).Compile(st.Name, st.Select, st.SourceSQL)
	if err != nil {
		return err
	}

	// Existing views may have buffered deltas against the same base
	// tables; drain them first so the new view's initial population (from
	// the post-delta base state) is not double-counted later. The drain
	// consumes the frozen leftovers of failed propagations too.
	for _, b := range comp.Bases {
		if err := ext.refreshByDelta(b.Delta); err != nil {
			return err
		}
	}

	// Execute setup DDL and initial population on a fresh internal
	// session: trigger suppression is session-scoped, so concurrent
	// sessions' DML keeps capturing deltas while this one populates V.
	// The index build order follows the paper: the ART is created after
	// populating V ("it is more efficient to build small indexes for each
	// chunk and merge them") — our engine's CREATE TABLE with PRIMARY KEY
	// builds the ART incrementally during population, and the chunk-merge
	// path is used by secondary CREATE INDEX builds.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // derived state: rebuilt on recovery, never logged
	if err := is.WithoutTriggers(func() error {
		if _, err := is.ExecScript(comp.SetupSQL()); err != nil {
			return fmt.Errorf("ivmext: setup script: %w", err)
		}
		if _, err := is.ExecScript(comp.PopulateSQLText()); err != nil {
			return fmt.Errorf("ivmext: populate script: %w", err)
		}
		// AVG decomposition: expose the declared columns as a plain view
		// over the storage table.
		if v := comp.ExposedViewSQL(); v != "" {
			if _, err := is.Exec(v); err != nil {
				return fmt.Errorf("ivmext: exposed view: %w", err)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Exclude the view's derived tables from the WAL and from
	// checkpoints: recovery re-executes the CREATE MATERIALIZED VIEW,
	// which rebuilds storage, delta tables and capture triggers from the
	// recovered base tables.
	markUnlogged(ext.db.Catalog(), comp)

	// Register the per-delta generation state and delta capture on every
	// base table — once per delta table, even when several views share a
	// base.
	v := &view{comp: comp, applied: map[*deltaState]int64{}, prepared: map[*duckast.Script]*engine.Prepared{}}
	ext.mu.Lock()
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		ds := ext.deltas[key]
		if ds == nil {
			ds = &deltaState{table: b.Delta}
			ds.drained.L = &ds.mu
			ext.deltas[key] = ds
			ext.db.AddTrigger(b.Name, "ivm_capture_"+b.Delta,
				[]engine.TriggerEvent{engine.TrigInsert, engine.TrigDelete, engine.TrigUpdate},
				func(s *engine.Session, table string, ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) error {
					return ext.capture(s, ds, ev, oldRows, newRows)
				})
		}
		// The view was just populated from the post-delta base state, so
		// every generation sealed so far is already reflected in V: start
		// the marker at the current generation.
		ds.mu.Lock()
		v.applied[ds] = ds.gen
		ds.mu.Unlock()
		v.deltas = append(v.deltas, ds)
	}
	ext.mu.Unlock()

	// Metadata tables (paper: query plan, SQL string, query type).
	ext.db.Catalog().PutIVM(&catalog.IVMMetadata{
		ViewName:     comp.ViewName,
		SourceSQL:    comp.SourceSQL,
		QueryType:    comp.Class.String(),
		BaseTables:   comp.BaseTableNames(),
		DeltaTables:  deltaNames(comp),
		DeltaView:    comp.DeltaView,
		StorageTable: comp.Storage,
		PropagateSQL: comp.PropagateSQL(),
		SetupSQL:     comp.SetupSQL(),
	})

	ext.mu.Lock()
	ext.views[strings.ToLower(comp.ViewName)] = v
	ext.mu.Unlock()
	return nil
}

func deltaNames(comp *ivm.Compilation) []string {
	var out []string
	for _, b := range comp.Bases {
		out = append(out, b.Delta)
	}
	return out
}

// markUnlogged flags every table the compilation derives from base
// state (delta tables, join-delta and delta-view scratch tables, the
// view's storage table) as excluded from durability. Names that are views
// rather than tables simply fail the catalog lookup and are skipped.
func markUnlogged(cat *catalog.Catalog, comp *ivm.Compilation) {
	names := append(deltaNames(comp), comp.JoinDelta, comp.DeltaView)
	st := comp.Storage
	if st == "" {
		st = comp.ViewName
	}
	names = append(names, st)
	for _, name := range names {
		if name == "" {
			continue
		}
		if t, err := cat.Table(name); err == nil {
			t.SetUnlogged()
		}
	}
}

// capture files the delta rows of one base-table DML event
// (ivm.DeltaRows) in the delta's open generation. It runs on the writer's
// session s inside the writer's transaction, and writes ΔT in it — one
// commit with the write, held in flight until the transaction ends — or,
// while a propagation has ΔT frozen, keeps the rows for the overflow until
// the writer has committed. A writer never waits on a propagation:
// CaptureStallNanos meters its wait for the generation lock.
func (ext *Extension) capture(s *engine.Session, ds *deltaState, ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) error {
	dt, err := ext.db.Catalog().Table(ds.table)
	if err != nil {
		return err
	}
	rows := ivm.DeltaRows(ev, oldRows, newRows)
	if len(rows) == 0 {
		return nil
	}
	w := ext.writer(s)
	t0 := time.Now()
	ds.mu.Lock()
	atomic.AddInt64(&ext.Stats.CaptureStallNanos, int64(time.Since(t0)))
	frozen := ds.frozen
	if !frozen {
		ds.inflight++
	}
	ds.mu.Unlock()
	if frozen {
		w.late = append(w.late, lateRows{ds, rows})
		return nil
	}
	w.held = append(w.held, ds)
	if err := s.InsertRows(dt, rows); err != nil {
		return err
	}
	atomic.AddInt64(&ext.Stats.DeltasCaught, int64(len(rows)))
	return nil
}

// writerTxn is what a writer session's open transaction has captured: the
// deltas it holds in flight, and the rows it keeps for frozen deltas'
// overflows until it commits. Only the session's goroutine touches it.
type writerTxn struct {
	held []*deltaState
	late []lateRows
}

type lateRows struct {
	ds   *deltaState
	rows []sqltypes.Row
}

// writer returns what s's open transaction has captured so far; on its
// first capture it registers the after-commit hook that settles them.
func (ext *Extension) writer(s *engine.Session) *writerTxn {
	ext.writersMu.Lock()
	w := ext.writers[s]
	first := w == nil
	if first {
		w = &writerTxn{}
		ext.writers[s] = w
	}
	ext.writersMu.Unlock()
	if first {
		s.AfterCommit(func(committed bool) error { return ext.settle(s, w, committed) })
	}
	return w
}

// settle ends a writer transaction's captures: it releases every delta
// held in flight — all of them first, since a refresh below seals them —
// and, if the writer committed, files the rows kept for overflows and, in
// eager mode, refreshes the views fed by the captured deltas.
func (ext *Extension) settle(s *engine.Session, w *writerTxn, committed bool) error {
	ext.writersMu.Lock()
	delete(ext.writers, s)
	ext.writersMu.Unlock()
	for _, ds := range w.held {
		ds.mu.Lock()
		if ds.inflight--; ds.inflight == 0 {
			ds.drained.Broadcast()
		}
		ds.mu.Unlock()
	}
	if !committed {
		return nil
	}
	for _, l := range w.late {
		if err := ext.appendCommitted(s, l.ds, l.rows); err != nil {
			return err
		}
		w.held = append(w.held, l.ds)
	}
	if !ext.eager() {
		return nil
	}
	for _, ds := range w.held { // a delta held twice refreshes once: the second coalesces
		atomic.AddInt64(&ext.Stats.EagerRefreshes, 1)
		if err := ext.refreshByDelta(ds.table); err != nil {
			return err
		}
	}
	return nil
}

// appendCommitted files the rows a committed writer captured while ΔT was
// frozen: in the overflow while ΔT still is, else — the generation was
// consumed before the writer committed — in ΔT, as a write of its own on s,
// committed under the generation lock like a consume.
func (ext *Extension) appendCommitted(s *engine.Session, ds *deltaState, rows []sqltypes.Row) error {
	atomic.AddInt64(&ext.Stats.DeltasCaught, int64(len(rows)))
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.frozen {
		ds.overflow = append(ds.overflow, rows...)
		return nil
	}
	dt, err := ext.db.Catalog().Table(ds.table)
	if err != nil {
		return err
	}
	return s.InsertRows(dt, rows)
}

// dropMaterializedView tears one view down completely: registry entry
// (and with it the prepared propagation scripts and their plans), capture
// triggers and delta tables no surviving view needs, the storage table
// and metadata.
func (ext *Extension) dropMaterializedView(v *view) error {
	// Serialize against propagation: lock the view's whole refresh group,
	// so a refresh mid-flight finishes before its scripts and delta
	// tables disappear underneath it.
	group, names, _ := ext.refreshGroup(v)
	defer lockViews(group, names)()
	comp := v.comp

	ext.mu.Lock()
	delete(ext.views, strings.ToLower(comp.ViewName))
	// Deltas still feeding surviving views keep their capture triggers.
	live := map[string]bool{}
	for _, other := range ext.views {
		for _, b := range other.comp.Bases {
			live[strings.ToLower(b.Delta)] = true
		}
	}
	var dead []ivm.BaseTable
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		if !live[key] && ext.deltas[key] != nil {
			delete(ext.deltas, key)
			dead = append(dead, b)
		}
	}
	ext.mu.Unlock()

	// Engine-side drops run through a fresh session so they follow the
	// ordinary DDL paths (epoch bumps, catalog locking). Marked internal,
	// so the hook pass skips these statements entirely.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // the hook wrapper logs the single DROP VIEW record
	for _, b := range dead {
		ext.db.RemoveTrigger(b.Name, "ivm_capture_"+b.Delta)
		if _, err := is.Exec("DROP TABLE IF EXISTS " + b.Delta); err != nil {
			return fmt.Errorf("ivmext: dropping delta table %s: %w", b.Delta, err)
		}
	}
	for _, tbl := range []string{comp.DeltaView, comp.JoinDelta} {
		if tbl == "" {
			continue
		}
		if _, err := is.Exec("DROP TABLE IF EXISTS " + tbl); err != nil {
			return fmt.Errorf("ivmext: dropping %s: %w", tbl, err)
		}
	}
	cat := ext.db.Catalog()
	cat.DropIVM(comp.ViewName)
	storage := comp.Storage
	if storage == "" {
		storage = comp.ViewName
	}
	if storage != comp.ViewName {
		// AVG decomposition: ViewName is a plain view over the storage table.
		if _, err := is.Exec("DROP VIEW IF EXISTS " + comp.ViewName); err != nil {
			return fmt.Errorf("ivmext: dropping exposed view %s: %w", comp.ViewName, err)
		}
	}
	if _, err := is.Exec("DROP TABLE IF EXISTS " + storage); err != nil {
		return fmt.Errorf("ivmext: dropping storage table %s: %w", storage, err)
	}
	return nil
}

// refreshByDelta propagates every view fed by the given delta table.
func (ext *Extension) refreshByDelta(deltaTable string) error {
	ext.mu.Lock()
	var target *view
	for _, v := range ext.views {
		for _, b := range v.comp.Bases {
			if strings.EqualFold(b.Delta, deltaTable) {
				target = v
				break
			}
		}
		if target != nil {
			break
		}
	}
	ext.mu.Unlock()
	if target == nil {
		return nil
	}
	return ext.propagate(target)
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
// mutex: the transitive closure of views linked by a shared delta table
// or by a feeding edge (one view's materialization among another's base
// tables). Views in one group must serialize — they consume the same
// deltas or read each other's output; views in different groups share no
// delta table and can propagate concurrently. Returns the group, its
// sorted lower-cased view names (the lock order) and the generation
// states of every delta table the group consumes.
func (ext *Extension) refreshGroup(target *view) (map[string]*view, []string, []*deltaState) {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	group := map[string]*view{strings.ToLower(target.comp.ViewName): target}
	deltas := map[*deltaState]bool{}
	for _, ds := range target.deltas {
		deltas[ds] = true
	}
	for changed := true; changed; {
		changed = false
		for name, v := range ext.views {
			if _, ok := group[name]; ok {
				continue
			}
			link := false
			for _, ds := range v.deltas {
				link = link || deltas[ds]
			}
			for _, g := range group {
				link = link || feeds(v.comp, g.comp) || feeds(g.comp, v.comp)
			}
			if !link {
				continue
			}
			group[name] = v
			for _, ds := range v.deltas {
				deltas[ds] = true
			}
			changed = true
		}
	}
	names := make([]string, 0, len(group))
	for n := range group {
		names = append(names, n)
	}
	sort.Strings(names)
	states := make([]*deltaState, 0, len(deltas))
	for ds := range deltas {
		states = append(states, ds)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].table < states[j].table })
	return group, names, states
}

// feeds reports whether a's materialization is among b's base tables.
func feeds(a, b *ivm.Compilation) bool {
	st := a.Storage
	if st == "" {
		st = a.ViewName
	}
	for _, bb := range b.Bases {
		if strings.EqualFold(bb.Name, st) || strings.EqualFold(bb.Name, a.ViewName) {
			return true
		}
	}
	return false
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
// its refresh group (views sharing a delta table or feeding each other).
// The scheduler path:
//
//  1. take a worker-pool slot (bounded concurrency), then the group's
//     view locks in sorted name order — deadlock-free, and independent
//     groups overlap;
//  2. re-check for pending deltas: a propagation that ran while this one
//     waited may have consumed them already (refresh coalescing);
//  3. repair: if a previous propagation failed partway, ΔT is still
//     frozen and some views' applied-generation markers trail it — re-run
//     exactly those bodies over its intact rows, then consume the deltas
//     every dependent view is now current on;
//  4. seal each non-empty delta table: freeze ΔT and bump its generation
//     number — O(1), no row moves; captures from here on overflow in
//     memory and are untouched by this propagation;
//  5. apply: run the body of each view whose marker trails the new
//     generation, advancing its markers on success;
//  6. consume (the script's step 4): truncate ΔT through the catalog,
//     move the overflow into it as the next open generation, unfreeze.
//
// Bodies run as ordinary autocommit statements — no wrapping engine
// transaction, so propagation DML keeps the quiescent single-writer fast
// paths. Exactly-once refresh is carried by the generation markers
// instead: a body failure leaves the view's marker untouched and ΔT
// frozen with its rows, so the next refresh repairs just the views that
// missed the generation and never re-applies one that landed.
func (ext *Extension) propagate(target *view) error {
	ext.pool.acquire(ext.refreshWorkers)
	defer ext.pool.release()

	group, names, states := ext.refreshGroup(target)
	defer lockViews(group, names)()

	// Drop group members unregistered while we waited for the locks
	// (concurrent DROP MATERIALIZED VIEW).
	ext.mu.Lock()
	ordered := names[:0:0]
	for _, n := range names {
		if ext.views[n] == group[n] {
			ordered = append(ordered, n)
		}
	}
	ext.mu.Unlock()
	if len(ordered) == 0 {
		return nil
	}

	// Coalesce: everything pending when we were called has been consumed
	// by a propagation that held these locks before us.
	if !ext.anyPending(states) {
		return nil
	}

	n := ext.inFlight.Add(1)
	defer ext.inFlight.Add(-1)
	if n > 1 {
		atomic.AddInt64(&ext.Stats.ParallelRefreshes, 1)
	}

	// Propagation runs on a fresh internal session: its trigger
	// suppression and any script-level state stay invisible to the
	// sessions whose DML queued the deltas, and its own MVCC snapshots
	// are independent of theirs. The group's view locks guarantee a given
	// script never executes on two goroutines at once.
	is := ext.db.NewSession()
	defer is.Close()
	is.SetInternal(true)
	is.SetWALBypass(true) // propagation touches only unlogged derived tables
	if err := is.WithoutTriggers(func() error {
		// Repair + consume leftovers of a failed predecessor, so the seal
		// below only ever finds open delta tables.
		if err := ext.applyStale(is, group, ordered); err != nil {
			return err
		}
		if err := ext.consume(is, states); err != nil {
			return err
		}

		// Seal the open generations. From here on, new captures land in
		// the next generation and are untouched by this propagation.
		for _, ds := range states {
			if err := ext.seal(ds); err != nil {
				return err
			}
		}

		if err := ext.applyStale(is, group, ordered); err != nil {
			return err
		}
		if err := fault.Inject(fault.IVMCombine); err != nil {
			// Every body has landed and advanced its markers; ΔT stays
			// frozen until the next refresh repairs nothing and consumes
			// it.
			return err
		}
		return ext.consume(is, states)
	}); err != nil {
		return err
	}
	atomic.AddInt64(&ext.Stats.Refreshes, 1)
	return nil
}

// applyStale runs the propagation body of every group view whose
// applied-generation markers trail the current generation of one of its
// delta tables, advancing the markers on success. Views already current
// (their deltas sealed nothing new, or a prior partially-failed
// propagation already applied them) are skipped — the skip is what makes
// retry-after-failure exactly-once.
func (ext *Extension) applyStale(is *engine.Session, group map[string]*view, names []string) error {
	for _, n := range names {
		v := group[n]
		if !v.stale() {
			continue
		}
		if err := ext.applyView(is, v); err != nil {
			return err
		}
		for _, ds := range v.deltas {
			v.applied[ds] = ds.gen
		}
	}
	return nil
}

// stale reports whether the view still owes an application of the current
// generation of one of its delta tables. The caller holds the view's
// refresh-group locks, so no seal can move a generation concurrently.
func (v *view) stale() bool {
	for _, ds := range v.deltas {
		if v.applied[ds] < ds.gen {
			return true
		}
	}
	return false
}

// applyView executes steps 1–3 of the view's propagation script as
// autocommit statements and clears its scratch tables. The body's last
// statements are the writes into V, so a script that returns success has
// fully applied the generation; on failure the scratch is still cleared
// through the catalog, leaving the retry a clean slate with the frozen ΔT
// intact.
func (ext *Extension) applyView(is *engine.Session, v *view) error {
	comp := v.comp
	if err := fault.Inject(fault.IVMPropagateView); err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	atomic.AddInt64(&ext.Stats.Propagations, 1)
	body, err := ext.preparedScript(v, ext.chooseBody(comp))
	if err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	_, err = is.ExecStmts(body)
	if cerr := ext.clearScratch(is, comp); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	return nil
}

// clearScratch empties the view's ΔV and join-delta scratch tables
// through the catalog, one committed truncate each — a physical slot reset
// when quiescent, so the scratch never accumulates dead version slots
// across refreshes.
func (ext *Extension) clearScratch(is *engine.Session, comp *ivm.Compilation) error {
	cat := ext.db.Catalog()
	for _, name := range []string{comp.DeltaView, comp.JoinDelta} {
		if name == "" {
			continue
		}
		t, err := cat.Table(name)
		if err != nil {
			continue
		}
		tx, done := is.BeginWrite()
		_, _, err = t.TruncateTxn(tx, false)
		if err = done(err); err != nil {
			return fmt.Errorf("ivmext: clearing %s: %w", name, err)
		}
	}
	return nil
}

// consume re-opens the group's frozen deltas (reopen). Its callers reach it
// only after applyStale has brought every group view up to the generation
// of each of its deltas; a propagation that failed before that point
// returns without consuming, and the deltas stay frozen with their rows
// for the next refresh's repair pass.
func (ext *Extension) consume(is *engine.Session, states []*deltaState) error {
	for _, ds := range states {
		t, err := ext.db.Catalog().Table(ds.table)
		if err != nil {
			continue // dropped with its last view
		}
		if err := ds.reopen(is, t); err != nil {
			return err
		}
	}
	return nil
}

// reopen ends a frozen generation in one step under the generation lock,
// as one write of is: truncate ΔT (t), move the overflow into it, unfreeze.
func (ds *deltaState) reopen(is *engine.Session, t *catalog.Table) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if !ds.frozen {
		return nil
	}
	tx, done := is.BeginWrite()
	_, _, err := t.TruncateTxn(tx, false)
	if err == nil {
		err = t.InsertBatchTxn(tx, ds.overflow)
	}
	if err = done(err); err != nil {
		// ΔT stays frozen, with the overflow beside it, for the next
		// refresh to consume.
		return fmt.Errorf("ivmext: re-opening %s: %w", ds.table, err)
	}
	ds.overflow, ds.frozen = nil, false
	return nil
}

// seal freezes the delta table's open generation when it holds rows, waits
// for the captures in flight to end — committed, their rows are in the
// generation; aborted, gone — and bumps the generation number: ΔT itself
// is now the sealed generation, and captures overflow in memory until
// consume. No row moves.
func (ext *Extension) seal(ds *deltaState) error {
	if err := fault.Inject(fault.IVMSeal); err != nil {
		return err
	}
	t, err := ext.db.Catalog().Table(ds.table)
	if err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if t.RowCount() == 0 {
		return nil
	}
	ds.frozen = true
	for ds.inflight > 0 {
		ds.drained.Wait()
	}
	if t.RowCount() == 0 {
		ds.frozen = false // every capture in flight aborted
		return nil
	}
	ds.gen++
	atomic.AddInt64(&ext.Stats.GenerationsSealed, 1)
	return nil
}

// preparedScript returns the prepared handle for one of the view's
// compiled bodies, preparing and caching it on first use. Compiled scripts
// are immutable, so an entry never invalidates. The caller holds the
// view's refresh lock, which is what makes it the handle's only executor.
func (ext *Extension) preparedScript(v *view, body *duckast.Script) (*engine.Prepared, error) {
	if p, ok := v.prepared[body]; ok {
		return p, nil
	}
	p, err := ext.db.PrepareScript(body.SQL(v.comp.Options.Dialect))
	if err != nil {
		return nil, err
	}
	v.prepared[body] = p
	return p, nil
}

// chooseBody returns the propagation body to run — comp.Body, steps 1–3
// of the printed script — or, when PRAGMA ivm_strategy='auto', the
// cost-based pick among the combine strategies: the upsert plan's cost
// tracks |ΔV| (index probes per changed group) while the rebuild plans
// scan all of |V|, so upsert wins once the view dwarfs the delta; for
// small views rebuilding by regrouping is cheaper than per-key upserts.
// Runs after the seal, so ΔT's row count is the generation's cardinality.
func (ext *Extension) chooseBody(comp *ivm.Compilation) *duckast.Script {
	if !strings.EqualFold(ext.db.Pragma("ivm_strategy"), "auto") || len(comp.AltBodies) == 0 {
		return comp.Body
	}
	deltaRows := 0
	for _, b := range comp.Bases {
		if t, err := ext.db.Catalog().Table(b.Delta); err == nil {
			deltaRows += t.RowCount()
		}
	}
	viewRows := 0
	if t, err := ext.db.Catalog().Table(comp.ViewName); err == nil {
		viewRows = t.RowCount()
	}
	choice := ivm.StrategyUnionRegroup
	if body, ok := comp.AltBodies[ivm.StrategyUpsertLeftJoin]; ok && viewRows > 4*deltaRows {
		ext.recordChoice(ivm.StrategyUpsertLeftJoin)
		return body
	}
	if body, ok := comp.AltBodies[choice]; ok {
		ext.recordChoice(choice)
		return body
	}
	return comp.Body
}

func (ext *Extension) recordChoice(s ivm.Strategy) {
	ext.mu.Lock()
	if ext.Stats.AutoChoices == nil {
		ext.Stats.AutoChoices = map[string]int{}
	}
	ext.Stats.AutoChoices[s.String()]++
	ext.mu.Unlock()
}

// Scripts returns the stored setup and propagation SQL for a view.
func (ext *Extension) Scripts(view string) (setup, propagate string, err error) {
	v := ext.view(view)
	if v == nil {
		return "", "", fmt.Errorf("ivmext: %q is not a materialized view", view)
	}
	return v.comp.SetupSQL(), v.comp.PropagateSQL(), nil
}

// SaveScripts writes each registered view's scripts to dir — the paper
// stores the propagation scripts on disk "to allow future inspection and
// usage without having to start DuckDB".
func (ext *Extension) SaveScripts(dir string) error {
	// Views and Scripts each take and release ext.mu; no file is written
	// under it, where every refresh would queue behind the I/O.
	for _, name := range ext.Views() {
		setup, propagate, err := ext.Scripts(name)
		if err != nil {
			continue // dropped since the listing
		}
		base := filepath.Join(dir, strings.ToLower(name))
		if err := os.WriteFile(base+"_setup.sql", []byte(setup), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+"_propagate.sql", []byte(propagate), 0o644); err != nil {
			return err
		}
	}
	return nil
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
