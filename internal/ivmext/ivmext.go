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
// Refresh is concurrent and pipelined: capture appends into the open
// delta generation under a short per-table append lock; a propagation
// atomically seals the generation (drains ΔT into its sealed twin, so
// writers immediately fill the next generation) and consumes only sealed
// rows; and independent views refresh in parallel on a bounded worker
// pool — views that share a delta table or feed each other serialize
// through per-view refresh locks, everything else overlaps.
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
	views map[string]*ivm.Compilation // lower-cased view name -> compilation
	// captured tracks which base delta tables already have a capture
	// trigger installed (several views may share one base table).
	captured map[string]bool
	// locks holds one refresh mutex per registered view. A propagation
	// locks every view of its refresh group in sorted name order (after
	// taking a pool slot), so groups with disjoint view sets run fully in
	// parallel while overlapping groups serialize deadlock-free.
	locks map[string]*sync.Mutex
	// deltas holds the per-delta-table generation state, keyed by the
	// lower-cased open delta table name. Shared across every view fed by
	// the table.
	deltas map[string]*deltaState
	// applied records, per lower-cased view name, the newest sealed
	// generation the view's propagation body has consumed from each of its
	// delta tables (keyed like deltas). A view whose marker trails the
	// delta's generation still owes an application; a sealed twin whose
	// every dependent view is current can be truncated. Markers are only
	// mutated while holding the view's refresh-group locks; the map itself
	// is guarded by mu.
	applied map[string]map[string]int64

	// prepared holds, per lower-cased view name, the view's propagation
	// bodies as prepared handles keyed by the (immutable) compiled script,
	// so a refresh re-executes parsed statements and cached plans instead
	// of re-rendering, re-parsing and re-planning its SQL every time.
	// Dropping the view drops its entry, and with it the handles' plans.
	prepared map[string]map[*duckast.Script]*engine.Prepared

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
		// GenerationsSealed counts ΔT → ΔT_sealed generation seals.
		GenerationsSealed int64
		// CaptureStallNanos accumulates writer wait time on the capture
		// append lock — bounded by a generation seal, never by a whole
		// propagation.
		CaptureStallNanos int64
		// AutoChoices counts cost-based strategy selections by name
		// (guarded by the extension mutex).
		AutoChoices map[string]int
	}
}

// deltaState is the generation state of one shared delta table: writers
// append to the open generation (table `open`) under the read side of mu;
// a propagation seals the generation by draining `open` into `sealed`
// under the write side — an O(rows) pointer move, the only window a
// writer can stall on. gen numbers the sealed generations: it increments
// on every non-empty seal, and each view records the last generation it
// applied per delta table (Extension.applied) — the pair makes refresh
// exactly-once without wrapping propagation in an engine transaction.
// gen is written under mu with the delta's refresh-group view locks held,
// and read either under those group locks or under mu's read side.
type deltaState struct {
	mu     sync.RWMutex
	open   string
	sealed string
	gen    int64
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
		db:       db,
		views:    map[string]*ivm.Compilation{},
		captured: map[string]bool{},
		locks:    map[string]*sync.Mutex{},
		deltas:   map[string]*deltaState{},
		applied:  map[string]map[string]int64{},
		prepared: map[string]map[*duckast.Script]*engine.Prepared{},
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

// pendingGauge counts delta tables currently holding unconsumed rows,
// open or sealed.
func (ext *Extension) pendingGauge() int64 {
	ext.mu.Lock()
	states := make([]*deltaState, 0, len(ext.deltas))
	for _, ds := range ext.deltas {
		states = append(states, ds)
	}
	ext.mu.Unlock()
	cat := ext.db.Catalog()
	var n int64
	for _, ds := range states {
		if t, err := cat.Table(ds.open); err == nil && t.RowCount() > 0 {
			n++
			continue
		}
		if t, err := cat.Table(ds.sealed); err == nil && t.RowCount() > 0 {
			n++
		}
	}
	return n
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
	switch st := stmt.(type) {
	case *sqlparser.CreateViewStmt:
		if !st.Materialized {
			return false, nil, nil
		}
		res, err := ext.createMaterializedView(st)
		return true, res, err
	case *sqlparser.RefreshStmt:
		if err := ext.Refresh(st.View); err != nil {
			return true, nil, err
		}
		return true, &engine.Result{}, nil
	case *sqlparser.DropStmt:
		if st.Kind != "VIEW" {
			return false, nil, nil
		}
		comp := ext.lookup(st.Name)
		if comp == nil {
			return false, nil, nil // plain view: engine handles it
		}
		if err := ext.dropMaterializedView(comp); err != nil {
			return true, nil, err
		}
		return true, &engine.Result{}, nil
	case *sqlparser.SelectStmt:
		// Lazy mode: refresh any stale materialized view the query touches
		// before letting normal execution proceed (the paper models this
		// as an implicit table function ahead of the plan). A reader that
		// arrives while another goroutine's propagation is in flight
		// blocks on the view's refresh lock inside the scheduler and reads
		// fresh state. Several stale views refresh concurrently on the
		// scheduler pool.
		var stale []string
		for _, name := range referencedTables(st) {
			if comp := ext.lookup(name); comp != nil && ext.pendingDeltas(comp) {
				stale = append(stale, name)
			}
		}
		switch len(stale) {
		case 0:
		case 1:
			atomic.AddInt64(&ext.Stats.LazyRefreshes, 1)
			if err := ext.Refresh(stale[0]); err != nil {
				return true, nil, err
			}
		default:
			var wg sync.WaitGroup
			errs := make([]error, len(stale))
			for i, name := range stale {
				atomic.AddInt64(&ext.Stats.LazyRefreshes, 1)
				wg.Add(1)
				go func(i int, name string) {
					defer wg.Done()
					errs[i] = ext.Refresh(name)
				}(i, name)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return true, nil, err
				}
			}
		}
		return false, nil, nil
	}
	return false, nil, nil
}

func (ext *Extension) lookup(view string) *ivm.Compilation {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	return ext.views[strings.ToLower(view)]
}

// Views lists the names of the registered materialized views.
func (ext *Extension) Views() []string {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	var out []string
	for _, c := range ext.views {
		out = append(out, c.ViewName)
	}
	return out
}

// Compilation returns the stored compiler output for a view.
func (ext *Extension) Compilation(view string) (*ivm.Compilation, bool) {
	c := ext.lookup(view)
	return c, c != nil
}

// createMaterializedView compiles the definition, runs the generated DDL,
// populates V, registers delta-capture triggers and stores the metadata.
func (ext *Extension) createMaterializedView(st *sqlparser.CreateViewStmt) (*engine.Result, error) {
	opts, err := ext.options()
	if err != nil {
		return nil, err
	}
	comp, err := ivm.NewCompiler(ext.db, opts).Compile(st.Name, st.Select, st.SourceSQL)
	if err != nil {
		return nil, err
	}

	// Existing views may have buffered deltas against the same base
	// tables; drain them first so the new view's initial population (from
	// the post-delta base state) is not double-counted later. The drain
	// consumes sealed leftovers of failed propagations too.
	for _, b := range comp.Bases {
		if err := ext.refreshByDelta(b.Delta); err != nil {
			return nil, err
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
		return nil, err
	}

	// Exclude the view's derived tables from the WAL and from
	// checkpoints: recovery re-executes the CREATE MATERIALIZED VIEW,
	// which rebuilds storage, delta tables and capture triggers from the
	// recovered base tables.
	markUnlogged(ext.db.Catalog(), comp)

	// Register the view's refresh lock, the per-delta generation state
	// and delta capture on every base table — once per delta table, even
	// when several views share a base.
	ext.mu.Lock()
	viewKey := strings.ToLower(comp.ViewName)
	if ext.locks[viewKey] == nil {
		ext.locks[viewKey] = &sync.Mutex{}
	}
	if ext.applied[viewKey] == nil {
		ext.applied[viewKey] = map[string]int64{}
	}
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		if ext.deltas[key] == nil {
			ext.deltas[key] = &deltaState{open: b.Delta, sealed: b.Sealed}
		}
		// The view was just populated from the post-delta base state, so
		// every generation sealed so far is already reflected in V: start
		// the marker at the current generation.
		ds := ext.deltas[key]
		ds.mu.RLock()
		ext.applied[viewKey][key] = ds.gen
		ds.mu.RUnlock()
		if ext.captured[key] {
			continue
		}
		ext.captured[key] = true
		base := b
		ext.db.AddTrigger(b.Name, "ivm_capture_"+b.Delta,
			[]engine.TriggerEvent{engine.TrigInsert, engine.TrigDelete, engine.TrigUpdate},
			func(db *engine.DB, table string, ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) error {
				return ext.capture(base.Delta, ev, oldRows, newRows)
			})
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
	ext.views[strings.ToLower(comp.ViewName)] = comp
	ext.mu.Unlock()
	return &engine.Result{}, nil
}

func deltaNames(comp *ivm.Compilation) []string {
	var out []string
	for _, b := range comp.Bases {
		out = append(out, b.Delta)
	}
	return out
}

// markUnlogged flags every table the compilation derives from base
// state (delta tables and their sealed twins, join-delta and delta-view
// scratch tables, the view's storage table) as excluded from durability.
// Names that are views rather than tables simply fail the catalog lookup
// and are skipped.
func markUnlogged(cat *catalog.Catalog, comp *ivm.Compilation) {
	names := append(deltaNames(comp), comp.JoinDelta, comp.DeltaView)
	for _, b := range comp.Bases {
		names = append(names, b.Sealed)
	}
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

// capture appends the delta rows of one base-table DML event
// (ivm.DeltaRows). The append happens under the shared side of the delta's generation lock,
// so a writer only ever waits out a generation seal (a drain of already-
// captured rows), never a propagation.
func (ext *Extension) capture(deltaTable string, ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) error {
	dt, err := ext.db.Catalog().Table(deltaTable)
	if err != nil {
		return err
	}
	rows := ivm.DeltaRows(ev, oldRows, newRows)
	if len(rows) == 0 {
		return nil
	}

	if ds := ext.deltaState(deltaTable); ds != nil {
		t0 := time.Now()
		ds.mu.RLock()
		atomic.AddInt64(&ext.Stats.CaptureStallNanos, int64(time.Since(t0)))
		_, err = dt.InsertBatch(rows)
		ds.mu.RUnlock()
	} else {
		// No generation state (view being dropped concurrently): plain
		// append, the rows die with the table.
		_, err = dt.InsertBatch(rows)
	}
	if err != nil {
		return err
	}
	atomic.AddInt64(&ext.Stats.DeltasCaught, int64(len(rows)))

	if ext.eager() {
		atomic.AddInt64(&ext.Stats.EagerRefreshes, 1)
		return ext.refreshByDelta(deltaTable)
	}
	return nil
}

func (ext *Extension) deltaState(deltaTable string) *deltaState {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	return ext.deltas[strings.ToLower(deltaTable)]
}

// dropMaterializedView tears one view down completely: registry entry
// (and with it the prepared propagation scripts and their plans), capture
// triggers and delta tables no surviving view needs, the storage table
// and metadata.
func (ext *Extension) dropMaterializedView(comp *ivm.Compilation) error {
	// Serialize against propagation: lock the view's whole refresh group,
	// so a refresh mid-flight finishes before its scripts and delta
	// tables disappear underneath it.
	_, names, _ := ext.refreshGroup(comp)
	unlock := ext.lockViews(names)
	defer unlock()

	ext.mu.Lock()
	delete(ext.views, strings.ToLower(comp.ViewName))
	delete(ext.locks, strings.ToLower(comp.ViewName))
	delete(ext.applied, strings.ToLower(comp.ViewName))
	delete(ext.prepared, strings.ToLower(comp.ViewName))
	// Deltas still feeding surviving views keep their capture triggers.
	live := map[string]bool{}
	for _, other := range ext.views {
		for _, b := range other.Bases {
			live[strings.ToLower(b.Delta)] = true
		}
	}
	type deadDelta struct{ base, delta, sealed string }
	var dead []deadDelta
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		if !live[key] && ext.captured[key] {
			delete(ext.captured, key)
			delete(ext.deltas, key)
			dead = append(dead, deadDelta{base: b.Name, delta: b.Delta, sealed: b.Sealed})
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
	for _, d := range dead {
		ext.db.RemoveTrigger(d.base, "ivm_capture_"+d.delta)
		for _, tbl := range []string{d.delta, d.sealed} {
			if _, err := is.Exec("DROP TABLE IF EXISTS " + tbl); err != nil {
				return fmt.Errorf("ivmext: dropping delta table %s: %w", tbl, err)
			}
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
	var target *ivm.Compilation
	for _, comp := range ext.views {
		for _, b := range comp.Bases {
			if strings.EqualFold(b.Delta, deltaTable) {
				target = comp
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

// pendingDeltas reports whether any of the view's delta tables hold
// unconsumed rows — open generation or sealed leftovers.
func (ext *Extension) pendingDeltas(comp *ivm.Compilation) bool {
	cat := ext.db.Catalog()
	for _, b := range comp.Bases {
		if t, err := cat.Table(b.Delta); err == nil && t.RowCount() > 0 {
			return true
		}
		if t, err := cat.Table(b.Sealed); err == nil && t.RowCount() > 0 {
			return true
		}
	}
	return false
}

// Refresh runs the propagation script for one view (REFRESH MATERIALIZED
// VIEW, or the lazy path before a query).
func (ext *Extension) Refresh(view string) error {
	comp := ext.lookup(view)
	if comp == nil {
		return fmt.Errorf("ivmext: %q is not a materialized view", view)
	}
	return ext.propagate(comp)
}

// refreshGroup computes the target's refresh group under the extension
// mutex: the transitive closure of views linked by a shared delta table
// or by a feeding edge (one view's materialization among another's base
// tables). Views in one group must serialize — they consume the same
// deltas or read each other's output; views in different groups share no
// delta table and can propagate concurrently. Returns the group, its
// sorted lower-cased view names (the lock order) and the generation
// states of every delta table the group consumes.
func (ext *Extension) refreshGroup(target *ivm.Compilation) (map[string]*ivm.Compilation, []string, []*deltaState) {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	group := map[string]*ivm.Compilation{strings.ToLower(target.ViewName): target}
	deltas := map[string]bool{}
	for _, b := range target.Bases {
		deltas[strings.ToLower(b.Delta)] = true
	}
	for changed := true; changed; {
		changed = false
		for name, comp := range ext.views {
			if _, ok := group[name]; ok {
				continue
			}
			link := false
			for _, b := range comp.Bases {
				if deltas[strings.ToLower(b.Delta)] {
					link = true
					break
				}
			}
			if !link {
				for _, g := range group {
					if feeds(comp, g) || feeds(g, comp) {
						link = true
						break
					}
				}
			}
			if !link {
				continue
			}
			group[name] = comp
			for _, b := range comp.Bases {
				if !deltas[strings.ToLower(b.Delta)] {
					deltas[strings.ToLower(b.Delta)] = true
					changed = true
				}
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
	dnames := make([]string, 0, len(deltas))
	for d := range deltas {
		dnames = append(dnames, d)
	}
	sort.Strings(dnames)
	for _, d := range dnames {
		if ds := ext.deltas[d]; ds != nil {
			states = append(states, ds)
		}
	}
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

// lockViews locks the given (sorted) view names' refresh mutexes and
// returns the unlock function. Lock objects outlive registry removal, so
// a group computed just before a concurrent drop still locks safely.
func (ext *Extension) lockViews(names []string) func() {
	ms := make([]*sync.Mutex, 0, len(names))
	ext.mu.Lock()
	for _, n := range names {
		m := ext.locks[n]
		if m == nil {
			m = &sync.Mutex{}
			ext.locks[n] = m
		}
		ms = append(ms, m)
	}
	ext.mu.Unlock()
	for _, m := range ms {
		m.Lock()
	}
	return func() {
		for i := len(ms) - 1; i >= 0; i-- {
			ms[i].Unlock()
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
//  3. repair: if a previous propagation failed partway, some views'
//     applied-generation markers trail their deltas — re-run exactly
//     those bodies over the still-intact sealed rows, then truncate the
//     sealed twins every dependent view is now current on;
//  4. seal each delta table's open generation — drain ΔT into ΔT_sealed
//     under the exclusive side of the append lock, bumping the delta's
//     generation number; writers stall only for this drain and
//     immediately start filling the next generation;
//  5. apply: run the generation-aware body of each view whose marker
//     trails the new generation, advancing its markers on success;
//  6. consume: truncate the sealed twins (and reset their slot storage).
//
// Bodies run as ordinary autocommit statements — no wrapping engine
// transaction, so propagation DML keeps the quiescent single-writer fast
// paths. Exactly-once refresh is carried by the generation markers
// instead: a body failure leaves the view's marker (and the sealed rows)
// untouched, so the next refresh repairs just the views that missed the
// generation and never re-applies one that landed.
func (ext *Extension) propagate(target *ivm.Compilation) error {
	ext.pool.acquire(ext.refreshWorkers)
	defer ext.pool.release()

	group, names, states := ext.refreshGroup(target)
	unlock := ext.lockViews(names)
	defer unlock()

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
	if !ext.statesPending(states) {
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
		// below never mixes an already-applied generation with a new one.
		gens := genSnapshot(states)
		if err := ext.applyStale(is, group, ordered, gens); err != nil {
			return err
		}
		ext.consume(ordered, group, states, gens)

		// Seal the open generations. From here on, new captures land in
		// the next generation and are untouched by this propagation.
		for _, ds := range states {
			if err := ext.seal(ds); err != nil {
				return err
			}
		}

		gens = genSnapshot(states)
		if err := ext.applyStale(is, group, ordered, gens); err != nil {
			return err
		}
		if err := fault.Inject(fault.IVMCombine); err != nil {
			// Every body has landed and advanced its markers; the sealed
			// rows linger until the next refresh repairs nothing and
			// consumes them.
			return err
		}
		ext.consume(ordered, group, states, gens)
		return nil
	}); err != nil {
		return err
	}
	atomic.AddInt64(&ext.Stats.Refreshes, 1)
	return nil
}

// genSnapshot reads the current generation number of each group delta.
// The group's view locks are held, so no seal can move them concurrently.
func genSnapshot(states []*deltaState) map[string]int64 {
	gens := make(map[string]int64, len(states))
	for _, ds := range states {
		ds.mu.RLock()
		gens[strings.ToLower(ds.open)] = ds.gen
		ds.mu.RUnlock()
	}
	return gens
}

// applyStale runs the propagation body of every group view whose
// applied-generation markers trail the current generation of one of its
// delta tables, advancing the markers on success. Views already current
// (their deltas sealed nothing new, or a prior partially-failed
// propagation already applied them) are skipped — the skip is what makes
// retry-after-failure exactly-once.
func (ext *Extension) applyStale(is *engine.Session, group map[string]*ivm.Compilation, names []string, gens map[string]int64) error {
	for _, n := range names {
		comp := group[n]
		if !ext.viewStale(n, comp, gens) {
			continue
		}
		if err := ext.applyView(is, comp); err != nil {
			return err
		}
		ext.markApplied(n, comp, gens)
	}
	return nil
}

// viewStale reports whether the view still owes an application of some
// group delta's sealed generation.
func (ext *Extension) viewStale(name string, comp *ivm.Compilation, gens map[string]int64) bool {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	av := ext.applied[name]
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		if g, ok := gens[key]; ok && av[key] < g {
			return true
		}
	}
	return false
}

// markApplied advances the view's markers to the generations it just
// consumed.
func (ext *Extension) markApplied(name string, comp *ivm.Compilation, gens map[string]int64) {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	av := ext.applied[name]
	if av == nil {
		av = map[string]int64{}
		ext.applied[name] = av
	}
	for _, b := range comp.Bases {
		key := strings.ToLower(b.Delta)
		if g, ok := gens[key]; ok {
			av[key] = g
		}
	}
}

// applyView executes one view's generation-aware propagation body as
// autocommit statements and clears its scratch tables. The body's last
// statements are the writes into V (the compiler omits scratch
// truncation from the sealed scripts), so a script that returns success
// has fully applied the generation; on failure the scratch is still
// cleared — infallibly, through the catalog — leaving the retry a clean
// slate with the sealed rows intact.
func (ext *Extension) applyView(is *engine.Session, comp *ivm.Compilation) error {
	if err := fault.Inject(fault.IVMPropagateView); err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	atomic.AddInt64(&ext.Stats.Propagations, 1)
	body, err := ext.preparedScript(comp, ext.chooseBody(comp))
	if err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	_, err = is.ExecStmts(body)
	ext.clearScratch(comp)
	if err != nil {
		return fmt.Errorf("ivmext: propagation for %s: %w", comp.ViewName, err)
	}
	return nil
}

// clearScratch empties the view's ΔV and join-delta scratch tables
// through the catalog — a physical slot reset when quiescent, so the
// scratch never accumulates dead version slots across refreshes.
func (ext *Extension) clearScratch(comp *ivm.Compilation) {
	cat := ext.db.Catalog()
	for _, name := range []string{comp.DeltaView, comp.JoinDelta} {
		if name == "" {
			continue
		}
		if t, err := cat.Table(name); err == nil {
			t.Truncate()
		}
	}
}

// consume truncates every sealed twin whose dependent views have all
// applied its current generation. A delta left alone here (some view's
// body failed) keeps its sealed rows for the next refresh's repair pass.
func (ext *Extension) consume(names []string, group map[string]*ivm.Compilation, states []*deltaState, gens map[string]int64) {
	cat := ext.db.Catalog()
	for _, ds := range states {
		key := strings.ToLower(ds.open)
		gen := gens[key]
		current := true
		ext.mu.Lock()
		for _, n := range names {
			for _, b := range group[n].Bases {
				if strings.ToLower(b.Delta) == key && ext.applied[n][key] < gen {
					current = false
				}
			}
		}
		ext.mu.Unlock()
		if !current {
			continue
		}
		if t, err := cat.Table(ds.sealed); err == nil {
			t.Truncate()
		}
	}
}

// statesPending reports whether any group delta table holds rows.
func (ext *Extension) statesPending(states []*deltaState) bool {
	cat := ext.db.Catalog()
	for _, ds := range states {
		if t, err := cat.Table(ds.open); err == nil && t.RowCount() > 0 {
			return true
		}
		if t, err := cat.Table(ds.sealed); err == nil && t.RowCount() > 0 {
			return true
		}
	}
	return false
}

// seal drains the delta table's open generation into its sealed twin,
// atomically under the exclusive side of the append lock, and bumps the
// generation number when rows moved. Capture stalls only for the
// duration of this drain.
func (ext *Extension) seal(ds *deltaState) error {
	if err := fault.Inject(fault.IVMSeal); err != nil {
		return err
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	cat := ext.db.Catalog()
	open, err := cat.Table(ds.open)
	if err != nil {
		return err
	}
	rows := open.DrainRows()
	if len(rows) == 0 {
		return nil
	}
	sealed, err := cat.Table(ds.sealed)
	if err != nil {
		return err
	}
	if _, err := sealed.InsertBatch(rows); err != nil {
		return err
	}
	ds.gen++
	atomic.AddInt64(&ext.Stats.GenerationsSealed, 1)
	return nil
}

// preparedScript returns the prepared handle for one of comp's compiled
// bodies, preparing and caching it on first use. Compiled scripts are
// immutable, so an entry never invalidates. The caller holds comp's
// refresh lock, which is what makes it the handle's only executor.
func (ext *Extension) preparedScript(comp *ivm.Compilation, body *duckast.Script) (*engine.Prepared, error) {
	view := strings.ToLower(comp.ViewName)
	ext.mu.Lock()
	p, ok := ext.prepared[view][body]
	ext.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := ext.db.PrepareScript(body.SQL(comp.Options.Dialect))
	if err != nil {
		return nil, err
	}
	ext.mu.Lock()
	if ext.prepared[view] == nil {
		ext.prepared[view] = map[*duckast.Script]*engine.Prepared{}
	}
	ext.prepared[view][body] = p
	ext.mu.Unlock()
	return p, nil
}

// chooseBody returns the generation-aware propagation body to run,
// performing the cost-based strategy selection when PRAGMA
// ivm_strategy='auto': the upsert plan's cost tracks |ΔV| (index probes
// per changed group) while the rebuild plans scan all of |V|, so upsert
// wins once the view dwarfs the delta; for small views rebuilding by
// regrouping is cheaper than per-key upserts. Runs after the seal, so
// the delta cardinality is read from the sealed twins.
func (ext *Extension) chooseBody(comp *ivm.Compilation) *duckast.Script {
	if !strings.EqualFold(ext.db.Pragma("ivm_strategy"), "auto") || len(comp.SealedAltBodies) == 0 {
		return comp.SealedBody
	}
	deltaRows := 0
	for _, b := range comp.Bases {
		if t, err := ext.db.Catalog().Table(b.Sealed); err == nil {
			deltaRows += t.RowCount()
		}
	}
	viewRows := 0
	if t, err := ext.db.Catalog().Table(comp.ViewName); err == nil {
		viewRows = t.RowCount()
	}
	choice := ivm.StrategyUnionRegroup
	if body, ok := comp.SealedAltBodies[ivm.StrategyUpsertLeftJoin]; ok && viewRows > 4*deltaRows {
		ext.recordChoice(ivm.StrategyUpsertLeftJoin)
		return body
	}
	if body, ok := comp.SealedAltBodies[choice]; ok {
		ext.recordChoice(choice)
		return body
	}
	return comp.SealedBody
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
	comp := ext.lookup(view)
	if comp == nil {
		return "", "", fmt.Errorf("ivmext: %q is not a materialized view", view)
	}
	return comp.SetupSQL(), comp.PropagateSQL(), nil
}

// SaveScripts writes each registered view's scripts to dir — the paper
// stores the propagation scripts on disk "to allow future inspection and
// usage without having to start DuckDB".
func (ext *Extension) SaveScripts(dir string) error {
	ext.mu.Lock()
	defer ext.mu.Unlock()
	for name, comp := range ext.views {
		base := filepath.Join(dir, name)
		if err := os.WriteFile(base+"_setup.sql", []byte(comp.SetupSQL()), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(base+"_propagate.sql", []byte(comp.PropagateSQL()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// referencedTables collects every table name referenced in the FROM
// clauses of a select (including CTEs and subqueries).
func referencedTables(sel *sqlparser.SelectStmt) []string {
	var out []string
	var fromRef func(tr sqlparser.TableRef)
	var fromSel func(s *sqlparser.SelectStmt)
	fromRef = func(tr sqlparser.TableRef) {
		switch t := tr.(type) {
		case *sqlparser.NamedTable:
			out = append(out, t.Name)
		case *sqlparser.SubqueryTable:
			fromSel(t.Select)
		case *sqlparser.JoinTable:
			fromRef(t.Left)
			fromRef(t.Right)
		}
	}
	fromSel = func(s *sqlparser.SelectStmt) {
		if s == nil {
			return
		}
		for _, cte := range s.CTEs {
			fromSel(cte.Select)
		}
		if s.From != nil {
			fromRef(s.From)
		}
		fromSel(s.Next)
	}
	fromSel(sel)
	return out
}
