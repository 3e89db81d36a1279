// Package engine implements the embedded SQL database used throughout this
// reproduction — the stand-in for DuckDB and, behind internal/oltp, for
// PostgreSQL in the paper's architecture. It wires the parser, binder,
// optimizer and executor together and exposes the extension points OpenIVM
// relies on:
//
//   - statement hooks, which intercept statements before execution (the
//     paper's optimizer-rule injection, used to trigger propagation);
//   - row-level triggers, the PostgreSQL-side delta-capture mechanism.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"openivm/internal/catalog"
	"openivm/internal/enginerr"
	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/metrics"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
)

// Dialect is Open's second parameter, which no code reads: the engine
// speaks one SQL. It stays until the repository benchmark's next change
// drops the argument from its calls.
type Dialect int

// DialectDuckDB is the one Dialect value.
const DialectDuckDB Dialect = 0

// Result carries the outcome of a statement.
type Result struct {
	Columns      []string
	Rows         []sqltypes.Row
	RowsAffected int
}

// TriggerEvent identifies the DML kind a trigger fires for.
type TriggerEvent string

// Trigger events.
const (
	TrigInsert TriggerEvent = "INSERT"
	TrigDelete TriggerEvent = "DELETE"
	TrigUpdate TriggerEvent = "UPDATE"
)

// TriggerFunc receives the rows a DML statement changed, on the session
// that ran it, inside the writer's transaction just before it commits, as
// PostgreSQL's AFTER … FOR EACH ROW triggers run. For UPDATE both oldRows
// and newRows are set pairwise; for INSERT only newRows; for DELETE only
// oldRows. An autocommit statement's events arrive when its write ends, an
// explicit transaction's at COMMIT, in the order they were queued;
// consecutive INSERT events on one table arrive as one call, and so do
// consecutive DELETE events, while UPDATE events never merge. A handler's
// writes (s.BeginWrite) join the writer's transaction: one commit record,
// one timestamp. An error aborts the writer's transaction.
type TriggerFunc func(s *Session, table string, event TriggerEvent, oldRows, newRows []sqltypes.Row) error

// StatementHook may intercept a parsed statement before standard execution.
// Returning handled=true short-circuits. The hook receives the executing
// session, so it can distinguish extension-internal sessions (see
// Session.SetInternal) from user connections.
type StatementHook func(s *Session, stmt sqlparser.Statement) (handled bool, res *Result, err error)

// trigger is a registered row-level trigger. durable is set for triggers
// created by SQL (CREATE TRIGGER … EXECUTE 'name'): what the log and the
// checkpoints record of them.
type trigger struct {
	name    string
	events  map[TriggerEvent]bool
	handler TriggerFunc
	durable *storage.TriggerSnap
}

// DB is an embedded database instance. A DB is safe for concurrent use by
// multiple sessions: per-connection execution state (transactions,
// parameters, cancellation) lives in Session, while the DB holds only
// shared state — catalog, triggers, hooks, the schema epoch and the plan
// cache — each behind its own lock.
type DB struct {
	Name string

	cat *catalog.Catalog

	hooks []StatementHook

	// metrics is the DB's counter registry (stats.go).
	metrics *metrics.Registry

	// trigMu guards the trigger registry: CREATE TRIGGER installs triggers
	// at runtime while concurrent sessions' DML reads the registry to fire
	// them.
	trigMu       sync.RWMutex
	triggers     map[string][]*trigger // table -> triggers
	trigHandlers map[string]TriggerFunc

	// schemaEpoch moves on anything that could change a plan: DDL (tables,
	// views, indexes, triggers). Every cached plan records the epoch it was
	// built under (see plancache.go).
	schemaEpoch atomic.Int64

	// plans is the statement cache shared across sessions, text and
	// prepared handles alike (plancache.go). verbatim keeps every literal in
	// the statement text, and in the cache key: set only by tests, to compare
	// the two.
	plans    *planLRU
	verbatim bool

	// sessMu guards sessions, the token registry of live sessions. The
	// wire protocol's out-of-band cancel op resolves its token here to
	// interrupt another connection's in-flight statement; entries are
	// removed on Session.Close.
	sessMu   sync.Mutex
	sessions map[string]*Session

	// backend is the storage backend (storage.MemBackend unless
	// AttachBackend installed a durable one). logging flips on once
	// AttachBackend finishes recovery: from then on committed DML and
	// DDL produce redo records. backendMu guards the pointer itself —
	// normally set once during instance setup, but a degraded re-attach
	// (see robustness.go) swaps it while stats readers are live; read it
	// through db.be().
	backendMu sync.RWMutex
	backend   storage.Backend
	logging   atomic.Bool

	// ckptMu serializes checkpoint attempts (NeedCheckpoint can trip in
	// several sessions at once).
	ckptMu sync.Mutex

	// degr is the read-only degraded-mode state (see robustness.go);
	// panicsRecovered counts panics converted to XX000 errors, a
	// statement's and a wire connection's (NotePanic).
	degr            degradedState
	panicsRecovered atomic.Int64
}

// Open creates a fresh in-memory database. The Dialect is not read.
func Open(name string, _ Dialect) *DB {
	db := &DB{
		Name:         name,
		cat:          catalog.New(),
		triggers:     map[string][]*trigger{},
		trigHandlers: map[string]TriggerFunc{},
		plans:        newPlanLRU(planCacheSize),
		sessions:     map[string]*Session{},
		backend:      storage.MemBackend{},
		metrics:      metrics.New(),
	}
	db.registerMetrics()
	return db
}

// bumpSchemaEpoch invalidates every cached plan. The cache is cleared
// outright: no plan in it is valid any more, so dropping the entries frees
// the dead plan trees instead of retaining them until eviction. An entry
// lent out at the time is filed again when its execution ends and replans
// on its next one.
func (db *DB) bumpSchemaEpoch() {
	db.schemaEpoch.Add(1)
	db.plans.clear()
}

// epoch returns the current schema epoch.
func (db *DB) epoch() int64 { return db.schemaEpoch.Load() }

// registerSession enters a session into the token registry.
func (db *DB) registerSession(s *Session) {
	db.sessMu.Lock()
	db.sessions[s.token] = s
	db.sessMu.Unlock()
}

// dropSession removes a session from the token registry (idempotent).
func (db *DB) dropSession(s *Session) {
	db.sessMu.Lock()
	delete(db.sessions, s.token)
	db.sessMu.Unlock()
}

// SessionByToken resolves a session token to its live session — the
// lookup behind the wire protocol's out-of-band cancel op. Returns false
// for unknown (or already closed) tokens.
func (db *DB) SessionByToken(token string) (*Session, bool) {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	s, ok := db.sessions[token]
	return s, ok
}

// Catalog exposes the catalog (used by the IVM compiler and tests).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Code returns the SQLSTATE class carried by err ("" when
// unclassified): 40001 serialization conflict, 23505 duplicate key,
// 42P01 undefined table, XX001 recovery corruption. It is the single
// classification point shared by the engine, the wire server's
// Response.Code, and streaming trailers.
func Code(err error) string { return enginerr.CodeOf(err) }

// RegisterStatementHook appends a pre-execution statement hook.
func (db *DB) RegisterStatementHook(h StatementHook) { db.hooks = append(db.hooks, h) }

// RegisterTriggerHandler names a trigger implementation so CREATE TRIGGER
// ... EXECUTE 'name' can reference it.
func (db *DB) RegisterTriggerHandler(name string, fn TriggerFunc) {
	db.trigHandlers[strings.ToLower(name)] = fn
}

// addNamedTrigger registers a trigger on a handler registered by name —
// CREATE TRIGGER, live or replayed.
func (db *DB) addNamedTrigger(def storage.TriggerSnap) error {
	fn, ok := db.trigHandlers[strings.ToLower(def.Handler)]
	if !ok {
		return fmt.Errorf("engine: unknown trigger handler %q", def.Handler)
	}
	tr := &trigger{name: def.Name, events: map[TriggerEvent]bool{}, handler: fn, durable: &def}
	for _, e := range def.Events {
		tr.events[TriggerEvent(e)] = true
	}
	db.addTrigger(def.Table, tr)
	return nil
}

func (db *DB) addTrigger(table string, tr *trigger) {
	key := strings.ToLower(table)
	db.trigMu.Lock()
	db.triggers[key] = append(db.triggers[key], tr)
	db.trigMu.Unlock()
}

// namedTriggers lists the SQL-created triggers in their durable form,
// sorted by table and registration order (checkpoint assembly).
func (db *DB) namedTriggers() []storage.TriggerSnap {
	db.trigMu.RLock()
	defer db.trigMu.RUnlock()
	tables := make([]string, 0, len(db.triggers))
	for t := range db.triggers {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []storage.TriggerSnap
	for _, t := range tables {
		for _, tr := range db.triggers[t] {
			if tr.durable != nil {
				out = append(out, *tr.durable)
			}
		}
	}
	return out
}

// triggersFor returns the current trigger list for a table; the returned
// slice is immutable (registration replaces the slice header under
// trigMu), so callers may iterate it lock-free.
func (db *DB) triggersFor(table string) []*trigger {
	db.trigMu.RLock()
	defer db.trigMu.RUnlock()
	return db.triggers[strings.ToLower(table)]
}

// wantsTriggerRows reports whether any trigger would currently fire for
// the event in this session — i.e. whether DML must snapshot affected
// rows it otherwise would not need.
func (s *Session) wantsTriggerRows(table string, ev TriggerEvent) bool {
	for _, tr := range s.db.triggersFor(table) {
		if tr.events[ev] {
			return true
		}
	}
	return false
}

// Exec executes a statement or script on a session of its own, closed
// when Exec returns: a one-off statement from a caller that holds no
// session. A transaction cannot outlive the call: one the script leaves
// open is rolled back and reported as an error; use NewSession.
func (db *DB) Exec(sql string) (*Result, error) {
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec(sql)
	if err == nil && s.txn != nil {
		return nil, fmt.Errorf("engine: DB.Exec leaves no transaction open (rolled back); run BEGIN … COMMIT on a Session")
	}
	return res, err
}

// newBinder builds a binder with scalar-subquery support whose parameters
// read params (subqueries execute with the session's options and context,
// at their statement's snapshot, their parameters reading the same
// binding; Param nodes read it at Eval
// time, so a cached plan re-executes against freshly bound values). With
// the statement's entry ent (nil when none), an IN subquery that is ent's
// body is planned through the entry (planSelect), which keeps its plan for
// the next execution.
func (s *Session) newBinder(ent *planEntry, params *expr.ParamBinding) *plan.Binder {
	b := plan.NewBinder(s.db.cat)
	b.Params = params
	b.SubqueryFn = func(sel *sqlparser.SelectStmt) (expr.Expr, error) {
		return &lazySubquery{s: s, sel: sel, params: params, typ: sqltypes.TypeAny}, nil
	}
	b.SubqueryRowsFn = func(sel *sqlparser.SelectStmt) (func() ([]sqltypes.Row, error), error) {
		var cached []sqltypes.Row
		done := false
		return func() ([]sqltypes.Row, error) {
			if done {
				return cached, nil
			}
			var n plan.Node
			var err error
			if ent != nil {
				n, err = s.planSelect(ent, sel)
			} else {
				n, err = s.bindSelect(sel, params)
			}
			if err != nil {
				return nil, err
			}
			cached, err = exec.RunOpts(n, s.subqueryOpts())
			done = err == nil
			return cached, err
		}, nil
	}
	return b
}

func (s *Session) execExplain(params *expr.ParamBinding, st *sqlparser.ExplainStmt) (*Result, error) {
	text, err := s.explain(params, st.Stmt)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(line)})
	}
	return res, nil
}

// explain renders the plan of a SELECT, INSERT, UPDATE or DELETE. An
// INSERT is `Insert t` (`Upsert t` when it replaces on conflict) above the
// plan of its source.
func (s *Session) explain(params *expr.ParamBinding, stmt sqlparser.Statement) (string, error) {
	switch x := stmt.(type) {
	case *sqlparser.SelectStmt:
		n, err := s.bindSelect(x, params)
		if err != nil {
			return "", err
		}
		return plan.Explain(n), nil
	case *sqlparser.InsertStmt:
		tbl, err := s.db.cat.Table(x.Table)
		if err != nil {
			return "", err
		}
		n, err := s.bindSelect(x.Select, params)
		if err != nil {
			return "", err
		}
		verb := "Insert "
		if x.OrReplace || (x.Conflict != nil && !x.Conflict.DoNothing) {
			verb = "Upsert "
		}
		src := strings.TrimRight(plan.Explain(n), "\n")
		return verb + tbl.Name + "\n  " + strings.ReplaceAll(src, "\n", "\n  "), nil
	case *sqlparser.DeleteStmt:
		return s.explainWrite(params, "Delete", x.Table, x.Where)
	case *sqlparser.UpdateStmt:
		return s.explainWrite(params, "Update", x.Table, x.Where)
	}
	return "", fmt.Errorf("engine: EXPLAIN supports SELECT, INSERT, UPDATE and DELETE")
}

// explainWrite says how an UPDATE or DELETE (verb) finds its rows, from
// the function the executor itself asks (plan.PinnedKeys): through the
// primary-key index for a pinned key set, else by scanning. Nothing runs —
// a key subquery is named, not evaluated, so a value of the wrong kind in
// its result can still send the statement to the scan.
func (s *Session) explainWrite(params *expr.ParamBinding, verb, table string, where sqlparser.Expr) (string, error) {
	tbl, err := s.db.cat.Table(table)
	if err != nil {
		return "", err
	}
	if where == nil {
		if verb == "Delete" {
			return "Truncate " + tbl.Name, nil
		}
		return "Scan" + verb + " " + tbl.Name, nil
	}
	pred, err := s.newBinder(nil, params).BindExprSchema(where, tableSchema(tbl))
	if err != nil {
		return "", err
	}
	if keys := plan.PinnedKeys(tbl, pred); keys != nil {
		return fmt.Sprintf("Keyed%s %s[pk] %s", verb, tbl.Name, keys), nil
	}
	return "Scan" + verb + " " + tbl.Name, nil
}

func (s *Session) execCreateTable(ctx context.Context, st *sqlparser.CreateTableStmt) (*Result, error) {
	// The epoch moves only after the catalog mutation is visible (a
	// concurrently-planning prepared statement could otherwise cache a
	// pre-DDL plan under the post-DDL epoch and never be invalidated), and
	// only when a mutation actually happened: CREATE TABLE IF NOT EXISTS
	// on an existing table — the idempotent init-script pattern — must not
	// flush every session's cached plans.
	created := !s.db.cat.HasTable(st.Name)
	bump := func() {
		if created {
			s.db.bumpSchemaEpoch()
		}
	}
	if st.AsSelect != nil {
		if !created && st.IfNotExists {
			return &Result{}, nil // nothing to create, so nothing to select
		}
		if s.txn != nil {
			// The catalog is not versioned: the table could neither stay
			// invisible until COMMIT nor go away on ROLLBACK.
			return nil, fmt.Errorf("engine: CREATE TABLE AS SELECT cannot run inside a transaction block")
		}
		n, err := s.PlanSelect(st.AsSelect)
		if err != nil {
			return nil, err
		}
		tx, done := s.BeginWrite()
		rows, err := exec.RunOpts(n, s.execOptsTxn(ctx, tx))
		if err != nil {
			return nil, done(err)
		}
		var cols []catalog.Column
		for _, c := range n.Schema() {
			t := c.Type
			if t == sqltypes.TypeAny || t == sqltypes.TypeNull {
				t = sqltypes.TypeString
			}
			cols = append(cols, catalog.Column{Name: c.Name, Type: t})
		}
		// No checkpoint between the table entering the catalog and its
		// record: it would snapshot the table empty, and recovery would
		// skip the record that trails it as already applied.
		s.db.ckptMu.Lock()
		defer s.db.ckptMu.Unlock()
		tbl, err := s.db.cat.CreateTable(st.Name, cols, nil, false)
		if err != nil {
			return nil, done(err)
		}
		committed := false
		defer func() {
			if !committed {
				s.db.cat.DropTable(st.Name, true) // aborted: nothing was created
			}
			bump()
		}()
		err = tbl.InsertBatchTxn(tx, rows)
		// Table and population are one DDL record, appended by the commit
		// in place of its commit record: recovery finds both or neither.
		// The statement is rare, so it pays that record's fsync under the
		// commit lock.
		var logErr error
		tx.CommitHook = func(uint64) {
			committed = true
			logErr = s.logCreateTable(tbl, rows)
		}
		if err := done(err); err != nil {
			return nil, err
		}
		if logErr != nil {
			return nil, logErr
		}
		return &Result{RowsAffected: len(rows)}, nil
	}
	var cols []catalog.Column
	for _, cd := range st.Columns {
		col := catalog.Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull}
		if cd.Default != nil {
			e, err := s.newBinder(nil, &s.params).BindExprNoInput(cd.Default)
			if err != nil {
				return nil, fmt.Errorf("engine: DEFAULT for %s: %w", cd.Name, err)
			}
			v, err := e.Eval(nil)
			if err != nil {
				return nil, err
			}
			col.Default = v
			col.HasDef = true
		}
		cols = append(cols, col)
	}
	tbl, err := s.db.cat.CreateTable(st.Name, cols, st.PrimaryKey, st.IfNotExists)
	if err != nil {
		return nil, err
	}
	bump()
	if created {
		if err := s.logCreateTable(tbl, nil); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

func (s *Session) execCreateIndex(st *sqlparser.CreateIndexStmt) (*Result, error) {
	tbl, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	_, existed := tbl.Index(st.Name)
	if !existed {
		// An index shares the relation namespace with tables, views and
		// every other table's indexes, as in PostgreSQL.
		other, isIndex := s.db.cat.IndexTable(st.Name)
		_, isView := s.db.cat.View(st.Name)
		if isView || s.db.cat.HasTable(st.Name) || isIndex && other != tbl {
			if st.IfNotExists {
				return &Result{}, nil
			}
			return nil, enginerr.Newf(enginerr.CodeDuplicateTable, "engine: relation %q already exists", st.Name)
		}
	}
	if _, err := tbl.CreateIndex(st.Name, st.Columns, st.Unique, st.IfNotExists); err != nil {
		return nil, err
	}
	if !existed {
		s.db.bumpSchemaEpoch() // after the mutation; see execCreateTable
		if s.walLogging() && !tbl.Unlogged() {
			rec := &storage.DDLRecord{Kind: storage.DDLCreateIndex, Name: st.Name, Table: st.Table, IdxColumns: st.Columns, Unique: st.Unique}
			if err := s.appendDDL(rec); err != nil {
				return nil, err
			}
		}
	}
	return &Result{}, nil
}

func (s *Session) execDrop(st *sqlparser.DropStmt) (*Result, error) {
	logDrop := func(objectKind string) error {
		if !s.walLogging() {
			return nil
		}
		return s.appendDDL(&storage.DDLRecord{Kind: storage.DDLDrop, Name: st.Name, ObjectKind: objectKind})
	}
	switch st.Kind {
	case "TABLE":
		dropped, err := s.db.cat.DropTable(st.Name, st.IfExists)
		if err != nil {
			return nil, err
		}
		if dropped {
			s.db.bumpSchemaEpoch() // after the mutation; see execCreateTable
			if err := logDrop("TABLE"); err != nil {
				return nil, err
			}
		}
	case "VIEW":
		dropped, err := s.db.cat.DropView(st.Name, st.IfExists)
		if err != nil {
			return nil, err
		}
		if dropped {
			s.db.bumpSchemaEpoch()
			if err := logDrop("VIEW"); err != nil {
				return nil, err
			}
		}
	case "INDEX":
		tbl, ok := s.db.cat.IndexTable(st.Name)
		if !ok {
			if st.IfExists {
				return &Result{}, nil
			}
			return nil, enginerr.Newf(enginerr.CodeUndefinedObject, "engine: index %q does not exist", st.Name)
		}
		tbl.DropIndex(st.Name)
		s.db.bumpSchemaEpoch() // after the mutation; see execCreateTable
		if s.walLogging() && !tbl.Unlogged() {
			return &Result{}, s.appendDDL(&storage.DDLRecord{Kind: storage.DDLDrop, Name: st.Name, Table: tbl.Name, ObjectKind: "INDEX"})
		}
	}
	return &Result{}, nil
}

func (s *Session) execCreateTrigger(st *sqlparser.CreateTriggerStmt) (*Result, error) {
	def := storage.TriggerSnap{Name: st.Name, Table: st.Table, Events: st.Events, Handler: st.Handler}
	if err := s.db.addNamedTrigger(def); err != nil {
		return nil, err
	}
	s.db.bumpSchemaEpoch() // after the mutation; see execCreateTable
	if s.walLogging() {
		rec := &storage.DDLRecord{Kind: storage.DDLCreateTrigger, Name: def.Name, Table: def.Table,
			Events: def.Events, Handler: def.Handler}
		if err := s.appendDDL(rec); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}
