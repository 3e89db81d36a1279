package engine

import (
	"container/list"
	"sync"

	"openivm/internal/expr"
	"openivm/internal/optimizer"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// The engine caches bound+optimized SELECT plans in two places that share
// one entry type, one validity rule and one probe/publish pair:
//
//   - the shared LRU (DB.plans), keyed by SQL text and execution knobs,
//     serves every session and therefore only admits planShareable plans;
//   - a Prepared handle holds the plans of its own SELECT bodies, keyed by
//     AST identity, admits on planCacheable, and is freed with the handle.
//
// A cached plan is valid exactly while the planStamp it was built under
// equals the executing session's current stamp.

// planStamp is everything outside the statement that shapes its plan: the
// schema epoch (DDL, trigger and pragma writes move it) and the session's
// batch_size/workers, which PlanSelect bakes into the plan as a Hint.
type planStamp struct {
	epoch     int64
	batchSize int
	workers   int
}

// stamp returns the stamp a plan built by this session right now carries.
func (s *Session) stamp() planStamp {
	return planStamp{epoch: s.db.epoch(), batchSize: s.batchSize(), workers: s.workers()}
}

// planEntry is one cached plan: the parsed SELECT (the statement-hook
// pass runs over it on every execution, hit or not), its plan, and the
// stamp the plan was built under.
type planEntry struct {
	sel   *sqlparser.SelectStmt
	node  plan.Node
	stamp planStamp
}

// planKey addresses the shared LRU. The knobs are part of the key, not
// only of the stamp, so sessions with different batch_size/workers keep
// one entry each instead of evicting each other's.
type planKey struct {
	sql       string
	batchSize int
	workers   int
}

// key is the shared-LRU address of sql for a session at this stamp.
func (at planStamp) key(sql string) planKey {
	return planKey{sql: sql, batchSize: at.batchSize, workers: at.workers}
}

// planCacheSize bounds the shared LRU: the working set of a wire server's
// repeated ad-hoc queries stays hot while a stream of one-off statements
// cannot grow the cache without limit.
const planCacheSize = 512

// planLRU is the shared text-keyed plan cache: a bounded LRU, cleared
// wholesale when the schema epoch moves so dead plan trees are released
// rather than retained until eviction.
type planLRU struct {
	mu     sync.Mutex
	max    int
	m      map[planKey]*list.Element // key -> element whose Value is *lruItem
	lru    *list.List                // front = most recently used
	hits   int64
	misses int64
}

type lruItem struct {
	key planKey
	ent *planEntry
}

func newPlanLRU(max int) *planLRU {
	return &planLRU{max: max, m: make(map[planKey]*list.Element), lru: list.New()}
}

// get returns the entry under key when its stamp equals at. An entry
// built under another stamp is evicted on sight.
func (c *planLRU) get(key planKey, at planStamp) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil
	}
	item := el.Value.(*lruItem)
	if item.ent.stamp != at {
		c.lru.Remove(el)
		delete(c.m, key)
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return item.ent
}

// put inserts (or replaces) an entry, evicting the least recently used
// one beyond capacity.
func (c *planLRU) put(key planKey, ent *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem).ent = ent
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&lruItem{key: key, ent: ent})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*lruItem).key)
	}
}

// clear drops every entry (schema epoch moved: none could ever hit again).
func (c *planLRU) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.lru.Init()
}

// StmtCacheStats reports the shared plan cache's counters (tests,
// monitoring, the wire server's stats op).
type StmtCacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
}

// StmtCacheStats returns a snapshot of the shared plan cache.
func (db *DB) StmtCacheStats() StmtCacheStats {
	c := db.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return StmtCacheStats{Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses}
}

// Prepared is a script parsed once (PrepareScript) together with the plans
// of its own SELECT bodies — top-level SELECTs and the sources of
// INSERT ... SELECT. The handle owns those plans: nothing in the engine
// refers to them, so dropping the last reference to the handle (a closed
// connection, a dropped materialized view) frees them.
//
// A cached plan carries per-node evaluation scratch, so a handle must be
// executed by one goroutine at a time — the contract a Session has too.
// The wire server keeps handles per connection; the IVM extension runs a
// view's scripts only under that view's refresh lock.
type Prepared struct {
	stmts []sqlparser.Statement
	// plans has one slot per SELECT body, nil until first planned.
	plans map[*sqlparser.SelectStmt]*planEntry
}

// CachedPlans returns how many of the handle's SELECT bodies currently
// hold a plan (tests and monitoring).
func (p *Prepared) CachedPlans() int {
	n := 0
	for _, ent := range p.plans {
		if ent != nil {
			n++
		}
	}
	return n
}

// parseScript parses a script into its statements, consulting the
// fallback parsers statement by statement when the main parser rejects
// the script as a whole.
func (db *DB) parseScript(sql string) ([]sqlparser.Statement, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err == nil {
		return stmts, nil
	}
	stmts = nil
	for _, piece := range SplitStatements(sql) {
		st, perr := db.Parse(piece)
		if perr != nil {
			return nil, perr
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

// PrepareScript parses a script once and returns the handle that executes
// it (Session.ExecStmts, Session.ExecPreparedStream). Hot paths — IVM
// propagation re-runs the same generated script on every refresh, a wire
// client its prepared statements — skip the parse on every execution and,
// from the second one on, binding and optimization of the SELECT bodies.
func (db *DB) PrepareScript(sql string) (*Prepared, error) {
	stmts, err := db.parseScript(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{stmts: stmts, plans: map[*sqlparser.SelectStmt]*planEntry{}}
	for _, st := range stmts {
		switch x := st.(type) {
		case *sqlparser.SelectStmt:
			p.plans[x] = nil
		case *sqlparser.InsertStmt:
			if x.Select != nil {
				p.plans[x.Select] = nil
			}
		}
	}
	return p, nil
}

// PrepareScript delegates to the DB: a handle is not tied to the session
// that prepared it, only to one executing goroutine at a time.
func (s *Session) PrepareScript(sql string) (*Prepared, error) {
	return s.db.PrepareScript(sql)
}

// lookupPlan is the one cache probe. A non-empty sql addresses the shared
// LRU (only ever asked for SELECT-shaped text, see selectShaped);
// otherwise sel is looked up among the bodies of the prepared handle the
// session is executing. Either way an entry is returned only while its
// stamp equals at.
func (s *Session) lookupPlan(at planStamp, sql string, sel *sqlparser.SelectStmt) *planEntry {
	if sql != "" {
		return s.db.plans.get(at.key(sql), at)
	}
	if s.executing != nil {
		if ent := s.executing.plans[sel]; ent != nil && ent.stamp == at {
			return ent
		}
	}
	return nil
}

// publishPlan is the one publish: a plan built under stamp at enters the
// executing prepared handle when sel is one of its bodies, else the
// shared LRU under sql when the statement came in as SELECT-shaped text.
// A plan whose schema moved while it was being built is dropped.
func (s *Session) publishPlan(at planStamp, sql string, sel *sqlparser.SelectStmt, n plan.Node) {
	if s.db.epoch() != at.epoch {
		return
	}
	if p := s.executing; p != nil {
		if _, own := p.plans[sel]; own {
			if planCacheable(n) {
				p.plans[sel] = &planEntry{sel: sel, node: n, stamp: at}
			}
			return
		}
	}
	if sql != "" && planShareable(n) {
		s.db.plans.put(at.key(sql), &planEntry{sel: sel, node: n, stamp: at})
	}
}

// PlanSelect binds and optimizes a SELECT, returning the logical plan.
// Exposed for the IVM compiler, which rewrites view plans. When PRAGMA
// batch_size or PRAGMA workers is set (session overlay or global), the
// root is wrapped in a plan.Hint so the executor runs the whole tree with
// the requested knobs. While the session executes a prepared handle, the
// handle's own SELECT bodies are served from (and planned into) it.
func (s *Session) PlanSelect(sel *sqlparser.SelectStmt) (plan.Node, error) {
	return s.planSelect("", sel)
}

// planSelect is PlanSelect for a statement that may also be published in
// the shared LRU: sql is its text when it arrived as a single
// SELECT-shaped statement, "" otherwise.
func (s *Session) planSelect(sql string, sel *sqlparser.SelectStmt) (plan.Node, error) {
	at := s.stamp()
	if ent := s.lookupPlan(at, "", sel); ent != nil {
		return ent.node, nil
	}
	n, err := s.newBinder().BindSelect(sel)
	if err != nil {
		return nil, err
	}
	n = optimizer.Optimize(n)
	if at.batchSize > 0 || at.workers > 0 {
		n = &plan.Hint{Input: n, BatchSize: at.batchSize, Workers: at.workers}
	}
	s.publishPlan(at, sql, sel, n)
	return n, nil
}

// planCacheable reports whether a bound plan may be re-executed verbatim
// (sequentially) on later executions: every expression in every node must
// be expr.Reusable — a plan holding a lazily cached scalar/IN subquery
// result would replay the first execution's rows. planShareable layers the
// concurrent-execution requirement on top for the shared LRU.
func planCacheable(n plan.Node) bool {
	return planExprsOK(n, expr.Reusable)
}

// planShareable reports whether a bound plan may be re-executed verbatim
// by MULTIPLE sessions, possibly concurrently. It is strictly stronger
// than planCacheable: besides refusing lazily cached subquery results
// (expr.Reusable), every expression must be expr.ParallelSafe, because
// two sessions executing the shared plan at once evaluate the same
// expression trees from two goroutines (per-node scratch like
// ScalarFunc's argument buffer would race). Unknown node kinds refuse.
func planShareable(n plan.Node) bool {
	return planExprsOK(n, func(e expr.Expr) bool {
		return expr.Reusable(e) && expr.ParallelSafe(e)
	})
}

// planExprsOK walks a plan and applies one predicate to every expression
// in every known node kind — the single walker behind planCacheable and
// planShareable, so the two cache gates can never drift apart on node
// coverage. Unknown node kinds refuse, keeping the default conservative
// if new plan nodes appear.
func planExprsOK(n plan.Node, pred func(expr.Expr) bool) bool {
	ok := true
	plan.Walk(n, func(nd plan.Node) bool {
		switch x := nd.(type) {
		case *plan.Scan:
			ok = ok && pred(x.Filter)
		case *plan.Filter:
			ok = ok && pred(x.Pred)
		case *plan.Project:
			for _, e := range x.Exprs {
				ok = ok && pred(e)
			}
		case *plan.Aggregate:
			for _, g := range x.GroupBy {
				ok = ok && pred(g)
			}
			for _, a := range x.Aggs {
				ok = ok && pred(a.Arg)
			}
		case *plan.Join:
			ok = ok && pred(x.On)
		case *plan.Sort:
			for _, k := range x.Keys {
				ok = ok && pred(k.Expr)
			}
		case *plan.Values:
			for _, row := range x.Rows {
				for _, e := range row {
					ok = ok && pred(e)
				}
			}
		case *plan.Distinct, *plan.Limit, *plan.SetOp, *plan.Hint:
		default:
			ok = false
		}
		return ok
	})
	return ok
}

// selectShaped reports whether the text's first keyword is SELECT or
// WITH (allocation-free; case-insensitive). Only such text is probed in
// and published to the shared LRU: probing DML would take the pragma
// locks and inflate the miss counter on every INSERT of a write-heavy
// workload for a cache it can never hit.
func selectShaped(sql string) bool {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
		i++
	}
	rest := sql[i:]
	return keywordPrefix(rest, "SELECT") || keywordPrefix(rest, "WITH")
}

// keywordPrefix reports whether s begins with the (upper-case) keyword
// followed by a non-identifier byte or end of string.
func keywordPrefix(s, kw string) bool {
	if len(s) < len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != kw[i] {
			return false
		}
	}
	if len(s) == len(kw) {
		return true
	}
	c := s[len(kw)]
	return !(c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
}
