package engine

import (
	"container/list"
	"sync"

	"openivm/internal/expr"
	"openivm/internal/optimizer"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// The plan cache is one LRU of statements shared by every session, filed
// under each statement's key: its text with the literals lifted out
// (sqlparser.Lift), so that statements of one shape share an entry whatever
// their values. An entry holds the statement's parse, the plan of its own
// SELECT body and the parameter binding that plan reads. Text and prepared
// handles come in through it alike.
//
// An entry serves one execution at a time: the LRU lends it out (take) and
// gets it back when the execution ends (give), so the binding can live in
// the entry and a plan with parameters in it is reused by every session
// without two of them ever sharing it at once. A session that finds every
// entry of its key lent out builds one more, which the cache keeps beside
// the others (up to planCopies per key): sessions running one shape
// concurrently settle on one entry each. A plan's stamp is the schema epoch
// it was built under (DDL and trigger writes move it): the plan is valid
// while that equals the DB's, and the epoch moving also empties the LRU,
// releasing every dead plan. Nothing of the session is in a plan, so
// sessions share one entry per statement shape.

// planEntry is one statement on its way through the engine, and what the
// cache keeps of it.
type planEntry struct {
	key  string // the statement's key (sqlparser.Lifted.Key); "" for a statement the cache does not hold
	stmt sqlparser.Statement
	// body is the statement's own SELECT — the statement itself, or the
	// source of an INSERT — and node its plan, nil until planned or when
	// the plan may not be executed twice (planCacheable); stamp is the
	// schema epoch node was built under. sets is an INSERT's bound ON
	// CONFLICT SET list, kept with node when every expression in it is
	// expr.Stateless.
	body  *sqlparser.SelectStmt
	node  plan.Node
	sets  *setList
	stamp int64
	// params is the binding the statement's parameters read: the literals
	// lifted out of this execution's text, or the user's $N values.
	params expr.ParamBinding
}

// newEntry wraps a parsed statement, to be filed under key unless key is
// empty.
func newEntry(key []byte, stmt sqlparser.Statement) *planEntry {
	ent := &planEntry{key: string(key), stmt: stmt}
	switch x := stmt.(type) {
	case *sqlparser.SelectStmt:
		ent.body = x
	case *sqlparser.InsertStmt:
		ent.body = x.Select
	}
	return ent
}

// planCacheSize bounds the LRU: the working set of a server's statement
// shapes stays hot while a stream of one-off statements cannot grow the
// cache without limit.
const planCacheSize = 512

// planCopies bounds the entries kept under one key: as many sessions as
// that may run one shape at once, each on an entry of its own.
const planCopies = 16

// planLRU is the statement cache: a bounded LRU of keys, each with the
// entries filed under it that no execution holds, cleared wholesale when the
// schema epoch moves.
type planLRU struct {
	mu     sync.Mutex
	max    int
	m      map[string]*list.Element // key -> element whose Value is the *planSlot
	lru    *list.List               // front = most recently used
	hits   int64
	misses int64
}

// planSlot is one key of the LRU and its idle entries.
type planSlot struct {
	key  string
	idle []*planEntry
}

func newPlanLRU(max int) *planLRU {
	return &planLRU{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

// take lends out an idle entry filed under key, marking the key the most
// recently used: nil when there is none.
func (c *planLRU) take(key []byte) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[string(key)]
	if !ok || len(el.Value.(*planSlot).idle) == 0 {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	slot := el.Value.(*planSlot)
	ent := slot.idle[len(slot.idle)-1]
	slot.idle = slot.idle[:len(slot.idle)-1]
	return ent
}

// give ends an execution of ent, filing it as idle under its key unless
// planCopies are idle there already. A new key is the most recently used,
// evicting the least recently used beyond capacity.
func (c *planLRU) give(ent *planEntry) {
	if ent.key == "" {
		return
	}
	ent.params = expr.ParamBinding{} // the execution's values are not the cache's to keep
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[ent.key]
	if !ok {
		el = c.lru.PushFront(&planSlot{key: ent.key})
		c.m[ent.key] = el
		for c.lru.Len() > c.max {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.m, back.Value.(*planSlot).key)
		}
	}
	if slot := el.Value.(*planSlot); len(slot.idle) < planCopies {
		slot.idle = append(slot.idle, ent)
	}
}

// holds reports whether an entry is filed under key, moving nothing.
func (c *planLRU) holds(key []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[string(key)]
	return ok
}

// clear drops every entry (schema epoch moved: no plan in it is valid).
func (c *planLRU) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.lru.Init()
}

// Prepared is a script lexed and parsed once (PrepareScript), executed by
// Session.ExecStmts and ExecPreparedStream. Its statements go through the
// plan cache like text, under the keys they have as text; the handle keeps
// their parses for when the cache has none. Text executes through a
// handle of its own whose statements are parsed only on a cache miss. A
// handle holds no execution state: sessions may execute one concurrently.
type Prepared struct {
	lifted []sqlparser.Lifted
	stmts  []sqlparser.Statement // the parses, nil until PrepareScript parses them
}

// split lexes a script into its statements, lifting literals (none when
// the DB runs verbatim). A script the lexer rejects is reported with the
// parser's error.
func (db *DB) split(sql string) (*Prepared, error) {
	lifted, err := sqlparser.Lift(sql, !db.verbatim)
	if err == nil {
		return &Prepared{lifted: lifted}, nil
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{lifted: make([]sqlparser.Lifted, 1), stmts: []sqlparser.Statement{stmt}}, nil
}

// parse parses statement i of the handle, keeping the parse. A lifted
// statement the parser rejects is parsed again as text, and the cache does
// not hold that parse: its key is dropped.
func (db *DB) parse(p *Prepared, i int) (sqlparser.Statement, error) {
	if p.stmts == nil {
		p.stmts = make([]sqlparser.Statement, len(p.lifted))
	}
	if p.stmts[i] != nil {
		return p.stmts[i], nil
	}
	l := &p.lifted[i]
	if l.Key != nil {
		if stmt, err := l.Parse(); err == nil {
			p.stmts[i] = stmt
			return stmt, nil
		}
		l.Key = nil
	}
	stmt, err := sqlparser.Parse(l.Text())
	p.stmts[i] = stmt
	return stmt, err
}

// PrepareScript lexes and parses a script once and returns the handle
// that executes it (Session.ExecStmts, Session.ExecPreparedStream): parse
// errors surface here, and an execution never parses. Whether an
// execution also skips binding is the plan cache's to say, as for text.
func (db *DB) PrepareScript(sql string) (*Prepared, error) {
	p, err := db.split(sql)
	if err != nil {
		return nil, err
	}
	for i := range p.lifted {
		if _, err := db.parse(p, i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// PrepareScript delegates to the DB: a handle is not tied to the session
// that prepared it.
func (s *Session) PrepareScript(sql string) (*Prepared, error) {
	return s.db.PrepareScript(sql)
}

// parseUncached parses statement i of p unless the cache holds its key: a
// statement the cache holds is known to parse.
func (s *Session) parseUncached(p *Prepared, i int) error {
	if l := &p.lifted[i]; l.Key != nil && (p.stmts == nil || p.stmts[i] == nil) {
		if s.db.plans.holds(l.Key) {
			return nil
		}
	}
	_, err := s.db.parse(p, i)
	return err
}

// checkout returns the entry statement i of p executes as: the cache's,
// when it holds the statement's key, else one built from the statement's
// parse. Either way it carries this execution's binding — the literals
// lifted out of the text, or the session's $N values — until it is given
// back.
func (s *Session) checkout(p *Prepared, i int) (*planEntry, error) {
	l := &p.lifted[i]
	var ent *planEntry
	if l.Key != nil {
		ent = s.db.plans.take(l.Key)
	}
	if ent == nil {
		stmt, err := s.db.parse(p, i)
		if err != nil {
			return nil, err
		}
		ent = newEntry(l.Key, stmt) // a statement parsed as text has lost its key
	}
	if l.Params != nil || l.Rows != nil {
		ent.params = expr.ParamBinding{Vals: l.Params, Rows: l.Rows}
	} else {
		ent.params = expr.ParamBinding{Vals: s.params.Vals}
	}
	return ent, nil
}

// PlanSelect binds and optimizes a SELECT against the session's own $N
// binding, returning the logical plan. Exposed for the IVM compiler, which
// rewrites view plans.
func (s *Session) PlanSelect(sel *sqlparser.SelectStmt) (plan.Node, error) {
	return s.bindSelect(sel, &s.params)
}

// planSelect is PlanSelect for a SELECT of the statement ent: its own body
// is served from, and planned into, the entry.
func (s *Session) planSelect(ent *planEntry, sel *sqlparser.SelectStmt) (plan.Node, error) {
	at := s.db.epoch()
	if sel == ent.body && ent.node != nil && ent.stamp == at {
		return ent.node, nil
	}
	n, err := s.bindSelect(sel, &ent.params)
	if err != nil {
		return nil, err
	}
	// A plan whose schema moved while it was being built is not kept.
	if sel == ent.body && planCacheable(n) && s.db.epoch() == at {
		ent.node, ent.sets, ent.stamp = n, nil, at
	}
	return n, nil
}

// bindSelect binds and optimizes sel, its parameters read from params.
func (s *Session) bindSelect(sel *sqlparser.SelectStmt, params *expr.ParamBinding) (plan.Node, error) {
	n, err := s.newBinder(params).BindSelect(sel)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(n), nil
}

// planCacheable reports whether a bound plan may be executed again: every
// expression in every node must be expr.Stateless — a plan holding a
// lazily cached scalar/IN subquery result would replay the first
// execution's rows. Unknown node kinds refuse, keeping the default
// conservative if new plan nodes appear.
func planCacheable(n plan.Node) bool {
	ok := true
	plan.Walk(n, func(nd plan.Node) bool {
		switch x := nd.(type) {
		case *plan.Scan:
			ok = ok && expr.Stateless(x.Filter)
		case *plan.Filter:
			ok = ok && expr.Stateless(x.Pred)
		case *plan.Project:
			for _, e := range x.Exprs {
				ok = ok && expr.Stateless(e)
			}
		case *plan.Aggregate:
			for _, g := range x.GroupBy {
				ok = ok && expr.Stateless(g)
			}
			for _, a := range x.Aggs {
				ok = ok && expr.Stateless(a.Arg)
			}
		case *plan.Join:
			ok = ok && expr.Stateless(x.On)
		case *plan.Series:
			ok = ok && expr.Stateless(x.Lo) && expr.Stateless(x.Hi)
		case *plan.Sort:
			for _, k := range x.Keys {
				ok = ok && expr.Stateless(k.Expr)
			}
		case *plan.Values:
			for _, row := range x.Rows {
				for _, e := range row {
					ok = ok && expr.Stateless(e)
				}
			}
		case *plan.Distinct, *plan.Limit, *plan.SetOp:
		default:
			ok = false
		}
		return ok
	})
	return ok
}
