package main

import (
	"openivm/internal/engine"
	"openivm/internal/ivmext"
)

// embedded-agg: the paper's Listing 1 in DuckDB-extension mode. One
// caller alternates four 25-row writes with one point read of the view;
// the read pays the lazy refresh of the ~130 delta rows those writes
// captured.
const (
	aggRows       = 500_000
	aggBatch      = 25   // rows per write statement
	aggWritesPer  = 4    // writes before each read
	aggInsertFrac = 0.70 // the rest replace existing ids (a retraction plus an insertion each)
)

const groupsViewSQL = "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index"
const groupsViewQuery = "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index"

type aggEnv struct {
	db     *engine.DB
	ext    *ivmext.Extension
	sess   *engine.Session
	oracle *groupsOracle
	cl     *aggClient
	rows   int
}

func setupAgg(cfg *config, clients int) (env, error) {
	e := &aggEnv{db: engine.Open("embedded-agg", engine.DialectDuckDB), rows: cfg.scaled(aggRows)}
	e.ext = ivmext.Install(e.db)
	e.sess = e.db.NewSession()
	e.oracle = newGroupsOracle(1)
	gens, err := loadGroups(execOn(e.sess), e.oracle, "groups", e.rows, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := e.sess.ExecScript(groupsViewSQL); err != nil {
		return nil, err
	}
	e.cl = &aggClient{env: e, gen: gens[0], table: "groups"}
	return e, nil
}

func (e *aggEnv) clients() []client { return []client{e.cl} }

func (e *aggEnv) snapshot() (counters, error) { return engineCounters(e.db), nil }

func (e *aggEnv) midpoint(*tracer) error { return nil }

func (e *aggEnv) describe() map[string]any {
	return map[string]any{
		"tables": map[string]int{"groups": e.rows}, "groups": numGroups,
		"loop": "4 writes of 25 rows (70% INSERT, 30% INSERT OR REPLACE of existing ids), then 1 point read of query_groups",
	}
}

func (e *aggEnv) close() error {
	e.sess.Close()
	return e.db.Close()
}

func (e *aggEnv) verify(*probes) (int, error) {
	return verifyGroupsView(queryOn(e.sess), e.oracle)
}

func (e *aggEnv) probe(p *probes) error {
	c := e.cl
	if err := p.parse(c.recent.texts); err != nil {
		return err
	}
	if err := p.plan(e.sess, []string{c.readSQL(0)}); err != nil {
		return err
	}
	if err := p.compile(e.db, []string{groupsViewSQL}); err != nil {
		return err
	}
	// Twin: same schema and statement shapes, no view over it.
	twinGens, err := loadGroups(execOn(e.sess), nil, "groups_twin", twinRows, 1, 7)
	if err != nil {
		return err
	}
	twin := &aggClient{env: e, gen: twinGens[0], table: "groups_twin"}
	if err := p.median("engine.dml_us", 1e3, probeWrites, func(int) error {
		twin.genWrite()
		_, err := e.sess.ExecScript(twin.sql)
		return err
	}); err != nil {
		return err
	}
	if err := p.recompute(execOn(e.sess), groupsViewQuery); err != nil {
		return err
	}
	// A keyed UPDATE is what the replace statements stand in for.
	return p.median("engine.keyed_update_ms", 1, probeScans, func(i int) error {
		r := c.gen.draw(i)
		_, err := e.sess.ExecScript(keyedGroupUpdate("groups", r))
		if err == nil {
			e.oracle.apply(r)
		}
		return err
	})
}

type aggClient struct {
	env   *aggEnv
	gen   groupsGen
	table string // groups, or the probe's twin

	step    int
	kind    opKind
	sql     string
	buf     []byte
	pending []groupRow
	group   int
	res     *engine.Result
	recent  ring
}

func (c *aggClient) readSQL(group int) string {
	c.buf = append(c.buf[:0], "SELECT total_value, n FROM query_groups WHERE group_index = '"...)
	c.buf = append(appendPadded(c.buf, 'g', group, 4), '\'')
	return string(c.buf)
}

func (c *aggClient) genWrite() {
	replace := c.gen.rng.Float64() >= aggInsertFrac
	if replace {
		c.pending = c.gen.existing(aggBatch, c.pending[:0])
	} else {
		c.pending = c.gen.fresh(aggBatch, c.pending[:0])
	}
	c.buf = appendGroupsWrite(c.buf[:0], c.table, replace, c.pending)
	c.sql = string(c.buf)
}

func (c *aggClient) next() opKind {
	c.step++
	if c.step%(aggWritesPer+1) != 0 {
		c.kind = opWrite
		c.genWrite()
		c.recent.add(c.sql)
	} else {
		c.kind = opRead
		c.group = c.gen.pickGroup()
		c.sql = c.readSQL(c.group)
	}
	return c.kind
}

func (c *aggClient) do(tr *tracer, parent int32, op int64) (err error) {
	e := c.env
	if c.kind == opWrite {
		sp := tr.begin(spanEngineWrite, parent, op)
		c.res, err = e.sess.ExecScript(c.sql)
		tr.end(sp)
		return err
	}
	if tr != nil {
		sp := tr.begin(spanRefresh, parent, op)
		err = e.ext.Refresh("query_groups")
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin(spanEngineSelect, parent, op)
	c.res, err = e.sess.ExecScript(c.sql)
	tr.end(sp)
	return err
}

func (c *aggClient) check(err error) bool {
	if err != nil {
		return false
	}
	o := c.env.oracle
	if c.kind == opWrite {
		for _, r := range c.pending {
			o.apply(r)
		}
		return c.res.RowsAffected == len(c.pending)
	}
	return aggMatches(c.res.Rows, o.sum[c.group], o.cnt[c.group])
}
