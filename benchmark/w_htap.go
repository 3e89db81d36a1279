package main

import (
	"openivm/internal/engine"
	"openivm/internal/htap"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// htap-cross-system: the paper's second demo in one process. A
// PostgreSQL-dialect store sits behind a wire server on loopback; the
// htap pipeline mirrors its tables into a local OLAP engine that hosts
// the join-aggregate view. One caller owns both connections: twenty
// single-row writes over the writer connection, then one Pipeline.Query
// (sync, row-at-a-time replay, lazy refresh, read).
const (
	htapCustomers  = 2_000
	htapOrders     = 100_000
	htapWritesPer  = 20
	htapInsertFrac = 0.70 // the rest are ON CONFLICT (oid) DO UPDATE on existing oids
)

type htapEnv struct {
	store  *oltp.Store
	admin  *engine.Session
	srv    *wire.Server
	writer *wire.Client
	pipe   *htap.Pipeline
	oracle *salesOracle
	cl     *htapClient
	sizes  [2]int
}

func setupHTAP(cfg *config, _ int) (env, error) {
	e := &htapEnv{store: oltp.New("oltp"), sizes: [2]int{cfg.scaled(htapCustomers), cfg.scaled(htapOrders)}}
	e.admin = e.store.DB.NewSession()
	e.oracle = newSalesOracle(1, e.sizes[0])
	gens, err := loadSales(execOn(e.admin), e.oracle, e.sizes[0], e.sizes[1], 1, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	e.srv = wire.NewServer(e.store.DB)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (env, error) {
		e.close()
		return nil, err
	}
	if e.writer, err = wire.Dial(addr); err != nil {
		return fail(err)
	}
	pc, err := wire.Dial(addr)
	if err != nil {
		return fail(err)
	}
	e.pipe = htap.New(pc)
	if err := e.pipe.CreateMaterializedView(regionViewSQL); err != nil {
		return fail(err)
	}
	e.cl = &htapClient{env: e, gen: gens[0], table: "orders"}
	return e, nil
}

func (e *htapEnv) clients() []client { return []client{e.cl} }

// snapshot takes the IVM counters from the OLAP engine, which hosts the
// view, and everything else from the store the writes go to.
func (e *htapEnv) snapshot() (counters, error) {
	c := engineCounters(e.store.DB)
	c.ivm = e.pipe.OLAP.IVMStats()
	c.pulled = e.pipe.Stats.DeltasPulled
	st, err := e.writer.StatsV2()
	if err != nil {
		return c, err
	}
	c.server = st.Server
	return c, nil
}

func (e *htapEnv) midpoint(*tracer) error { return nil }

func (e *htapEnv) describe() map[string]any {
	return map[string]any{
		"tables":      map[string]int{"customers": e.sizes[0], "orders": e.sizes[1]},
		"connections": "1 writer, 1 pipeline, driven by one caller",
		"loop":        "20 single-row writes on orders over wire (70% INSERT, 30% INSERT ... ON CONFLICT (oid) DO UPDATE), then 1 Pipeline.Query on region_totals",
	}
}

func (e *htapEnv) close() error {
	if e.writer != nil {
		e.writer.Close()
	}
	if e.pipe != nil {
		e.pipe.OLTP.Close()
		e.pipe.OLAP.Close()
	}
	e.srv.Close()
	e.admin.Close()
	return e.store.DB.Close()
}

// verify compares the view on the OLAP side and the system of record on
// the OLTP side with the oracle.
func (e *htapEnv) verify(*probes) (int, error) {
	viaPipeline := func(sql string) ([]sqltypes.Row, error) {
		res, err := e.pipe.Query(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	return mismatches(
		func() (int, error) { return verifyRegionTotals(viaPipeline, e.oracle) },
		func() (int, error) {
			return verifyOrders(queryOver(e.writer), "SELECT oid, cid, amount FROM orders", e.oracle, false)
		},
	)
}

func (e *htapEnv) probe(p *probes) error {
	c := e.cl
	if err := p.parse(c.recent.texts); err != nil {
		return err
	}
	olap := e.pipe.OLAP.NewSession()
	defer olap.Close()
	if err := p.plan(olap, []string{c.readSQL(0)}); err != nil {
		return err
	}
	if err := p.compile(e.pipe.OLAP, []string{regionViewSQL}); err != nil {
		return err
	}
	// Twin on the store: same columns and statements, no capture trigger.
	twinGens, err := loadOrders(execOn(e.admin), nil, "orders_twin", e.sizes[0], twinRows, 1, 7)
	if err != nil {
		return err
	}
	twin := &htapClient{env: e, gen: twinGens[0], table: "orders_twin"}
	if err := p.median("engine.dml_us", 1e3, probeWrites, func(int) error {
		twin.genWrite()
		_, err := e.writer.Exec(twin.sql)
		return err
	}); err != nil {
		return err
	}
	if err := wireProbes(p, e.writer, e.admin); err != nil {
		return err
	}
	if err := p.recompute(execOver(e.writer), regionViewQuery); err != nil {
		return err
	}
	return p.median("engine.keyed_update_ms", 1, probeScans, func(i int) error {
		r := c.gen.draw(i)
		_, err := e.writer.Exec(keyedOrderUpdate("orders", r))
		if err == nil {
			e.oracle.apply(r)
		}
		return err
	})
}

type htapClient struct {
	env   *htapEnv
	gen   ordersGen
	table string // orders, or the probe's twin

	step    int
	kind    opKind
	sql     string
	buf     []byte
	pending orderRow
	region  int
	res     *engine.Result
	recent  ring
}

func (c *htapClient) readSQL(region int) string {
	c.buf = append(c.buf[:0], "SELECT total, n FROM region_totals WHERE region = '"...)
	return string(append(appendPadded(c.buf, 'r', region, 2), '\''))
}

func (c *htapClient) genWrite() {
	replace := c.gen.rng.Float64() >= htapInsertFrac
	if replace {
		c.pending = c.gen.existing()
	} else {
		c.pending = c.gen.fresh()
	}
	c.sql = string(appendOrderWrite(c.buf[:0], c.table, c.pending, replace, true))
}

func (c *htapClient) next() opKind {
	c.step++
	if c.step%(htapWritesPer+1) != 0 {
		c.kind = opWrite
		c.genWrite()
		c.recent.add(c.sql)
	} else {
		c.kind = opRead
		c.region = c.gen.pickRegion()
		c.sql = c.readSQL(c.region)
	}
	return c.kind
}

func (c *htapClient) do(tr *tracer, parent int32, op int64) (err error) {
	e := c.env
	if c.kind == opWrite {
		sp := tr.begin(spanWireWrite, parent, op)
		_, err = e.writer.Exec(c.sql)
		tr.end(sp)
		return err
	}
	if tr == nil {
		c.res, err = e.pipe.Query(c.sql)
		return err
	}
	sp := tr.begin(spanSync, parent, op)
	err = e.pipe.Sync()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanRefresh, parent, op)
	err = e.pipe.Ext.Refresh("region_totals")
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spanOLAPSelect, parent, op)
	c.res, err = e.pipe.OLAP.Exec(c.sql)
	tr.end(sp)
	return err
}

func (c *htapClient) check(err error) bool {
	if err != nil {
		return false
	}
	o := c.env.oracle
	if c.kind == opWrite {
		o.apply(c.pending)
		return true
	}
	return aggMatches(c.res.Rows, o.regionSum[c.region], o.regionCnt[c.region])
}
