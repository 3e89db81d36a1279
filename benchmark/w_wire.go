package main

import (
	"fmt"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// wire-dashboards: many users reading views beside writers, over the
// wire protocol. Each client connection issues 90 % reads and 10 %
// single-row writes on the base tables of three views.
const (
	wireGroupRows = 20_000
	wireCustomers = 1_000
	wireOrders    = 10_000 // half of them have amount >= bigAmount: big_orders holds ~5k rows

	// Shares of all ops; the rest are prepared point reads.
	wireWriteShare  = 0.10
	wireInsertFrac  = 0.70 // of writes; the rest replace an existing key
	wireAdhocShare  = 0.42 // ad-hoc point read, key inlined: 4096 distinct texts, 8x the 512-entry plan cache
	wireJoinShare   = 0.02 // ad-hoc 3-table join + filter + group-by on base tables
	wireStreamShare = 0.02 // big_orders streamed and drained batch by batch
)

const (
	bigViewSQL = "CREATE MATERIALIZED VIEW big_orders AS SELECT oid, cid, amount FROM orders WHERE amount >= 250"
	streamSQL  = "SELECT oid, cid, amount FROM big_orders"
)

type wireReadKind uint8

const (
	readPreparedGroup wireReadKind = iota
	readPreparedRegion
	readAdhoc
	readJoin
	readStream
)

type wireEnv struct {
	db     *engine.DB
	ext    *ivmext.Extension
	admin  *engine.Session
	srv    *wire.Server
	groups *groupsOracle
	sales  *salesOracle
	cls    []*wireClient
	sizes  [3]int
}

func setupWire(cfg *config, clients int) (env, error) {
	e := &wireEnv{
		db:    engine.Open("wire-dashboards", engine.DialectDuckDB),
		sizes: [3]int{cfg.scaled(wireGroupRows), cfg.scaled(wireCustomers), cfg.scaled(wireOrders)},
	}
	e.ext = ivmext.Install(e.db)
	e.admin = e.db.NewSession()
	e.groups = newGroupsOracle(clients)
	e.sales = newSalesOracle(clients, e.sizes[1])
	ggens, err := loadGroups(execOn(e.admin), e.groups, "groups", e.sizes[0], clients, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ogens, err := loadSales(execOn(e.admin), e.sales, e.sizes[1], e.sizes[2], clients, true, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, sql := range []string{groupsViewSQL, regionViewSQL, bigViewSQL} {
		if _, err := e.admin.ExecScript(sql); err != nil {
			return nil, err
		}
	}
	e.srv = wire.NewServer(e.db)
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c := &wireClient{env: e, idx: i, ggen: ggens[i], ogen: ogens[i]}
		e.cls = append(e.cls, c)
		if c.conn, err = wire.Dial(addr); err == nil {
			err = c.conn.Prepare("group_total", "SELECT total_value, n FROM query_groups WHERE group_index = $1")
		}
		if err == nil {
			err = c.conn.Prepare("region_total", "SELECT total, n FROM region_totals WHERE region = $1")
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *wireEnv) clients() []client { return asClients(e.cls) }

func (e *wireEnv) snapshot() (counters, error) {
	c := engineCounters(e.db)
	st, err := e.cls[0].conn.StatsV2()
	if err != nil {
		return c, err
	}
	c.server = st.Server
	return c, nil
}

func (e *wireEnv) midpoint(*tracer) error { return nil }

func (e *wireEnv) describe() map[string]any {
	return map[string]any{
		"tables": map[string]int{"groups": e.sizes[0], "customers": e.sizes[1], "orders": e.sizes[2], "regions": numRegions},
		"views":  "query_groups (group aggregate), region_totals (join aggregate), big_orders (filtered projection)",
		"mix":    "per connection: 10% single-row writes on groups or orders (70% INSERT, 30% INSERT OR REPLACE), 44% prepared point reads, 42% ad-hoc point reads over 4096 texts, 2% ad-hoc 3-table join, 2% streamed big_orders",
	}
}

func (e *wireEnv) close() error {
	for _, c := range e.cls {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	e.srv.Close()
	e.admin.Close()
	return e.db.Close()
}

func (e *wireEnv) verify(*probes) (int, error) {
	q := queryOver(e.cls[0].conn)
	return mismatches(
		func() (int, error) { return verifyGroupsView(q, e.groups) },
		func() (int, error) { return verifyRegionTotals(q, e.sales) },
		func() (int, error) { return verifyOrders(q, streamSQL, e.sales, true) },
	)
}

func (e *wireEnv) probe(p *probes) error {
	c := e.cls[0]
	if err := p.parse(c.recent.texts); err != nil {
		return err
	}
	if err := p.plan(e.admin, []string{c.adhocSQL(c.idx), c.joinSQL(c.idx)}); err != nil {
		return err
	}
	if err := p.compile(e.db, []string{groupsViewSQL, regionViewSQL, bigViewSQL}); err != nil {
		return err
	}
	ogens, err := loadOrders(execOn(e.admin), nil, "orders_twin", e.sizes[1], twinRows, 1, 7)
	if err != nil {
		return err
	}
	ggens, err := loadGroups(execOn(e.admin), nil, "groups_twin", twinRows, 1, 7)
	if err != nil {
		return err
	}
	twin := &wireClient{env: e, ggen: ggens[0], ogen: ogens[0], twin: true}
	if err := p.median("engine.dml_us", 1e3, probeWrites, func(int) error {
		twin.genWrite()
		_, err := c.conn.Exec(twin.sql)
		return err
	}); err != nil {
		return err
	}
	if err := wireProbes(p, c.conn, e.admin); err != nil {
		return err
	}
	var bytes, ms float64
	for _, cl := range e.cls {
		bytes += float64(cl.streamBytes)
		ms += float64(cl.streamNS) / 1e6
	}
	if ms > 0 {
		p.m["wire.stream_mb_per_s"] = bytes / (1 << 20) / (ms / 1e3)
	}
	if err := p.recompute(execOver(c.conn), regionViewQuery); err != nil {
		return err
	}
	return p.median("engine.keyed_update_ms", 1, probeScans, func(i int) error {
		r := c.ogen.draw(i)
		_, err := c.conn.Exec(keyedOrderUpdate("orders", r))
		if err == nil {
			e.sales.apply(r)
		}
		return err
	})
}

// wireProbes measures the protocol itself on a quiescent connection: a
// ping, and the same trivial statement over the wire and in process.
func wireProbes(p *probes, c *wire.Client, s *engine.Session) error {
	const stmt = "SELECT 1"
	if err := p.median("wire.ping_us", 1e3, 1000, func(int) error { return c.Ping() }); err != nil {
		return err
	}
	over, err := p.timed("probe/wire.Exec", 1000, func(int) error {
		_, err := c.Exec(stmt)
		return err
	})
	if err != nil {
		return err
	}
	inProcess, err := p.timed("probe/engine.ExecScript", 1000, func(int) error {
		_, err := s.ExecScript(stmt)
		return err
	})
	p.m["wire.exec_overhead_us"] = (over - inProcess) * 1e3
	return err
}

type wireClient struct {
	env  *wireEnv
	idx  int
	conn *wire.Client
	ggen groupsGen
	ogen ordersGen
	twin bool // write to the twin tables (probe only)

	kind     opKind
	read     wireReadKind
	sql      string
	buf      []byte
	onGroups bool
	gRow     groupRow
	oRow     orderRow
	key      int
	prepared int // alternates the two prepared statements
	rows     []sqltypes.Row
	ownCnt   int64 // own rows and their amounts seen in a streamed read
	ownSum   int64
	recent   ring

	streamBytes int64 // decoded value bytes of traced streamed reads
	streamNS    int64
}

func (c *wireClient) adhocSQL(group int) string {
	c.buf = append(c.buf[:0], "SELECT total_value, n FROM query_groups WHERE group_index = '"...)
	return string(append(appendPadded(c.buf, 'g', group, 4), '\''))
}

// joinSQL asks for the big orders of one zone's regions from the base
// tables; the zone varies, so eight texts exist and the plan cache holds
// them all.
func (c *wireClient) joinSQL(zone int) string {
	return fmt.Sprintf("SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid JOIN regions ON customers.region = regions.region WHERE regions.zone = '%s' AND orders.amount >= %d GROUP BY customers.region", zoneKey(zone), bigAmount)
}

func (c *wireClient) genWrite() {
	rng := c.ogen.rng
	c.onGroups = rng.Intn(2) == 0
	replace := rng.Float64() >= wireInsertFrac
	if c.onGroups {
		table := "groups"
		if c.twin {
			table = "groups_twin"
		}
		if replace {
			c.gRow = c.ggen.draw(rng.Intn(c.ggen.next))
		} else {
			c.gRow = c.ggen.draw(c.ggen.next)
			c.ggen.next++
		}
		c.sql = string(appendGroupsWrite(c.buf[:0], table, replace, []groupRow{c.gRow}))
		return
	}
	table := "orders"
	if c.twin {
		table = "orders_twin"
	}
	if replace {
		c.oRow = c.ogen.existing()
	} else {
		c.oRow = c.ogen.fresh()
	}
	c.sql = string(appendOrderWrite(c.buf[:0], table, c.oRow, replace, false))
}

func (c *wireClient) next() opKind {
	r := c.ogen.rng.Float64()
	if r < wireWriteShare {
		c.kind = opWrite
		c.genWrite()
		c.recent.add(c.sql)
		return c.kind
	}
	c.kind = opRead
	switch r -= wireWriteShare; {
	case r < wireAdhocShare:
		c.read, c.key = readAdhoc, c.ggen.pickGroup()
		c.sql = c.adhocSQL(c.key)
	case r < wireAdhocShare+wireJoinShare:
		c.read = readJoin
		c.key = c.ogen.rng.Intn(numZones/c.ogen.clients)*c.ogen.clients + c.idx
		c.sql = c.joinSQL(c.key)
	case r < wireAdhocShare+wireJoinShare+wireStreamShare:
		c.read, c.sql = readStream, streamSQL
	default:
		if c.prepared++; c.prepared%2 == 0 {
			c.read, c.key = readPreparedGroup, c.ggen.pickGroup()
		} else {
			c.read, c.key = readPreparedRegion, c.ogen.pickRegion()
		}
	}
	return c.kind
}

// drain consumes a stream batch by batch. A streamed big_orders read
// keeps only what the check needs: the count and amount total of this
// client's own rows.
func (c *wireClient) drain(rows *wire.Rows, err error) error {
	if err != nil {
		return err
	}
	c.rows, c.ownCnt, c.ownSum = c.rows[:0], 0, 0
	for {
		batch, err := rows.Next()
		if err != nil || batch == nil {
			return err
		}
		if c.read != readStream {
			for _, r := range batch {
				c.rows = append(c.rows, r)
			}
			continue
		}
		for _, r := range batch {
			if int(r[0].I)%len(c.env.cls) == c.idx {
				c.ownCnt++
				c.ownSum += r[2].I
			}
		}
		c.streamBytes += int64(len(batch)) * 3 * 8
	}
}

func (c *wireClient) do(tr *tracer, parent int32, op int64) (err error) {
	if c.kind == opWrite {
		sp := tr.begin(spanWireWrite, parent, op)
		_, err = c.conn.Exec(c.sql)
		tr.end(sp)
		return err
	}
	view, name := "query_groups", spanWireSelect
	switch c.read {
	case readPreparedGroup:
		name = spanWirePrepared
	case readPreparedRegion:
		view, name = "region_totals", spanWirePrepared
	case readJoin:
		view, name = "", spanWireJoin
	case readStream:
		view, name = "big_orders", spanWireStream
	}
	if tr != nil && view != "" {
		sp := tr.begin(spanRefresh, parent, op)
		err = c.env.ext.Refresh(view)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin(name, parent, op)
	t := time.Now()
	switch c.read {
	case readPreparedGroup:
		err = c.drain(c.conn.QueryPrepared("group_total", sqltypes.NewString(groupKey(c.key))))
	case readPreparedRegion:
		err = c.drain(c.conn.QueryPrepared("region_total", sqltypes.NewString(regionKey(c.key))))
	default:
		err = c.drain(c.conn.Query(c.sql))
	}
	if c.read == readStream && tr != nil {
		c.streamNS += int64(time.Since(t))
	}
	tr.end(sp)
	return err
}

func (c *wireClient) check(err error) bool {
	if err != nil {
		return false
	}
	g, s := c.env.groups, c.env.sales
	if c.kind == opWrite {
		if c.onGroups {
			g.apply(c.gRow)
		} else {
			s.apply(c.oRow)
		}
		return true
	}
	switch c.read {
	case readPreparedRegion:
		return aggMatches(c.rows, s.regionSum[c.key], s.regionCnt[c.key])
	case readJoin:
		// One row per region of the zone that has a big order.
		want := 0
		for r := c.key; r < numRegions; r += numZones {
			if s.regionBigCnt[r] > 0 {
				want++
			}
		}
		if len(c.rows) != want {
			return false
		}
		for _, row := range c.rows {
			r, ok := prefixedKey('r')(row[0])
			if !ok || r >= numRegions || zoneOf(r) != c.key || row[1].AsInt() != s.regionBigSum[r] || row[2].AsInt() != s.regionBigCnt[r] {
				return false
			}
		}
		return true
	case readStream:
		return c.ownCnt == s.bigCnt[c.idx] && c.ownSum == s.bigSum[c.idx]
	default:
		return aggMatches(c.rows, g.sum[c.key], g.cnt[c.key])
	}
}
