package main

import (
	"os"
	"strconv"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/storage"
)

// embedded-join-durable: one caller on an engine with the disk backend
// attached (default flush policy: one fsync per group-commit batch). A
// write is a transaction of 96 single-row inserts; every other op reads one
// of two views that share Δorders.
//
// The transactions only insert. An UPDATE, DELETE or INSERT OR REPLACE
// beside them leaves dead row versions, and the engine can then compact a
// table between a commit's publication and its redo record
// (mvcc.Manager.Commit unpins before the commit hook reads the slots): the
// log it writes is one recovery rejects ("row has 0 values", "duplicate
// primary key"). The final comparison of this very workload found that
// with two committing sessions; the sweep that compacts is not tied to a
// session, so one caller is not known to be safe from it, and retractions
// are left to the other three workloads.
const (
	durCustomers = 10_000
	durOrders    = 300_000
	// Inserts per transaction, one transaction before each read. A commit
	// waits for one append + fsync of the log: 0.08 to 0.18 ms on this
	// box's disk, drifting by the half hour whatever the processor does, so
	// there is nothing to calibrate it against. With two inserts (~7 us
	// each) that wait was most of write_p50_ms and its drift the metric's;
	// with 96 it is an eighth.
	durTxnRows = 96
)

const (
	regionViewSQL   = "CREATE MATERIALIZED VIEW region_totals AS " + regionViewQuery
	regionViewQuery = "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region"
	custViewSQL     = "CREATE MATERIALIZED VIEW cust_totals AS SELECT cid, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cid"
)

type durEnv struct {
	dir      string
	db       *engine.DB
	ext      *ivmext.Extension
	admin    *engine.Session
	oracle   *salesOracle
	cls      []*durClient
	sizes    [2]int
	ckpt     span // the midpoint checkpoint (traced runs)
	ckptSize int64
	closed   bool
}

func openDurable(dir string) (*engine.DB, *ivmext.Extension, error) {
	db := engine.Open("embedded-join-durable", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	be, err := storage.OpenDisk(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := db.AttachBackend(be); err != nil {
		return nil, nil, err
	}
	return db, ext, nil
}

func setupDurable(cfg *config, clients int) (env, error) {
	dir, err := os.MkdirTemp(cfg.OutDir, "durable-*")
	if err != nil {
		return nil, err
	}
	e := &durEnv{dir: dir, sizes: [2]int{cfg.scaled(durCustomers), cfg.scaled(durOrders)}}
	if e.db, e.ext, err = openDurable(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.admin = e.db.NewSession()
	e.oracle = newSalesOracle(clients, e.sizes[0])
	gens, err := loadSales(execOn(e.admin), e.oracle, e.sizes[0], e.sizes[1], clients, false, cfg.Seed)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, sql := range []string{regionViewSQL, custViewSQL} {
		if _, err := e.admin.ExecScript(sql); err != nil {
			e.close()
			return nil, err
		}
	}
	for i := range gens {
		e.cls = append(e.cls, &durClient{env: e, gen: gens[i], sess: e.db.NewSession(), table: "orders"})
	}
	return e, nil
}

func (e *durEnv) clients() []client { return asClients(e.cls) }

func (e *durEnv) snapshot() (counters, error) { return engineCounters(e.db), nil }

func (e *durEnv) describe() map[string]any {
	return map[string]any{
		"tables":       map[string]int{"customers": e.sizes[0], "orders": e.sizes[1]},
		"flush_policy": "storage.OpenDisk default: fsync per group-commit batch",
		"loop":         "1 transaction (BEGIN; 96 x INSERT order; COMMIT), then 1 point read of region_totals or cust_totals; one Checkpoint at the window midpoint; Close, reopen, AttachBackend and a full comparison after it",
	}
}

// midpoint checkpoints while the clients keep writing.
func (e *durEnv) midpoint(tr *tracer) error {
	sp := tr.begin(spanCheckpoint, noParent, 0)
	err := e.db.Checkpoint()
	tr.end(sp)
	if tr != nil {
		e.ckpt = tr.spans[sp]
	}
	if err == nil {
		e.ckptSize, err = dirBytes(e.dir)
	}
	return err
}

func (e *durEnv) closeDB() error {
	if e.closed {
		return nil
	}
	e.closed = true
	for _, c := range e.cls {
		c.sess.Close()
	}
	e.admin.Close()
	return e.db.Close()
}

func (e *durEnv) close() error {
	err := e.closeDB()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

func (e *durEnv) verifyAll(q queryFn) (int, error) {
	return mismatches(
		func() (int, error) { return verifyRegionTotals(q, e.oracle) },
		func() (int, error) {
			return verifyAgg(q, "SELECT cid, total, n FROM cust_totals", e.oracle.custSum, e.oracle.custCnt, intKey)
		},
		func() (int, error) { return verifyOrders(q, "SELECT oid, cid, amount FROM orders", e.oracle, false) },
	)
}

// verify compares the live views, then closes the database, recovers it
// from the directory and compares again: every acknowledged write must
// be readable.
func (e *durEnv) verify(p *probes) (int, error) {
	bad, err := e.verifyAll(queryOn(e.admin))
	if err != nil {
		return bad, err
	}
	var user int64
	for _, b := range e.oracle.userBytes {
		user += b
	}
	if disk, err := dirBytes(e.dir); err == nil && user > 0 {
		p.m["storage.disk_bytes_per_user_byte"] = float64(disk) / float64(user)
	}
	if err := e.closeDB(); err != nil {
		return bad, err
	}
	err = p.median("storage.recover_ms", 1, 1, func(int) (err error) {
		e.db, e.ext, err = openDurable(e.dir)
		return err
	})
	if err != nil {
		return bad, err
	}
	e.closed = false
	e.cls = nil
	e.admin = e.db.NewSession()
	p.m["storage.replayed_records"] = float64(e.db.StorageStats().ReplayedRecords)
	n, err := e.verifyAll(queryOn(e.admin))
	return bad + n, err
}

func (e *durEnv) probe(p *probes) error {
	c := e.cls[0]
	if err := p.parse(c.recent.texts); err != nil {
		return err
	}
	if err := p.plan(e.admin, []string{c.readSQL(false, 0), c.readSQL(true, 0)}); err != nil {
		return err
	}
	if err := p.compile(e.db, []string{regionViewSQL, custViewSQL}); err != nil {
		return err
	}
	twinGens, err := loadOrders(execOn(e.admin), nil, "orders_twin", e.sizes[0], twinRows, 1, 7)
	if err != nil {
		return err
	}
	twin := &durClient{env: e, gen: twinGens[0], sess: c.sess, table: "orders_twin"}
	if err := p.median("engine.dml_us", 1e3, probeWrites, func(int) error {
		twin.genWrite()
		_, err := twin.sess.ExecScript(twin.sql)
		return err
	}); err != nil {
		return err
	}
	if err := p.recompute(execOn(e.admin), regionViewQuery); err != nil {
		return err
	}
	if err := p.median("engine.keyed_update_ms", 1, probeScans, func(i int) error {
		r := c.gen.draw(i)
		_, err := e.admin.ExecScript(keyedOrderUpdate("orders", r))
		if err == nil {
			e.oracle.apply(r)
		}
		return err
	}); err != nil {
		return err
	}

	// What the checkpoint at the midpoint cost the writers beside it.
	p.m["storage.checkpoint_ms"] = float64(e.ckpt.End-e.ckpt.Start) / 1e6
	p.m["storage.checkpoint_bytes"] = float64(e.ckptSize)
	for _, s := range p.spans {
		if s.Name == spanEngineWrite && s.Start < e.ckpt.End && s.End > e.ckpt.Start {
			p.m["storage.write_stall_max_ms"] = max(p.m["storage.write_stall_max_ms"], float64(s.End-s.Start)/1e6)
		}
	}
	return nil
}

type durClient struct {
	env   *durEnv
	gen   ordersGen
	sess  *engine.Session
	table string // orders, or the probe's twin

	step    int
	kind    opKind
	sql     string
	buf     []byte
	pending [durTxnRows]orderRow
	byCust  bool
	key     int
	res     *engine.Result
	recent  ring
}

func (c *durClient) readSQL(byCust bool, key int) string {
	if byCust {
		c.buf = append(c.buf[:0], "SELECT total, n FROM cust_totals WHERE cid = "...)
		return string(strconv.AppendInt(c.buf, int64(key), 10))
	}
	c.buf = append(c.buf[:0], "SELECT total, n FROM region_totals WHERE region = '"...)
	return string(append(appendPadded(c.buf, 'r', key, 2), '\''))
}

func (c *durClient) genWrite() {
	c.buf = append(c.buf[:0], "BEGIN; "...)
	for i := range c.pending {
		c.pending[i] = c.gen.fresh()
		c.buf = append(appendOrderWrite(c.buf, c.table, c.pending[i], false, false), "; "...)
	}
	c.buf = append(c.buf, "COMMIT"...)
	c.sql = string(c.buf)
}

func (c *durClient) next() opKind {
	c.step++
	if c.step%2 != 0 {
		c.kind = opWrite
		c.genWrite()
		c.recent.add(c.sql)
		return c.kind
	}
	c.kind = opRead
	c.byCust = !c.byCust
	if c.byCust {
		c.key = c.gen.pickCustomer()
	} else {
		c.key = c.gen.pickRegion()
	}
	c.sql = c.readSQL(c.byCust, c.key)
	return c.kind
}

func (c *durClient) view() string {
	if c.byCust {
		return "cust_totals"
	}
	return "region_totals"
}

func (c *durClient) do(tr *tracer, parent int32, op int64) (err error) {
	if c.kind == opWrite {
		sp := tr.begin(spanEngineWrite, parent, op)
		c.res, err = c.sess.ExecScript(c.sql)
		tr.end(sp)
		return err
	}
	if tr != nil {
		sp := tr.begin(spanRefresh, parent, op)
		err = c.env.ext.Refresh(c.view())
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.begin(spanEngineSelect, parent, op)
	c.res, err = c.sess.ExecScript(c.sql)
	tr.end(sp)
	return err
}

func (c *durClient) check(err error) bool {
	o := c.env.oracle
	if c.kind == opWrite {
		if err != nil {
			c.sess.ExecScript("ROLLBACK") // leave the failed transaction; its own error is the one reported
			return false
		}
		for _, r := range c.pending {
			o.apply(r)
		}
		return true
	}
	if err != nil {
		return false
	}
	if c.byCust {
		return aggMatches(c.res.Rows, o.custSum[c.key], o.custCnt[c.key])
	}
	return aggMatches(c.res.Rows, o.regionSum[c.key], o.regionCnt[c.key])
}
