//go:build linux

package ivm

// The PostgreSQL oracle: the exported scripts run on a throwaway cluster of
// the PostgreSQL installed beside the initdb on PATH, and V must equal the
// view's query as PostgreSQL evaluates it, and this engine's V.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/user"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"openivm/internal/engine"
)

// pgUser is the cluster's superuser, whatever OS user runs it.
const pgUser = "ivm"

// pgCluster is a PostgreSQL server reached only through a unix socket in
// its own directory and driven through psql on stdin: there is no Go
// driver. One cluster serves the package's tests; TestMain stops it.
type pgCluster struct {
	dir     string // holds the data directory and the socket
	bin     string // the installation's bin directory (initdb, postgres, psql)
	cred    *syscall.Credential
	server  *exec.Cmd
	exited  chan struct{}
	log     bytes.Buffer // the server's output, read once it has exited
	version int          // server_version_num
	schemas atomic.Int64
}

var (
	pgOnce     sync.Once
	pgShared   *pgCluster
	pgStartErr error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if pgShared != nil {
		pgShared.stop()
	}
	os.Exit(code)
}

// postgres returns the package's cluster, starting it on first use. It
// skips the test where initdb is not on PATH.
func postgres(t *testing.T) *pgCluster {
	t.Helper()
	initdb, err := exec.LookPath("initdb")
	if err != nil {
		t.Skip("PostgreSQL not run: initdb is not on PATH")
	}
	pgOnce.Do(func() { pgShared, pgStartErr = startCluster(initdb) })
	if pgStartErr != nil {
		t.Fatalf("starting PostgreSQL: %v", pgStartErr)
	}
	return pgShared
}

// postgresTarget is a fresh schema on the package's cluster.
func postgresTarget(t *testing.T) target {
	t.Helper()
	c := postgres(t)
	p := pgTarget{c: c, schema: fmt.Sprintf("s%d", c.schemas.Add(1))}
	if _, err := c.psql("CREATE SCHEMA " + p.schema); err != nil {
		t.Fatal(err)
	}
	return p
}

func startCluster(initdb string) (*pgCluster, error) {
	resolved, err := filepath.EvalSymlinks(initdb)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "openivm-pg-")
	if err != nil {
		return nil, err
	}
	c := &pgCluster{dir: dir, bin: filepath.Dir(resolved), exited: make(chan struct{})}
	if os.Geteuid() == 0 {
		// PostgreSQL refuses to run as root: run it as the postgres user,
		// which must own its directory and reach it.
		if err := c.runAsPostgres(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	data := filepath.Join(dir, "data")
	if out, err := c.command("initdb", "-D", data, "-U", pgUser, "-A", "trust",
		"-E", "UTF8", "--locale=C", "--no-sync").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("initdb: %v\n%s", err, out)
	}
	c.server = c.command("postgres", "-D", data, "-k", dir, "-c", "listen_addresses=",
		"-c", "fsync=off", "-c", "shared_buffers=16MB", "-c", "max_connections=20")
	c.server.Stdout, c.server.Stderr = &c.log, &c.log
	if err := c.server.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { c.server.Wait(); close(c.exited) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		out, err := c.psql("SHOW server_version_num")
		if err == nil {
			c.version, err = strconv.Atoi(strings.TrimSpace(out))
			if err != nil {
				c.stop()
				return nil, err
			}
			return c, nil
		}
		select {
		case <-c.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("postgres exited: %s", c.log.String())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("postgres not ready after 30 s: %v", err)
		}
	}
}

// runAsPostgres makes the server's processes run as the postgres user,
// which gets c.dir; every directory above it must already let others in.
func (c *pgCluster) runAsPostgres() error {
	u, err := user.Lookup("postgres")
	if err != nil {
		return fmt.Errorf("running as root needs a postgres user to run PostgreSQL as: %w", err)
	}
	uid, err := strconv.Atoi(u.Uid)
	if err != nil {
		return err
	}
	gid, err := strconv.Atoi(u.Gid)
	if err != nil {
		return err
	}
	c.cred = &syscall.Credential{Uid: uint32(uid), Gid: uint32(gid)}
	if err := os.Chown(c.dir, uid, gid); err != nil {
		return err
	}
	for d := filepath.Dir(c.dir); ; d = filepath.Dir(d) {
		fi, err := os.Stat(d)
		if err != nil {
			return err
		}
		if fi.Mode().Perm()&0o001 == 0 {
			return fmt.Errorf("the postgres user cannot reach %s: %s is %v; point TMPDIR at a directory it can reach", c.dir, d, fi.Mode().Perm())
		}
		if d == filepath.Dir(d) {
			return nil
		}
	}
}

// command runs one of the installation's programs as the server's user,
// in the cluster's directory. The server dies with the test binary.
func (c *pgCluster) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(c.bin, name), args...)
	cmd.Dir = c.dir
	cmd.Env = []string{"PATH=" + c.bin + ":/usr/bin:/bin", "LC_ALL=C", "HOME=" + c.dir}
	cmd.SysProcAttr = &syscall.SysProcAttr{Credential: c.cred, Pdeathsig: syscall.SIGQUIT}
	return cmd
}

// stop shuts the server down fast, waits for it, and removes its files.
func (c *pgCluster) stop() {
	_ = c.server.Process.Signal(syscall.SIGINT) // fails only once it has exited
	select {
	case <-c.exited:
	case <-time.After(30 * time.Second):
		c.server.Process.Kill()
		<-c.exited
	}
	os.RemoveAll(c.dir)
}

// pgError is a failed psql run, with the SQLSTATE of its error.
type pgError struct {
	code string
	msg  string
}

func (e *pgError) Error() string { return e.msg }

var sqlstateRE = regexp.MustCompile(`ERROR:  ([0-9A-Z]{5}):`)

// psql runs script through psql on stdin, stopping at the first error,
// and returns its unaligned, tuples-only output.
func (c *pgCluster) psql(script string) (string, error) {
	cmd := exec.Command(filepath.Join(c.bin, "psql"), "-X", "-q", "-At",
		"-v", "ON_ERROR_STOP=1", "-v", "VERBOSITY=verbose", "-F", "\x1f", "-P", "null="+pgNull,
		"-h", c.dir, "-U", pgUser, "-d", "postgres")
	cmd.Env = []string{"LC_ALL=C", "PGTZ=UTC"}
	cmd.Stdin = strings.NewReader(script)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		e := &pgError{msg: fmt.Sprintf("psql: %v: %s", err, strings.TrimSpace(stderr.String()))}
		if m := sqlstateRE.FindStringSubmatch(stderr.String()); m != nil {
			e.code = m[1]
		}
		return "", e
	}
	return out.String(), nil
}

// pgTarget runs scripts in one schema of the cluster.
type pgTarget struct {
	c      *pgCluster
	schema string
}

func (p pgTarget) exec(script string) error {
	_, err := p.c.psql("SET search_path TO " + p.schema + ";\n" + script)
	return err
}

func (p pgTarget) rows(query string) ([]string, error) {
	out, err := p.c.psql("SET search_path TO " + p.schema + ";\n" + query + ";")
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line != "" {
			rows = append(rows, strings.ReplaceAll(line, "\x1f", "|"))
		}
	}
	return canonRows(rows), nil
}

// genTable is a base table of an oracle case and how its rows are drawn.
type genTable struct {
	name  string
	cols  []string
	keyed bool       // cols[0] is the primary key, numbered by the generator
	dom   [][]string // per column, the literals a value is drawn from
	init  int        // rows loaded before the view is populated
	// nullGroup names the column whose NULL is a group of the view ("" for
	// none): the history must grow, shrink and empty the rows holding it.
	nullGroup string
	// sumOf and groupBy guard a SUM against a group whose arguments are
	// all NULL (a known failure, TestPostgresKnownFailures): after every
	// batch, such a group gets a row whose column sumOf is 1. sumOf < 0
	// means no guard; groupBy nil means one group.
	sumOf   int
	groupBy []int
}

// oracleCase is a view and the history of base-table changes it is
// checked over.
type oracleCase struct {
	test   string // the subtest's name
	schema string
	name   string // the view's name
	query  string // its defining query
	tables []genTable
	// first is the first batch, per table (rows without their key): a
	// group whose sum passes 2^31 and a sum that nets to 0.
	first map[string][][]string
	// minRises says the view's second column is a MIN and the history must
	// delete some group's least row while the group keeps others: that
	// minimum rises, and only the MIN/MAX repair can find the new one.
	minRises bool
}

// oracleBatches is how many batches of base-table changes a case runs,
// each followed by the propagation script.
const oracleBatches = 12

var (
	vDom     = []string{"NULL", "-7", "0", "3", "7", "1500000000"}
	keyDom   = []string{"NULL", "'a'", "'b'", "'c'", "'d'"}
	tFirst   = map[string][][]string{"t": {{"'a'", "1500000000"}, {"'a'", "1500000000"}, {"'z'", "7"}, {"'z'", "-7"}, {"'n'", "NULL"}}}
	salesDDL = "CREATE TABLE customers (cid BIGINT PRIMARY KEY, region VARCHAR); " +
		"CREATE TABLE orders (oid BIGINT PRIMARY KEY, cid BIGINT, amount BIGINT)"
	customers = genTable{name: "customers", cols: []string{"cid", "region"}, keyed: true,
		dom: [][]string{nil, {"NULL", "'r1'", "'r2'", "'r3'"}}, init: 5, sumOf: -1, nullGroup: "region"}
	ordersFirst = map[string][][]string{"orders": {{"1", "1500000000"}, {"1", "1500000000"}, {"2", "300"}, {"2", "-300"}}}
)

func orders(cid, amount []string, sumOf int, groupBy ...int) genTable {
	return genTable{name: "orders", cols: []string{"oid", "cid", "amount"}, keyed: true,
		dom: [][]string{nil, cid, amount}, init: 8, sumOf: sumOf, groupBy: groupBy}
}

func nullGroupOf(tb genTable, col string) genTable {
	tb.nullGroup = col
	return tb
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, name := range []string{"avg", "sum_only", "global", "counted"} {
		t := genTable{name: "t", cols: []string{"k", "v"}, dom: [][]string{keyDom, vDom}, init: 6,
			sumOf: 1, groupBy: []int{0}, nullGroup: "k"}
		switch name {
		case "avg": // an AVG over only NULLs reads NULL through the exposed view
			t.sumOf = -1
		case "global": // no group key: k's NULL is no group
			t.groupBy, t.nullGroup = nil, ""
		}
		cases = append(cases, oracleCase{test: name, schema: standaloneSchema, name: "v", query: standaloneViews[name],
			tables: []genTable{t}, first: tFirst})
	}
	// A keyless projection over few values: equal rows, NULLs, and an
	// update that moves one copy of a row and not the others.
	cases = append(cases, oracleCase{test: "keyless", schema: standaloneSchema, name: "v",
		query: "SELECT k, v FROM t WHERE v IS NULL OR v <> 0",
		tables: []genTable{{name: "t", cols: []string{"k", "v"}, dom: [][]string{{"NULL", "'a'", "'b'"}, {"NULL", "0", "7"}},
			init: 8, sumOf: -1, nullGroup: "k"}},
		first: map[string][][]string{"t": {{"'a'", "7"}, {"'a'", "7"}, {"NULL", "NULL"}, {"NULL", "NULL"}}}})
	// MIN and MAX under deletions: the repair deletes the touched groups,
	// a NULL group among them, through the NULL-safe keyed delete, and
	// recomputes them from the base.
	cases = append(cases, oracleCase{test: "minmax", schema: standaloneSchema, name: "v",
		query: "SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k",
		tables: []genTable{{name: "t", cols: []string{"k", "v"}, dom: [][]string{keyDom, vDom}, init: 8,
			sumOf: -1, nullGroup: "k"}},
		first: tFirst, minRises: true})
	cids := []string{"1", "2", "3", "4", "5"}
	amounts := []string{"-7", "0", "3", "250", "300", "1500000000"}
	return append(cases,
		oracleCase{
			schema: "CREATE TABLE groups (id BIGINT PRIMARY KEY, group_index VARCHAR, group_value BIGINT)",
			test:   "query_groups",
			name:   "query_groups",
			query:  "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index",
			tables: []genTable{{name: "groups", cols: []string{"id", "group_index", "group_value"}, keyed: true,
				dom: [][]string{nil, keyDom, vDom}, init: 6, sumOf: 2, groupBy: []int{1}, nullGroup: "group_index"}},
			first: map[string][][]string{"groups": {{"'a'", "1500000000"}, {"'a'", "1500000000"}, {"'z'", "7"}, {"'z'", "-7"}}},
		},
		oracleCase{
			schema: salesDDL,
			test:   "region_totals",
			name:   "region_totals",
			query:  "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region",
			// An order without a customer joins nothing.
			tables: []genTable{customers, orders(append([]string{"NULL"}, cids...), amounts, -1)},
			first:  ordersFirst,
		},
		oracleCase{
			schema: salesDDL,
			test:   "cust_totals",
			name:   "cust_totals",
			query:  "SELECT cid, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cid",
			tables: []genTable{nullGroupOf(orders(append([]string{"NULL"}, cids...), append([]string{"NULL"}, amounts...), 2, 1), "cid")},
			first:  ordersFirst,
		},
		oracleCase{
			schema: salesDDL,
			test:   "big_orders",
			name:   "big_orders",
			query:  "SELECT oid, cid, amount FROM orders WHERE amount >= 250",
			tables: []genTable{orders(append([]string{"NULL"}, cids...), append([]string{"NULL"}, amounts...), -1)},
			first:  ordersFirst,
		},
		// A keyed FK→PK join view: an order's region changes with its
		// customer's, and the key's surviving row carries it.
		oracleCase{
			schema: salesDDL,
			test:   "order_regions",
			name:   "order_regions",
			query:  "SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid",
			tables: []genTable{customers, orders(append([]string{"NULL"}, cids...), amounts, -1)},
			first:  ordersFirst,
		},
	)
}

// TestPostgresOracle runs each view's exported scripts on PostgreSQL and
// on this engine: the setup and population, then a generated history of
// base-table changes written into ΔT by hand — inserts, deletes and
// updates (of a group key too), NULL groups that grow, shrink and empty
// (V's storage is keyed UNIQUE NULLS NOT DISTINCT, which holds one NULL
// group and lets ON CONFLICT fold into it), equal rows and NULLs in a
// keyless projection view, a group sum past 2^31, sums that net to 0, an
// AVG over only NULLs, a group's MIN deleted — each batch followed by the
// propagation script.
// After each, PostgreSQL's V must equal the query as PostgreSQL evaluates
// it, and this engine's V.
func TestPostgresOracle(t *testing.T) {
	for i, c := range oracleCases() {
		t.Run(c.test, func(t *testing.T) {
			pg := postgresTarget(t)
			cdb := engine.Open("compile", engine.DialectDuckDB)
			mustRun(t, cdb, c.schema)
			comp := compile(t, cdb, "CREATE MATERIALIZED VIEW "+c.name+" AS "+c.query)
			eng := engineTarget{engine.Open("standalone", engine.DialectDuckDB)}

			h := newHistory(c, rand.New(rand.NewSource(int64(i+1))))
			both := func(step, script string) {
				t.Helper()
				if err := pg.exec(script); err != nil {
					t.Fatalf("%s: PostgreSQL: %v\n%s", step, err, script)
				}
				run(t, eng, script)
			}
			both("schema", c.schema)
			both("load", h.load())
			both("setup", comp.SetupSQL())
			both("populate", comp.PopulateSQLText())
			lo, rose := map[string]int64{}, false // each group's MIN, and whether one rose
			check := func(step string) {
				t.Helper()
				v := mustRows(t, pg, "SELECT * FROM "+c.name)
				if q := mustRows(t, pg, c.query); strings.Join(v, " ") != strings.Join(q, " ") {
					t.Fatalf("%s: PostgreSQL's %s reads\n%q\nits query\n%q", step, c.name, v, q)
				}
				if e := canonRows(mustRows(t, eng, "SELECT * FROM "+c.name)); strings.Join(v, " ") != strings.Join(e, " ") {
					t.Fatalf("%s: PostgreSQL's %s reads\n%q\nthis engine's\n%q", step, c.name, v, e)
				}
				if c.minRises {
					next := map[string]int64{}
					for _, r := range v {
						f := strings.Split(r, "|")
						if m, err := strconv.ParseInt(f[1], 10, 64); err == nil {
							was, ok := lo[f[0]]
							rose = rose || ok && m > was
							next[f[0]] = m
						}
					}
					lo = next
				}
			}
			check("populate")
			nulls := h.nullGroups()
			for b := 0; b < oracleBatches; b++ {
				step := fmt.Sprintf("batch %d", b)
				both(step, h.batch(b)+comp.PropagateSQL())
				check(step)
				nulls.observe(h)
			}
			nulls.report(t)
			if c.minRises && !rose {
				t.Errorf("no batch deleted a group's least row and kept the group")
			}
		})
	}
}

// nullGroupRun follows, per table with a nullGroup, the rows holding its
// NULL from batch to batch.
type nullGroupRun struct {
	tables                []genTable
	last                  []int
	grew, shrank, emptied []bool
}

func (h *history) nullGroups() *nullGroupRun {
	r := &nullGroupRun{}
	for _, tb := range h.c.tables {
		if tb.nullGroup != "" {
			r.tables = append(r.tables, tb)
		}
	}
	r.last = make([]int, len(r.tables))
	r.grew, r.shrank, r.emptied = make([]bool, len(r.tables)), make([]bool, len(r.tables)), make([]bool, len(r.tables))
	for i, tb := range r.tables {
		r.last[i] = h.nullRows(tb)
	}
	return r
}

func (r *nullGroupRun) observe(h *history) {
	for i, tb := range r.tables {
		n := h.nullRows(tb)
		r.grew[i] = r.grew[i] || n > r.last[i]
		r.shrank[i] = r.shrank[i] || n < r.last[i]
		r.emptied[i] = r.emptied[i] || n == 0 && r.last[i] > 0
		r.last[i] = n
	}
}

func (r *nullGroupRun) report(t *testing.T) {
	t.Helper()
	for i, tb := range r.tables {
		if !r.grew[i] || !r.shrank[i] || !r.emptied[i] {
			t.Errorf("the history of %s.%s: its NULL grew %v, shrank %v, emptied %v; want all three",
				tb.name, tb.nullGroup, r.grew[i], r.shrank[i], r.emptied[i])
		}
	}
}

// nullRows counts the rows of tb holding NULL in its nullGroup column.
func (h *history) nullRows(tb genTable) int {
	col := slices.Index(tb.cols, tb.nullGroup)
	n := 0
	for _, r := range h.rows[tb.name] {
		if r[col] == "NULL" {
			n++
		}
	}
	return n
}

// history is the generator's model of the base tables: the rows each
// holds, as SQL literals, so that every change it writes also writes the
// rows ΔT must receive.
type history struct {
	c      oracleCase
	rng    *rand.Rand
	rows   map[string][][]string
	nextID map[string]int
	sql    strings.Builder
	delta  map[string][]string
}

func newHistory(c oracleCase, rng *rand.Rand) *history {
	return &history{c: c, rng: rng, rows: map[string][][]string{}, nextID: map[string]int{}}
}

// load returns the rows every table holds before the view is populated.
func (h *history) load() string {
	h.sql.Reset()
	for _, tb := range h.c.tables {
		for i := 0; i < tb.init; i++ {
			h.insert(tb, h.draw(tb))
		}
	}
	return h.sql.String()
}

// The batches in which a table's NULL group (genTable.nullGroup) gains two
// rows, loses one, and loses the rest; no other change of the table is
// drawn in them.
const (
	nullGrowBatch = 2 + iota
	nullShrinkBatch
	nullEmptyBatch
)

// batch returns the b-th batch of changes and the ΔT rows they imply.
func (h *history) batch(b int) string {
	h.sql.Reset()
	h.delta = map[string][]string{}
	for _, tb := range h.c.tables {
		if b == 0 {
			for _, r := range h.c.first[tb.name] {
				if tb.keyed {
					r = append([]string{""}, r...)
				}
				h.insert(tb, r)
			}
		}
		drawn := 1 + h.rng.Intn(4)
		if col := slices.Index(tb.cols, tb.nullGroup); col >= 0 {
			switch b {
			case nullGrowBatch:
				for i := 0; i < 2; i++ {
					r := h.draw(tb)
					r[col] = "NULL"
					h.insert(tb, r)
				}
				drawn = 0
			case nullShrinkBatch, nullEmptyBatch:
				for _, r := range h.rows[tb.name] {
					if r[col] == "NULL" {
						h.delete(tb, r)
						if b == nullShrinkBatch {
							break
						}
					}
				}
				drawn = 0
			}
		}
		for n := drawn; n > 0 && b > 0; n-- {
			rows := h.rows[tb.name]
			switch op := h.rng.Intn(3); {
			case op == 0 || len(rows) == 0:
				h.insert(tb, h.draw(tb))
			case op == 1:
				h.delete(tb, rows[h.rng.Intn(len(rows))])
			default:
				old := rows[h.rng.Intn(len(rows))]
				col := 1 + h.rng.Intn(len(tb.cols)-1)
				if !tb.keyed {
					col = h.rng.Intn(len(tb.cols))
				}
				h.update(tb, old, col, tb.dom[col][h.rng.Intn(len(tb.dom[col]))])
			}
		}
		h.guardSums(tb)
	}
	for _, tb := range h.c.tables {
		if d := h.delta[tb.name]; len(d) > 0 {
			fmt.Fprintf(&h.sql, "INSERT INTO delta_%s VALUES %s;\n", tb.name, strings.Join(d, ", "))
		}
	}
	return h.sql.String()
}

// draw returns a new row of tb, its key empty.
func (h *history) draw(tb genTable) []string {
	r := make([]string, len(tb.cols))
	for i, d := range tb.dom {
		if d != nil {
			r[i] = d[h.rng.Intn(len(d))]
		}
	}
	return r
}

func (h *history) insert(tb genTable, r []string) {
	if tb.keyed && r[0] == "" {
		h.nextID[tb.name]++
		r[0] = strconv.Itoa(h.nextID[tb.name])
	}
	h.rows[tb.name] = append(h.rows[tb.name], r)
	fmt.Fprintf(&h.sql, "INSERT INTO %s VALUES (%s);\n", tb.name, strings.Join(r, ", "))
	h.logDelta(tb, r, true)
}

// match is the WHERE clause that finds r: its key, or on a keyless table
// every column, which finds every copy of r.
func (h *history) match(tb genTable, r []string) string {
	var conds []string
	for i, col := range tb.cols {
		if r[i] == "NULL" {
			conds = append(conds, col+" IS NULL")
		} else {
			conds = append(conds, col+" = "+r[i])
		}
		if tb.keyed {
			break
		}
	}
	return strings.Join(conds, " AND ")
}

// matching removes the rows match(tb, r) finds and returns them.
func (h *history) matching(tb genTable, r []string) [][]string {
	var hit, keep [][]string
	for _, x := range h.rows[tb.name] {
		same := x[0] == r[0]
		if !tb.keyed {
			same = strings.Join(x, ",") == strings.Join(r, ",")
		}
		if same {
			hit = append(hit, x)
		} else {
			keep = append(keep, x)
		}
	}
	h.rows[tb.name] = keep
	return hit
}

func (h *history) delete(tb genTable, r []string) {
	fmt.Fprintf(&h.sql, "DELETE FROM %s WHERE %s;\n", tb.name, h.match(tb, r))
	for _, x := range h.matching(tb, r) {
		h.logDelta(tb, x, false)
	}
}

func (h *history) update(tb genTable, r []string, col int, val string) {
	fmt.Fprintf(&h.sql, "UPDATE %s SET %s = %s WHERE %s;\n", tb.name, tb.cols[col], val, h.match(tb, r))
	for _, x := range h.matching(tb, r) {
		h.logDelta(tb, x, false)
		y := append([]string{}, x...)
		y[col] = val
		h.rows[tb.name] = append(h.rows[tb.name], y)
		h.logDelta(tb, y, true)
	}
}

// logDelta records r's ΔT row. The rows load writes (delta nil) have none:
// the population reads them from the base.
func (h *history) logDelta(tb genTable, r []string, insert bool) {
	if h.delta != nil {
		h.delta[tb.name] = append(h.delta[tb.name],
			fmt.Sprintf("(%s, %s)", strings.Join(r, ", "), strings.ToUpper(strconv.FormatBool(insert))))
	}
}

// guardSums gives every group of tb whose SUM argument is NULL in all its
// rows a row whose argument is 1 (see genTable.sumOf).
func (h *history) guardSums(tb genTable) {
	if tb.sumOf < 0 {
		return
	}
	nonNull := map[string]bool{}
	sample := map[string][]string{}
	for _, r := range h.rows[tb.name] {
		var key []string
		for _, g := range tb.groupBy {
			key = append(key, r[g])
		}
		k := strings.Join(key, ",")
		nonNull[k] = nonNull[k] || r[tb.sumOf] != "NULL"
		sample[k] = r
	}
	keys := make([]string, 0, len(nonNull))
	for k := range nonNull {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !nonNull[k] {
			r := append([]string{}, sample[k]...)
			r[tb.sumOf] = "1"
			if tb.keyed {
				r[0] = ""
			}
			h.insert(tb, r)
		}
	}
}

// knownFailureSetup compiles the counted view and runs its setup and
// population over rows on both targets.
func knownFailureSetup(t *testing.T, rows string) (pg, eng target, comp *Compilation) {
	t.Helper()
	pg = postgresTarget(t)
	cdb := engine.Open("compile", engine.DialectDuckDB)
	mustRun(t, cdb, standaloneSchema)
	comp = compile(t, cdb, "CREATE MATERIALIZED VIEW v AS "+standaloneViews["counted"])
	eng = engineTarget{engine.Open("standalone", engine.DialectDuckDB)}
	for _, tg := range []target{pg, eng} {
		run(t, tg, standaloneSchema)
		run(t, tg, "INSERT INTO t VALUES "+rows)
		run(t, tg, comp.SetupSQL())
		run(t, tg, comp.PopulateSQLText())
	}
	return pg, eng, comp
}

// TestPostgresKnownFailures pins the wrong answer of the exported scripts
// that TestPostgresOracle's history steers around (ROADMAP item 14). It
// asserts today's answer, so it fails, and must be turned into a passing
// check, when SUM keeps a count of its non-NULL arguments.
func TestPostgresKnownFailures(t *testing.T) {
	query := standaloneViews["counted"]
	// Step 2 folds a SUM through COALESCE(…, 0), so a group whose SUM
	// arguments are all NULL reads 0 where the query reads NULL, on both
	// targets.
	t.Run("sum_over_only_nulls", func(t *testing.T) {
		pg, eng, comp := knownFailureSetup(t, "('a', NULL), ('b', 2)")
		batch := "INSERT INTO t VALUES ('a', NULL);\nINSERT INTO delta_t VALUES ('a', NULL, TRUE);\n" + comp.PropagateSQL()
		for name, tg := range map[string]target{"PostgreSQL": pg, "this engine": eng} {
			run(t, tg, batch)
			v, q := mustRows(t, tg, "SELECT * FROM v"), mustRows(t, tg, query)
			if strings.Join(v, " ") != "a|0|2 b|2|1" || strings.Join(q, " ") != `a|\N|2 b|2|1` {
				t.Fatalf("on %s V reads %q and the query %q, want a|0|2 against a|NULL|2: "+
					"if they agree, the fix landed and this case becomes a passing check", name, v, q)
			}
		}
	})
}

// TestPostgresRepros runs the exported scripts of a view over a few rows,
// then one change and its ΔT rows, on PostgreSQL and on this engine: V must
// equal its query on each, and V on one the other. The cases are wrong
// answers the scripts gave before every view carried a weight:
//   - null_group_key: V's storage was keyed PRIMARY KEY (k), which
//     PostgreSQL makes NOT NULL, and a NULL group failed with 23502;
//   - *_duplicates: a keyless view holding a row twice lost both copies
//     when one of them changed;
//   - *_null_rows: a keyless view holding a row with a NULL twice lost both
//     copies when one of them was deleted.
func TestPostgresRepros(t *testing.T) {
	const sales = "CREATE TABLE t (id BIGINT, k VARCHAR, v BIGINT); CREATE TABLE u (k VARCHAR, w VARCHAR)"
	for _, c := range []struct{ name, schema, query, rows, change, delta string }{
		{"null_group_key", standaloneSchema, standaloneViews["counted"], "INSERT INTO t VALUES ('a', 1)",
			"INSERT INTO t VALUES (NULL, 1), (NULL, 2)", "INSERT INTO delta_t VALUES (NULL, 1, TRUE), (NULL, 2, TRUE)"},
		{"projection_duplicates", sales, "SELECT k FROM t", "INSERT INTO t VALUES (1, 'a', 0), (2, 'a', 0)",
			"UPDATE t SET k = 'b' WHERE id = 1", "INSERT INTO delta_t VALUES (1, 'a', 0, FALSE), (1, 'b', 0, TRUE)"},
		{"projection_null_rows", sales, "SELECT k, v FROM t", "INSERT INTO t VALUES (1, 'x', NULL), (2, 'x', NULL)",
			"DELETE FROM t WHERE id = 1", "INSERT INTO delta_t VALUES (1, 'x', NULL, FALSE)"},
		{"join_duplicates", sales, "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
			"INSERT INTO t VALUES (1, 'a', 0), (2, 'a', 0); INSERT INTO u VALUES ('a', 'x'), ('b', 'x')",
			"UPDATE t SET k = 'b' WHERE id = 1", "INSERT INTO delta_t VALUES (1, 'a', 0, FALSE), (1, 'b', 0, TRUE)"},
		{"join_null_rows", sales, "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k",
			"INSERT INTO t VALUES (1, 'x', 0), (2, 'x', 0); INSERT INTO u VALUES ('x', NULL)",
			"DELETE FROM t WHERE id = 1", "INSERT INTO delta_t VALUES (1, 'x', 0, FALSE)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cdb := engine.Open("compile", engine.DialectDuckDB)
			mustRun(t, cdb, c.schema)
			comp := compile(t, cdb, "CREATE MATERIALIZED VIEW v AS "+c.query)
			pg, eng := postgresTarget(t), target(engineTarget{engine.Open("standalone", engine.DialectDuckDB)})
			for _, tg := range []target{pg, eng} {
				run(t, tg, c.schema)
				run(t, tg, c.rows)
				run(t, tg, comp.SetupSQL())
				run(t, tg, comp.PopulateSQLText())
				readsQuery(t, tg, "v", c.query)
				run(t, tg, c.change+";\n"+c.delta+";\n"+comp.PropagateSQL())
				readsQuery(t, tg, "v", c.query)
			}
			if p, e := mustRows(t, pg, "SELECT * FROM v"), canonRows(mustRows(t, eng, "SELECT * FROM v")); strings.Join(p, " ") != strings.Join(e, " ") {
				t.Errorf("PostgreSQL's V reads %q, this engine's %q", p, e)
			}
		})
	}
}
