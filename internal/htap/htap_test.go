package htap

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"openivm/internal/fault"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
	"openivm/internal/wire"
)

// pending is the number of captured rows the store's delta table of
// table holds.
func pending(t *testing.T, store *oltp.Store, table string) int {
	t.Helper()
	dt, err := store.DB.Catalog().Table("delta_" + table)
	if err != nil {
		t.Fatal(err)
	}
	return dt.RowCount()
}

// startPipeline spins up an OLTP store, serves it over TCP, and connects a
// pipeline — the full Figure 3 architecture in-process.
func startPipeline(t *testing.T) (*oltp.Store, *Pipeline) {
	t.Helper()
	store, p, _ := startPipelineOver(t, wire.Dial)
	return store, p
}

// startPipelineOver is startPipeline with the pipeline's connection
// opened by dial; it also returns the server's address.
func startPipelineOver(t *testing.T, dial func(addr string) (*wire.Client, error)) (*oltp.Store, *Pipeline, string) {
	t.Helper()
	store := oltp.New("pg")
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return store, New(cl), addr
}

func mustRemote(t *testing.T, p *Pipeline, sql string) {
	t.Helper()
	if _, err := p.OLTP.Exec(sql); err != nil {
		t.Fatalf("remote %q: %v", sql, err)
	}
}

// crossCheck compares the OLAP-side materialized view against recomputing
// the query on the OLTP side.
func crossCheck(t *testing.T, p *Pipeline, viewCols, view, remoteQuery string) {
	t.Helper()
	res, err := p.Query("SELECT " + viewCols + " FROM " + view)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := p.RecomputeRemote(remoteQuery)
	if err != nil {
		t.Fatal(err)
	}
	var g, w []string
	for _, r := range res.Rows {
		g = append(g, r.String())
	}
	for _, r := range remote.Rows {
		w = append(w, sqltypes.Row(r).String())
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, ";") != strings.Join(w, ";") {
		t.Fatalf("cross-system divergence\n olap: %v\n oltp: %v", g, w)
	}
}

func TestCrossSystemAggregate(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE sales (region TEXT, amount INTEGER)")
	mustRemote(t, p, "INSERT INTO sales VALUES ('eu', 10), ('us', 20), ('eu', 5)")

	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW region_totals AS
		SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region`); err != nil {
		t.Fatal(err)
	}
	remoteQ := "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region"
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	// OLTP-side writes propagate across systems.
	mustRemote(t, p, "INSERT INTO sales VALUES ('ap', 7), ('eu', 3)")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	mustRemote(t, p, "DELETE FROM sales WHERE region = 'us'")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	mustRemote(t, p, "UPDATE sales SET amount = amount + 100 WHERE region = 'eu'")
	crossCheck(t, p, "region, total, n", "region_totals", remoteQ)

	if p.Stats.DeltasPulled == 0 || p.Stats.Syncs == 0 {
		t.Errorf("stats not recorded: %+v", p.Stats)
	}
}

// TestCrossSystemChainedUpdatesInOneTransaction: two UPDATEs of one keyed
// row inside BEGIN … COMMIT are captured per statement, in statement order
// (-v1 +v2 -v2 +v3), which is the only order the keyed replay on the OLAP
// side can apply; so are an insert and a delete of one key.
func TestCrossSystemChainedUpdatesInOneTransaction(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE acct (id INTEGER PRIMARY KEY, branch TEXT, bal INTEGER)")
	mustRemote(t, p, "INSERT INTO acct VALUES (1, 'a', 10), (2, 'b', 20)")
	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW branch_bal AS
		SELECT branch, SUM(bal) AS total, COUNT(*) AS n FROM acct GROUP BY branch`); err != nil {
		t.Fatal(err)
	}
	remoteQ := "SELECT branch, SUM(bal), COUNT(*) FROM acct GROUP BY branch"
	crossCheck(t, p, "branch, total, n", "branch_bal", remoteQ)

	for _, sql := range []string{
		"BEGIN",
		"UPDATE acct SET bal = 11 WHERE id = 1",
		"UPDATE acct SET bal = 12 WHERE id = 1",
		"INSERT INTO acct VALUES (3, 'a', 30)",
		"DELETE FROM acct WHERE id = 3",
		"INSERT INTO acct VALUES (3, 'b', 31)",
		"COMMIT",
	} {
		mustRemote(t, p, sql)
	}
	crossCheck(t, p, "branch, total, n", "branch_bal", remoteQ)
	crossCheck(t, p, "id, branch, bal", "acct", "SELECT id, branch, bal FROM acct")
}

func TestCrossSystemJoinView(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE customers (cid INTEGER, region TEXT)")
	mustRemote(t, p, "CREATE TABLE orders (oid INTEGER, cid INTEGER, amount INTEGER)")
	mustRemote(t, p, "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')")
	mustRemote(t, p, "INSERT INTO orders VALUES (100, 1, 10), (101, 2, 20)")

	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW rs AS
		SELECT c.region, SUM(o.amount) AS total, COUNT(*) AS n
		FROM orders AS o JOIN customers AS c ON o.cid = c.cid GROUP BY c.region`); err != nil {
		t.Fatal(err)
	}
	remoteQ := `SELECT c.region, SUM(o.amount), COUNT(*) FROM orders AS o
		JOIN customers AS c ON o.cid = c.cid GROUP BY c.region`
	crossCheck(t, p, "region, total, n", "rs", remoteQ)

	mustRemote(t, p, "INSERT INTO orders VALUES (102, 1, 30)")
	mustRemote(t, p, "INSERT INTO customers VALUES (3, 'ap')")
	mustRemote(t, p, "INSERT INTO orders VALUES (103, 3, 40)")
	crossCheck(t, p, "region, total, n", "rs", remoteQ)

	mustRemote(t, p, "DELETE FROM orders WHERE oid = 100")
	crossCheck(t, p, "region, total, n", "rs", remoteQ)
}

func TestMirrorIdempotent(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	if err := p.Mirror("t"); err != nil {
		t.Fatalf("second mirror should be a no-op: %v", err)
	}
}

func TestSyncWithoutChangesIsCheap(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.DeltasPulled != 0 {
		t.Errorf("no deltas expected, got %d", p.Stats.DeltasPulled)
	}
}

func TestRemoteDeltasClearedAfterSync(t *testing.T) {
	store, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.CreateMaterializedView(
		"CREATE MATERIALIZED VIEW vt AS SELECT a, COUNT(*) AS n FROM t GROUP BY a"); err != nil {
		t.Fatal(err)
	}
	mustRemote(t, p, "INSERT INTO t VALUES (1), (2)")
	if n := pending(t, store, "t"); n != 2 {
		t.Fatalf("remote deltas = %d", n)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if pending(t, store, "t") != 0 {
		t.Error("remote deltas not cleared")
	}
}

func TestInitialDataMirrored(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	mustRemote(t, p, "INSERT INTO t VALUES (1), (2), (3)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	res, err := p.OLAP.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("mirrored %v rows", res.Rows)
	}
	if p.Stats.RowsMirrored != 3 {
		t.Errorf("stats.RowsMirrored = %d", p.Stats.RowsMirrored)
	}
}

// startRetryPipeline is startPipeline over a reconnecting client.
func startRetryPipeline(t *testing.T) (*oltp.Store, *Pipeline, string) {
	t.Helper()
	return startPipelineOver(t, func(addr string) (*wire.Client, error) {
		return wire.DialRetry(addr, wire.RetryPolicy{BaseDelay: time.Millisecond})
	})
}

const (
	accountsView = `CREATE MATERIALIZED VIEW branch_totals AS
		SELECT branch, SUM(balance) AS total, COUNT(*) AS n FROM accounts GROUP BY branch`
	accountsQuery = "SELECT branch, SUM(balance), COUNT(*) FROM accounts GROUP BY branch"
)

// TestMirrorDeclaresPrimaryKey: the mirror carries the remote table's
// key, so replayed retractions resolve through its index.
func TestMirrorDeclaresPrimaryKey(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE li (note TEXT, line INTEGER, oid INTEGER, PRIMARY KEY (oid, line))")
	mustRemote(t, p, "CREATE TABLE plain (a INTEGER)")
	for _, tbl := range []string{"li", "plain"} {
		if err := p.Mirror(tbl); err != nil {
			t.Fatal(err)
		}
	}
	li, err := p.OLAP.Catalog().Table("li")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(li.PrimaryKeyColumnNames(), ","); got != "oid,line" {
		t.Fatalf("mirror key = %q, want oid,line", got)
	}
	plain, err := p.OLAP.Catalog().Table("plain")
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasPrimaryKey() {
		t.Fatal("key-less table mirrored with a key")
	}
}

// TestSyncLosesNoDeltaUnderConcurrentWriter: a writer commits upserts on
// its own connection while the pipeline loops Sync. Reading a delta table
// and clearing it in two statements loses what is committed in between;
// the atomic drain must not, so the view ends equal to a recompute on the
// system of record. Both tables change, so every Sync replays a batch per
// table out of one drain.
func TestSyncLosesNoDeltaUnderConcurrentWriter(t *testing.T) {
	_, p, addr := startRetryPipeline(t)
	mustRemote(t, p, "CREATE TABLE accounts (id INTEGER PRIMARY KEY, branch TEXT, balance INTEGER)")
	mustRemote(t, p, "CREATE TABLE audit (note INTEGER)")
	for i := 0; i < 40; i++ {
		mustRemote(t, p, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'b%d', %d)", i, i%4, i))
	}
	if err := p.CreateMaterializedView(accountsView); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateMaterializedView(
		"CREATE MATERIALIZED VIEW audit_n AS SELECT note, COUNT(*) AS n FROM audit GROUP BY note"); err != nil {
		t.Fatal(err)
	}

	writes := 1500
	if testing.Short() {
		writes = 300
	}
	werr := make(chan error, 1)
	go func() {
		wc, err := wire.Dial(addr)
		if err != nil {
			werr <- err
			return
		}
		defer wc.Close()
		for i := 0; i < writes; i++ {
			id := (i * 7) % 60 // two thirds replace a live row, the rest insert
			sql := fmt.Sprintf("INSERT INTO accounts VALUES (%d, 'b%d', %d) ON CONFLICT (id) DO UPDATE SET branch = 'b%d', balance = %d",
				id, i%4, i, i%4, i)
			if i%5 == 0 {
				sql = fmt.Sprintf("INSERT INTO audit VALUES (%d)", i%3)
			}
			if _, err := wc.Exec(sql); err != nil {
				werr <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
		werr <- nil
	}()
	for done := false; !done; {
		select {
		case err := <-werr:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	crossCheck(t, p, "branch, total, n", "branch_totals", accountsQuery)
	crossCheck(t, p, "note, n", "audit_n", "SELECT note, COUNT(*) FROM audit GROUP BY note")
	if p.Stats.Drains > p.Stats.Syncs || p.Stats.Batches < 2 || p.Stats.DeltasPulled < writes {
		t.Fatalf("stats = %+v: want at most one drain per sync, and every write pulled", p.Stats)
	}
}

// TestSyncRedeliversDrainExactlyOnce: the server drains the deltas, then
// the connection drops while it answers. The pipeline's retrying client
// reconnects and repeats the drain with its stale acknowledgement; the
// server re-sends the batch it retained, and the deltas are replayed once.
func TestSyncRedeliversDrainExactlyOnce(t *testing.T) {
	defer fault.Reset()
	store, p, _ := startRetryPipeline(t)
	mustRemote(t, p, "CREATE TABLE accounts (id INTEGER PRIMARY KEY, branch TEXT, balance INTEGER)")
	mustRemote(t, p, "INSERT INTO accounts VALUES (1, 'north', 10), (2, 'south', 20)")
	if err := p.CreateMaterializedView(accountsView); err != nil {
		t.Fatal(err)
	}
	mustRemote(t, p, "INSERT INTO accounts VALUES (3, 'north', 5)")
	mustRemote(t, p, "UPDATE accounts SET balance = 25 WHERE id = 2")

	before := fault.Injected()
	if err := fault.Activate(fault.WireFrameWrite, "disconnect@times1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatalf("sync across a dropped drain answer: %v", err)
	}
	if fault.Injected()-before != 1 {
		t.Fatalf("disconnect fired %d times, want 1", fault.Injected()-before)
	}
	if p.Stats.DeltasPulled != 3 || p.Stats.Drains != 1 {
		t.Fatalf("stats = %+v, want the 3 deltas pulled by 1 drain", p.Stats)
	}
	if pending(t, store, "accounts") != 0 {
		t.Fatal("remote deltas not cleared")
	}
	crossCheck(t, p, "branch, total, n", "branch_totals", accountsQuery)
	if p.Stats.DeltasPulled != 3 {
		t.Fatalf("deltas replayed twice: %+v", p.Stats)
	}

	mustRemote(t, p, "DELETE FROM accounts WHERE id = 1")
	crossCheck(t, p, "branch, total, n", "branch_totals", accountsQuery)
}

// TestReplaySkipsAppliedSequence: a batch delivered again under a number
// the pipeline has applied is dropped, and one from beyond the next number
// is refused — deltas in between would be missing.
func TestReplaySkipsAppliedSequence(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE t (a INTEGER)")
	if err := p.Mirror("t"); err != nil {
		t.Fatal(err)
	}
	mustRemote(t, p, "INSERT INTO t VALUES (1)")
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	dup := func(seq uint64) *wire.DrainBatch {
		return &wire.DrainBatch{Seq: seq, Tables: []wire.DrainTable{{Table: "delta_t", N: 1,
			Rows: []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewBool(true)}}}}}
	}
	p.pending = dup(p.applied)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.DeltasPulled != 1 || p.pending != nil {
		t.Fatalf("duplicate batch replayed: %+v", p.Stats)
	}
	p.pending = dup(p.applied + 2)
	if err := p.Sync(); err == nil {
		t.Fatal("a batch beyond the next sequence number was replayed")
	}
}

// TestFailedReplayResumesPendingBatch: a batch whose replay fails stays
// pending and no delta of it is lost or replayed twice: once the cause is
// removed, the next Sync resumes at the failed table without draining.
func TestFailedReplayResumesPendingBatch(t *testing.T) {
	_, p := startPipeline(t)
	mustRemote(t, p, "CREATE TABLE a (k INTEGER)")
	mustRemote(t, p, "CREATE TABLE b (k INTEGER)")
	for _, tbl := range []string{"a", "b"} {
		if err := p.Mirror(tbl); err != nil {
			t.Fatal(err)
		}
	}
	mustRemote(t, p, "INSERT INTO a VALUES (1)")
	mustRemote(t, p, "INSERT INTO b VALUES (2)")
	// The mirror of b diverges: a retraction of a row it lacks cannot apply.
	mustRemote(t, p, "INSERT INTO b VALUES (3)")
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OLAP.Exec("DELETE FROM b WHERE k = 3"); err != nil {
		t.Fatal(err)
	}
	mustRemote(t, p, "INSERT INTO a VALUES (4)")
	mustRemote(t, p, "DELETE FROM b WHERE k = 3")
	if err := p.Sync(); err == nil {
		t.Fatal("replaying a retraction with no matching row succeeded")
	}
	pulled, drains := p.Stats.DeltasPulled, p.Stats.Drains
	if pulled != 4 { // a's insert applied, b's retraction did not
		t.Fatalf("pulled %d deltas, want 4", pulled)
	}
	if _, err := p.OLAP.Exec("INSERT INTO b VALUES (3)"); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if p.Stats.DeltasPulled != pulled+1 || p.Stats.Drains != drains {
		t.Fatalf("stats = %+v: want b's one delta resumed without a new drain", p.Stats)
	}
	for tbl, want := range map[string]int64{"a": 2, "b": 1} {
		res, err := p.OLAP.Exec("SELECT COUNT(*) FROM " + tbl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != want {
			t.Fatalf("mirror %s holds %d rows, want %d", tbl, res.Rows[0][0].I, want)
		}
	}
}
