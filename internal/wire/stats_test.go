package wire

import (
	"fmt"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/fault"
	"openivm/internal/ivmext"
	"openivm/internal/storage"
)

// TestStatsV2Namespaced: the stats op answers one flat map whose names
// carry their group, and StatsV2 reads the server.* group from it.
func TestStatsV2Namespaced(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.activeConns"] < 1 || st["server.totalConns"] < 1 || st["server.streamedBatches"] < 1 {
		t.Fatalf("server group not populated: %v", st)
	}
	if st["txn.commits"] < 1 {
		t.Fatalf("txn group not populated: %v", st)
	}
	// Default backend is in-memory: not durable, counters at rest.
	if st["storage.durable"] != 0 {
		t.Fatalf("MemBackend reported durable: %v", st)
	}
	if st["storage.lastCheckpointMS"] != -1 {
		t.Fatalf("MemBackend storage.lastCheckpointMS = %d, want -1", st["storage.lastCheckpointMS"])
	}
	v2, err := cl.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Server.StreamedBatches != st["server.streamedBatches"] {
		t.Fatalf("StatsV2 server group not populated: %+v", v2.Server)
	}
}

// TestStatsV2Ivm: with the IVM extension installed, the ivm.* names
// carry live refresh counters over the wire.
func TestStatsV2Ivm(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	ivmext.Install(db)
	t.Cleanup(func() { db.Close() })
	cl, _ := serve(t, db)

	for _, q := range []string{
		"CREATE TABLE sales (region VARCHAR, amount INTEGER)",
		"CREATE MATERIALIZED VIEW rv AS SELECT region, SUM(amount) AS total FROM sales GROUP BY region",
		"INSERT INTO sales VALUES ('eu', 10), ('us', 20)",
	} {
		if _, err := cl.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["ivm.deltaRowsCaptured"] < 2 {
		t.Fatalf("ivm.deltaRowsCaptured = %d, want >= 2", st["ivm.deltaRowsCaptured"])
	}
	if st["ivm.generationsPending"] < 1 {
		t.Fatalf("ivm.generationsPending = %d, want >= 1 before refresh", st["ivm.generationsPending"])
	}

	if _, err := cl.Exec("REFRESH MATERIALIZED VIEW rv"); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["ivm.refreshes"] < 1 || st["ivm.generationsSealed"] < 1 {
		t.Fatalf("ivm group not live after refresh: %v", st)
	}
	if st["ivm.generationsPending"] != 0 {
		t.Fatalf("ivm.generationsPending = %d after refresh, want 0", st["ivm.generationsPending"])
	}
}

// TestStatsV2Storage: with a disk backend attached, the storage.* names
// carry live WAL counters over the wire.
func TestStatsV2Storage(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	b, err := storage.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, _ := serve(t, db)

	if _, err := cl.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["storage.durable"] != 1 {
		t.Fatalf("disk backend not reported durable: %v", st)
	}
	if st["storage.walRecords"] < 2 || st["storage.walBytes"] <= 0 || st["storage.fsyncs"] < 1 {
		t.Fatalf("WAL counters not live over the wire: %v", st)
	}
}

// serve starts a wire server on db and dials it.
func serve(t *testing.T, db *engine.DB) (*Client, string) {
	t.Helper()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, addr
}

// fullDB opens a DB with every layer that registers counters: the IVM
// extension, a disk backend and a wire server.
func fullDB(t *testing.T) (*engine.DB, *Client) {
	t.Helper()
	db := engine.Open("full", engine.DialectDuckDB)
	ivmext.Install(db)
	b, err := storage.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cl, _ := serve(t, db)
	return db, cl
}

// TestStatsNamesMatchOperationsDoc: the names a DB with every layer
// registers, the names the stats op answers and the list in
// docs/OPERATIONS.md are one set, with one kind each; the answer keeps
// every name the grouped answer had.
func TestStatsNamesMatchOperationsDoc(t *testing.T) {
	db, cl := fullDB(t)
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-zA-Z.]+)` \\| (counter|gauge) \\|").FindAllStringSubmatch(string(doc), -1) {
		listed[m[1]] = true
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name := range st {
		if !listed[name] {
			t.Errorf("%s is in the stats answer but not in docs/OPERATIONS.md", name)
		}
	}
	for name := range listed {
		if _, ok := st[name]; !ok {
			t.Errorf("%s is in docs/OPERATIONS.md but not in the stats answer", name)
		}
	}
	if reg := db.Metrics().Snapshot(); len(reg) != len(st) {
		t.Errorf("the registry holds %d names, the stats answer %d", len(reg), len(st))
	}
	for _, name := range []string{
		"server.activeConns", "server.totalConns", "server.rejectedConns", "server.planCacheSize",
		"server.planCacheHits", "server.planCacheMiss", "server.preparedMarked", "server.governorKills",
		"server.timeoutKills", "server.cancels", "server.streamedBatches", "server.streamedRows",
		"server.degraded", "server.panicsRecovered", "server.faultInjected",
		"txn.activeTxns", "txn.oldestSnapshotMS", "txn.commits", "txn.conflictAborts", "txn.gcVersions",
		"storage.durable", "storage.walBytes", "storage.walRecords", "storage.fsyncs",
		"storage.groupCommitBatches", "storage.checkpoints", "storage.lastCheckpointMS",
		"storage.recoveryReplayedRecords", "storage.recoveryReplayedBytes",
		"ivm.refreshes", "ivm.generationsSealed", "ivm.generationsPending", "ivm.captureStallNanos",
		"ivm.deltaRowsCaptured",
	} {
		if _, ok := st[name]; !ok {
			t.Errorf("stats answer lost %s", name)
		}
	}
}

// TestPanicsRecoveredCountsBothBoundaries: a panic recovered at a
// statement's boundary and one recovered at a connection's both count in
// the one server.panicsRecovered.
func TestPanicsRecoveredCountsBothBoundaries(t *testing.T) {
	t.Cleanup(fault.Reset)
	srv, cl := startServer(t)
	if _, err := cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if err := fault.Activate(fault.EngineCommit, "panic(statement)@times1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO kv VALUES (1)"); enginerr.CodeOf(err) != enginerr.CodeInternal {
		t.Fatalf("statement panic: err = %v, want XX000", err)
	}
	// The connection's next frame read panics outside any statement: the
	// server recovers it at the connection's boundary and closes it.
	if err := fault.Activate(fault.WireFrameRead, "panic(connection)@times1"); err != nil {
		t.Fatal(err)
	}
	cl.Ping()
	cl.Ping()
	deadline := time.Now().Add(5 * time.Second)
	for srv.DB.Metrics().Snapshot()["server.panicsRecovered"] < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fault.Reset()
	mon, err := Dial(srv.listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	st, err := mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := st["server.panicsRecovered"]; n != 2 {
		t.Fatalf("server.panicsRecovered = %d, want 2", n)
	}
}

// TestStatsBesideWritersRefreshAndAttach snapshots the registry in
// process and over the wire while writers commit, a refresh runs and
// AttachBackend replaces the backend (run it under -race).
func TestStatsBesideWritersRefreshAndAttach(t *testing.T) {
	db := engine.Open("race", engine.DialectDuckDB)
	ivmext.Install(db)
	dir := t.TempDir()
	t.Cleanup(func() { db.Close() })
	cl, addr := serve(t, db)
	for _, q := range []string{
		"CREATE TABLE t (k INTEGER, v INTEGER)",
		"CREATE MATERIALIZED VIEW mv AS SELECT k, SUM(v) AS s FROM t GROUP BY k",
	} {
		if _, err := cl.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	const writers, writes = 2, 200
	var wg, readers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, writers+3)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < writes; i++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i%7, w)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	loop := func(f func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := f(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	refresher := db.NewSession()
	defer refresher.Close()
	loop(func() error {
		_, err := refresher.Exec("REFRESH MATERIALIZED VIEW mv")
		return err
	})
	loop(func() error {
		db.Metrics().Snapshot()
		db.IVMStats()
		db.TxnStats()
		db.StorageStats()
		db.StmtCacheStats()
		return nil
	})
	mon, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	loop(func() error {
		_, err := mon.StatsV2()
		return err
	})

	for i := 0; i < 3; i++ {
		if err := db.AttachBackend(storage.MemBackend{}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := storage.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["storage.durable"] != 1 || st["txn.commits"] < writers*writes {
		t.Fatalf("after the attach: %v", st)
	}
	if st["ivm.refreshes"] < 1 {
		t.Fatalf("no refresh counted: %v", st)
	}
}
