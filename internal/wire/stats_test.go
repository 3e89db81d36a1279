package wire

import (
	"os"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/storage"
)

// TestStatsV2Namespaced: the (unversioned) stats op returns grouped
// counters.
func TestStatsV2Namespaced(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}

	v2, err := cl.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if v2 == nil {
		t.Fatal("stats version 2 returned no statsV2 payload")
	}
	if v2.Version != 2 {
		t.Fatalf("StatsV2.Version = %d, want 2", v2.Version)
	}
	if v2.Server.ActiveConns < 1 || v2.Server.TotalConns < 1 {
		t.Fatalf("server group not populated: %+v", v2.Server)
	}
	if v2.Txn.Commits < 1 {
		t.Fatalf("txn group not populated: %+v", v2.Txn)
	}
	// Default backend is in-memory: not durable, counters at rest.
	if v2.Storage.Durable {
		t.Fatalf("MemBackend reported durable: %+v", v2.Storage)
	}
	if v2.Storage.LastCheckpointMS != -1 {
		t.Fatalf("MemBackend lastCheckpointMS = %d, want -1", v2.Storage.LastCheckpointMS)
	}
}

// TestStatsV2Ivm: with the IVM extension installed, the ivm.* group
// carries live refresh-scheduler counters over the wire.
func TestStatsV2Ivm(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	ivmext.Install(db)
	t.Cleanup(func() { db.Close() })
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

	for _, q := range []string{
		"CREATE TABLE sales (region VARCHAR, amount INTEGER)",
		"CREATE MATERIALIZED VIEW rv AS SELECT region, SUM(amount) AS total FROM sales GROUP BY region",
		"INSERT INTO sales VALUES ('eu', 10), ('us', 20)",
	} {
		if _, err := cl.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	st, err := cl.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ivm.DeltaRowsCaptured < 2 {
		t.Fatalf("ivm.deltaRowsCaptured = %d, want >= 2", st.Ivm.DeltaRowsCaptured)
	}
	if st.Ivm.GenerationsPending < 1 {
		t.Fatalf("ivm.generationsPending = %d, want >= 1 before refresh", st.Ivm.GenerationsPending)
	}

	if _, err := cl.Exec("REFRESH MATERIALIZED VIEW rv"); err != nil {
		t.Fatal(err)
	}
	st, err = cl.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ivm.Refreshes < 1 || st.Ivm.GenerationsSealed < 1 {
		t.Fatalf("ivm group not live after refresh: %+v", st.Ivm)
	}
	if st.Ivm.GenerationsPending != 0 {
		t.Fatalf("ivm.generationsPending = %d after refresh, want 0", st.Ivm.GenerationsPending)
	}
}

// TestStatsV2Storage: with a disk backend attached, the storage.* group
// carries live WAL counters over the wire.
func TestStatsV2Storage(t *testing.T) {
	dir, err := os.MkdirTemp("", "wirewal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })

	db := engine.Open("srv", engine.DialectDuckDB)
	b, err := storage.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachBackend(b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
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

	if _, err := cl.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	st, err := cl.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Storage.Durable {
		t.Fatalf("disk backend not reported durable: %+v", st.Storage)
	}
	if st.Storage.WALRecords < 2 || st.Storage.WALBytes <= 0 || st.Storage.Fsyncs < 1 {
		t.Fatalf("WAL counters not live over the wire: %+v", st.Storage)
	}
}
