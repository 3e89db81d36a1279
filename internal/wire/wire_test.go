package wire

import (
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	db := engine.Open("srv", engine.DialectDuckDB)
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
	return srv, cl
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestExecRoundtrip(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Exec("CREATE TABLE t (a INTEGER, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Exec("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 || resp.Rows[0][0].I != 1 || resp.Rows[1][1].S != "y" {
		t.Fatalf("rows = %v", resp.Rows)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "a" {
		t.Fatalf("columns = %v", resp.Columns)
	}
}

func TestValueTypesSurviveTransport(t *testing.T) {
	_, cl := startServer(t)
	resp, err := cl.Exec("SELECT 1, 1.5, 'x', TRUE, NULL")
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Rows[0]
	if r[0].I != 1 || r[1].Float() != 1.5 || r[2].S != "x" || !r[3].IsTrue() || !r[4].IsNull() {
		t.Fatalf("row = %v", r)
	}
}

func TestRemoteError(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Exec("SELECT * FROM nope"); err == nil {
		t.Error("remote error must surface")
	}
	// Connection must survive an error.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaAndTables(t *testing.T) {
	_, cl := startServer(t)
	cl.Exec("CREATE TABLE orders (oid INTEGER NOT NULL, amount DOUBLE)")
	schema, err := cl.Schema("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 2 || schema[0].Name != "oid" || !schema[0].NotNull || schema[1].Type != "DOUBLE" {
		t.Fatalf("schema = %v", schema)
	}
	tables, err := cl.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "orders" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
	// A misspelt table is classifiable without string matching: the 42P01
	// catalog.Table attached survives the schema op (htap.Pipeline.Mirror
	// passes this error straight up).
	if _, err := cl.Schema("missing"); enginerr.CodeOf(err) != enginerr.CodeUndefinedTable {
		t.Errorf("schema of a missing table: code %q (err %v), want %s", enginerr.CodeOf(err), err, enginerr.CodeUndefinedTable)
	}
}

func TestConcurrentClients(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	db.Exec("CREATE TABLE t (a INTEGER)")
	db.Exec("INSERT INTO t VALUES (1)")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < 20; j++ {
				if _, err := cl.Exec("SELECT a FROM t"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnknownOp(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.roundTrip(&Request{Op: 0xff}); err == nil {
		t.Error("unknown op should error")
	}
}

func TestMultiStatementScript(t *testing.T) {
	_, cl := startServer(t)
	resp, err := cl.Exec("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5); SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].I != 5 {
		t.Fatalf("rows = %v", resp.Rows)
	}
}
