package wire

import (
	"testing"

	"openivm/internal/enginerr"
)

// TestSerializationErrorCode: a write-write conflict over the wire
// carries SQLSTATE 40001 so clients can distinguish "retry the
// transaction" from ordinary statement errors, on both the statement
// and the COMMIT path.
func TestSerializationErrorCode(t *testing.T) {
	_, c1 := startServer(t)
	c2, err := Dial(c1.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	for _, sql := range []string{
		"CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)",
		"INSERT INTO acct VALUES (1, 100)",
	} {
		if _, err := c1.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.Exec("BEGIN; UPDATE acct SET bal = 150 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	_, stmtErr := c2.Exec("UPDATE acct SET bal = 50 WHERE id = 1")
	if _, err := c1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	_, commitErr := c2.Exec("COMMIT")
	confErr := stmtErr
	if confErr == nil {
		confErr = commitErr
	}
	if confErr == nil {
		t.Fatal("conflicting writer committed on both connections")
	}
	if !enginerr.HasCode(confErr, enginerr.CodeSerialization) {
		t.Fatalf("conflict error not classified 40001: %v", confErr)
	}
	// An ordinary statement error carries no code.
	_, synErr := c2.Exec("SELECT nope FROM missing_table")
	if synErr == nil || enginerr.HasCode(synErr, enginerr.CodeSerialization) {
		t.Fatalf("plain error misclassified as serialization: %v", synErr)
	}

	// The stats op surfaces the transaction counters.
	st, err := c1.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if st.Txn.Commits == 0 {
		t.Fatalf("stats report no commits: %+v", st)
	}
	if st.Txn.ConflictAborts == 0 {
		t.Fatalf("stats report no conflict aborts: %+v", st)
	}
	if st.Txn.ActiveTxns != 0 {
		t.Fatalf("stats report %d active txns, want 0", st.Txn.ActiveTxns)
	}
}

// TestDoomedTransactionOverWire: after a statement inside BEGIN fails
// having written, the connection's transaction refuses every statement
// with SQLSTATE 25P02 until ROLLBACK, and the failed statement's prefix is
// gone.
func TestDoomedTransactionOverWire(t *testing.T) {
	_, c := startServer(t)
	for _, sql := range []string{"CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)", "BEGIN"} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec("INSERT INTO t VALUES (1,1),(2,2),(1,3)"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	for _, sql := range []string{"INSERT INTO t VALUES (5,5)", "SELECT COUNT(*) FROM t"} {
		if _, err := c.Exec(sql); !enginerr.HasCode(err, enginerr.CodeInFailedTxn) {
			t.Errorf("%s after the failure = %v, want 25P02", sql, err)
		}
	}
	if _, err := c.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 0 {
		t.Fatalf("t holds %d rows after ROLLBACK, want 0", n)
	}
}

// TestStatsActiveTxn: an open transaction is visible in the stats
// snapshot, with a snapshot age.
func TestStatsActiveTxn(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("BEGIN; INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if st.Txn.ActiveTxns != 1 {
		t.Fatalf("ActiveTxns = %d, want 1", st.Txn.ActiveTxns)
	}
	if st.Txn.OldestSnapshotMS < 0 {
		t.Fatalf("OldestSnapshotMS = %d", st.Txn.OldestSnapshotMS)
	}
	if _, err := c.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestSyntaxErrorCodeOverWire: a statement the parser cannot read answers
// with SQLSTATE 42601 in the response's code, as PostgreSQL's syntax_error.
func TestSyntaxErrorCodeOverWire(t *testing.T) {
	_, c := startServer(t)
	if err := c.sendRequest(&Request{Op: opExec, SQL: "SELEC 1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || resp.Code != enginerr.CodeSyntaxError {
		t.Fatalf("SELEC 1 answers %q with code %q, want code 42601", resp.Error, resp.Code)
	}
}
