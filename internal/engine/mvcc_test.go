package engine

import (
	"fmt"
	"sync"
	"testing"
)

// queryInts runs a single-column SELECT and returns the integer column.
func queryInts(t *testing.T, s *Session, sql string) []int64 {
	t.Helper()
	res, err := s.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].I)
	}
	return out
}

// TestMVCCUncommittedInvisible: rows inserted inside an open transaction
// are invisible to a concurrent session until COMMIT, and visible to the
// writer's own reads throughout.
func TestMVCCUncommittedInvisible(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	w, r := db.NewSession(), db.NewSession()

	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"} {
		if _, err := w.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got := queryInts(t, r, "SELECT a FROM t ORDER BY a"); len(got) != 0 {
		t.Fatalf("reader sees uncommitted rows %v (dirty read)", got)
	}
	if got := queryInts(t, w, "SELECT a FROM t ORDER BY a"); len(got) != 2 {
		t.Fatalf("writer does not see its own writes: %v", got)
	}
	if _, err := w.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := queryInts(t, r, "SELECT a FROM t ORDER BY a"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("committed rows not visible: %v", got)
	}
}

// TestMVCCRepeatableSnapshotReads: a transaction's reads are stable — a
// concurrent commit after BEGIN does not change what the open
// transaction sees, and becomes visible only once it starts fresh.
func TestMVCCRepeatableSnapshotReads(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	reader, writer := db.NewSession(), db.NewSession()

	if _, err := reader.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := queryInts(t, reader, "SELECT a FROM t")
	if len(before) != 1 {
		t.Fatalf("snapshot missing seed row: %v", before)
	}
	if _, err := writer.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	// Deletes committed after the snapshot are equally invisible.
	if _, err := writer.Exec("DELETE FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	again := queryInts(t, reader, "SELECT a FROM t")
	if len(again) != 1 || again[0] != 1 {
		t.Fatalf("non-repeatable read: first %v then %v", before, again)
	}
	if _, err := reader.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	after := queryInts(t, reader, "SELECT a FROM t")
	if len(after) != 1 || after[0] != 2 {
		t.Fatalf("post-commit read = %v, want [2]", after)
	}
}

// TestMVCCWriteWriteConflict: two transactions updating the same row —
// the first committer wins, the second aborts with a serialization
// error that IsSerializationError recognizes, and its work is fully
// rolled back.
func TestMVCCWriteWriteConflict(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	mustExec(t, db, "INSERT INTO acct VALUES (1, 100)")
	s1, s2 := db.NewSession(), db.NewSession()

	for _, s := range []*Session{s1, s2} {
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Exec("UPDATE acct SET bal = 150 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// s2 hits s1's uncommitted end stamp: first-updater-wins dooms it at
	// statement time or at COMMIT — either way COMMIT must fail.
	_, stmtErr := s2.Exec("UPDATE acct SET bal = 50 WHERE id = 1")
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	_, commitErr := s2.Exec("COMMIT")
	err := stmtErr
	if err == nil {
		err = commitErr
	}
	if err == nil {
		t.Fatal("second writer committed over a concurrent update (lost update)")
	}
	if !IsSerializationError(err) {
		t.Fatalf("conflict error %v is not a serialization error", err)
	}
	if got := queryInts(t, s1, "SELECT bal FROM acct"); len(got) != 1 || got[0] != 150 {
		t.Fatalf("balance = %v, want [150] (loser's write leaked)", got)
	}

	// The losing session is usable again after the abort.
	if _, err := s2.Exec("UPDATE acct SET bal = 50 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := queryInts(t, s1, "SELECT bal FROM acct"); got[0] != 50 {
		t.Fatalf("retry did not land: %v", got)
	}
}

// TestMVCCConflictAfterSnapshot: the rival commits BEFORE the loser's
// write statement runs — the loser's snapshot predates the commit, so
// its update targets a superseded version and must fail rather than
// silently clobber.
func TestMVCCConflictAfterSnapshot(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	mustExec(t, db, "INSERT INTO acct VALUES (1, 100)")
	s1, s2 := db.NewSession(), db.NewSession()

	for _, s := range []*Session{s1, s2} {
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
	}
	// Pin both snapshots with a read, then let s1 commit first.
	queryInts(t, s1, "SELECT bal FROM acct")
	queryInts(t, s2, "SELECT bal FROM acct")
	if _, err := s1.Exec("UPDATE acct SET bal = bal + 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	_, stmtErr := s2.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 1")
	_, commitErr := s2.Exec("COMMIT")
	err := stmtErr
	if err == nil {
		err = commitErr
	}
	if !IsSerializationError(err) {
		t.Fatalf("stale-snapshot update: err = %v, want serialization", err)
	}
	if got := queryInts(t, s1, "SELECT bal FROM acct"); got[0] != 110 {
		t.Fatalf("balance = %v, want [110]", got)
	}
}

// TestMVCCMonotonicVisibility: once any reader observes a commit, every
// later-started reader observes it too. A counter is bumped serially by
// one writer while readers continuously poll; observed values must be
// non-decreasing per reader.
func TestMVCCMonotonicVisibility(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 0)")

	const bumps = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query("SELECT n FROM c WHERE id = 1")
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("counter row missing: %d rows", len(res.Rows))
					return
				}
				n := res.Rows[0][0].I
				if n < last {
					errs <- fmt.Errorf("visibility went backwards: saw %d after %d", n, last)
					return
				}
				last = n
			}
		}()
	}
	w := db.NewSession()
	for i := 1; i <= bumps; i++ {
		if _, err := w.Exec(fmt.Sprintf("UPDATE c SET n = %d WHERE id = 1", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	defer w.Close()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := queryInts(t, w, "SELECT n FROM c"); got[0] != bumps {
		t.Fatalf("final counter = %v, want [%d]", got, bumps)
	}
}

// TestMVCCInsertPKConflict: two transactions inserting the same primary
// key — the second committer must not produce a duplicate; it fails
// with a serialization (or duplicate-key) error.
func TestMVCCInsertPKConflict(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)")
	s1, s2 := db.NewSession(), db.NewSession()

	for _, s := range []*Session{s1, s2} {
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Exec("INSERT INTO u VALUES (7, 1)"); err != nil {
		t.Fatal(err)
	}
	_, stmtErr := s2.Exec("INSERT INTO u VALUES (7, 2)")
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	_, commitErr := s2.Exec("COMMIT")
	if stmtErr == nil && commitErr == nil {
		t.Fatal("duplicate-PK insert pair both committed")
	}
	got := queryInts(t, s1, "SELECT v FROM u WHERE id = 7")
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("row = %v, want first committer's [1]", got)
	}
}

// TestMVCCTxnStats: the engine surfaces transaction counters.
func TestMVCCTxnStats(t *testing.T) {
	db := Open("mvcc", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	s := db.NewSession()
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Metrics().Snapshot()["txn.activeTxns"]; n != 1 {
		t.Fatalf("txn.activeTxns = %d, want 1", n)
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if n := db.Metrics().Snapshot()["txn.activeTxns"]; n != 0 || db.TxnStats().Commits == 0 {
		t.Fatalf("after commit: txn.activeTxns = %d, TxnStats = %+v", n, db.TxnStats())
	}
}
