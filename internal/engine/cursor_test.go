package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"openivm/internal/enginerr"
)

// cursorDB holds t(k, v) with v = k for k in 1..n: three engine batches
// and more at n = 3000.
func cursorDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open("cursor", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, fmt.Sprintf("INSERT INTO t SELECT g, g FROM generate_series(1, %d) AS g", n))
	return db
}

// openScans is the number of cursors holding t's slot numbering.
func openScans(t *testing.T, db *DB) int {
	t.Helper()
	tbl, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return tbl.OpenScans()
}

// drainStream pulls every batch of st and returns its rows' text, in order.
func drainStream(t *testing.T, st *Stream, rows []string) []string {
	t.Helper()
	for {
		b, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		rows = append(rows, rowStrings(b)...)
	}
}

// TestSubqueryReadsStatementSnapshot: a SELECT's subqueries read at the
// SELECT's snapshot, like its scans, however late they first run. Each
// statement here is opened, another session then inserts into t, and only
// then is the first batch pulled.
func TestSubqueryReadsStatementSnapshot(t *testing.T) {
	db := Open("subsnap", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE u (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 2)")
	mustExec(t, db, "INSERT INTO u VALUES (1, 1)")
	for _, c := range []struct{ name, sql, want string }{
		{"scalar subquery", "SELECT k, (SELECT COUNT(*) FROM t) FROM u", "1|2"},
		{"IN subquery", "SELECT k FROM u WHERE k + 2 NOT IN (SELECT k FROM t)", "1"},
		{"derived table", "SELECT u.k, c.n FROM u, (SELECT COUNT(*) AS n FROM t) AS c", "1|2"},
	} {
		for _, inTxn := range []bool{false, true} {
			s := db.NewSession()
			if inTxn {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
			}
			st, err := s.ExecStream(nil, c.sql)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "INSERT INTO t VALUES (3, 3)")
			got := strings.Join(drainStream(t, st, nil), ";")
			st.Close()
			s.Close()
			mustExec(t, db, "DELETE FROM t WHERE k = 3")
			if got != c.want {
				t.Errorf("%s (transaction %v): read %q, want %q as of the open", c.name, inTxn, got, c.want)
			}
		}
	}
}

// TestWriteRefusedUnderTransactionStream: inside BEGIN … COMMIT, a session
// holding an open stream takes no write — SQLSTATE 55000, nothing applied —
// and the stream returns exactly the rows of its open; the transaction's
// end closes the stream. In autocommit the same writes run, and the stream
// still returns the rows of its open.
func TestWriteRefusedUnderTransactionStream(t *testing.T) {
	const n = 3000
	var want []string
	for k := 1; k <= n; k++ {
		want = append(want, fmt.Sprintf("%d|%d", k, k))
	}
	writes := []string{"DELETE FROM t WHERE k = 2000", "UPDATE t SET v = -v WHERE k > 2500", "INSERT INTO t VALUES (5000, 5000)"}
	for _, inTxn := range []bool{true, false} {
		db := cursorDB(t, n)
		s := db.NewSession()
		if inTxn {
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.ExecStream(nil, "SELECT k, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		first, err := st.Next()
		if err != nil || len(first) == 0 || len(first) >= n/2 {
			t.Fatalf("first batch: %d rows, %v; want one batch of several", len(first), err)
		}
		rows := rowStrings(first)
		for _, w := range writes {
			_, err := s.Exec(w)
			switch {
			case inTxn && enginerr.CodeOf(err) != enginerr.CodeNotInPrerequisiteState:
				t.Errorf("in a transaction, %s beside an open stream: %v, want SQLSTATE 55000", w, err)
			case !inTxn && err != nil:
				t.Errorf("in autocommit, %s beside an open stream: %v", w, err)
			}
		}
		if got := drainStream(t, st, rows); strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("transaction %v: the stream returned %d rows, not the %d of its open", inTxn, len(got), n)
		}
		st.Close()
		if inTxn {
			if _, err := s.Exec("COMMIT"); err != nil {
				t.Fatal(err)
			}
		}
		count := "3000|3000|0"
		if !inTxn {
			count = "3000|2500|1"
		}
		res := queryRowsSess(t, s, "SELECT COUNT(*), SUM(CASE WHEN v > 0 THEN 1 ELSE 0 END), SUM(CASE WHEN k = 5000 THEN 1 ELSE 0 END) FROM t")
		if got := rowStrings(res)[0]; got != count {
			t.Errorf("transaction %v: the table reads %s (rows, positive v, key 5000), want %s", inTxn, got, count)
		}
		s.Close()
	}

	// A transaction's end closes the streams that read in it.
	db := cursorDB(t, n)
	s := db.NewSession()
	defer s.Close()
	for _, end := range []string{"COMMIT", "ROLLBACK"} {
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		st, err := s.ExecStream(nil, "SELECT k FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(end); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); enginerr.CodeOf(err) != enginerr.CodeNotInPrerequisiteState {
			t.Errorf("Next after %s: %v, want SQLSTATE 55000", end, err)
		}
		st.Close()
		if got := openScans(t, db); got != 0 {
			t.Errorf("%s left %d cursors open", end, got)
		}
		if _, err := s.Exec("INSERT INTO t VALUES (9000, 9000)"); err != nil {
			t.Errorf("a write after %s: %v", end, err)
		}
		mustExec(t, db, "DELETE FROM t WHERE k = 9000")
	}
}

// TestNoCursorOutlivesItsStatement: however a read ends — drained, a LIMIT
// met inside the first of several batches, an error in a later batch, a
// cancelled context — its cursor lets go of the table.
func TestNoCursorOutlivesItsStatement(t *testing.T) {
	db := cursorDB(t, 3000)
	s := db.NewSession()
	defer s.Close()
	check := func(what string) {
		t.Helper()
		if got := openScans(t, db); got != 0 {
			t.Errorf("%s: %d cursors still hold t", what, got)
		}
	}

	st, err := s.ExecStream(nil, "SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := openScans(t, db); got != 1 {
		t.Fatalf("an open stream holds %d cursors, want 1", got)
	}
	if rows := drainStream(t, st, nil); len(rows) != 3000 {
		t.Fatalf("drained %d rows", len(rows))
	}
	check("a drained stream, before Close")
	st.Close()

	if res, err := s.Exec("SELECT k FROM t LIMIT 1"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("LIMIT 1: %v, %v", res, err)
	}
	check("LIMIT 1")

	if _, err := s.Exec("SELECT CAST(CASE WHEN k = 2500 THEN 'x' ELSE '1' END AS INTEGER) FROM t"); err == nil {
		t.Fatal("the cast of 'x' did not fail")
	}
	check("an error in the third batch")

	ctx, cancel := context.WithCancel(context.Background())
	st, err = s.ExecStream(ctx, "SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := st.Next(); err == nil {
		t.Fatal("Next after cancel did not fail")
	}
	st.Close()
	check("a cancelled context")
}
