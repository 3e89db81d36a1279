package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"openivm/internal/enginerr"
	"openivm/internal/sqltypes"
)

// TestSessionTransactionIsolation: transactions are session state — two
// sessions BEGIN concurrently, one commits, one rolls back, and only the
// committed work survives.
func TestSessionTransactionIsolation(t *testing.T) {
	db := Open("s", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	s1, s2 := db.NewSession(), db.NewSession()

	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1)"} {
		if _, err := s1.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (2)", "COMMIT"} {
		if _, err := s2.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err := s1.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v, want [[2]]", res.Rows)
	}

	// The default session's transaction is independent of both.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err) // s1 may BEGIN while def's txn is open
	}
	mustExec(t, db, "ROLLBACK")
	if _, err := s1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCloseRollsBack: closing a session with an open transaction
// rolls it back (the wire server's disconnect path).
func TestSessionCloseRollsBack(t *testing.T) {
	db := Open("s", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	s1 := db.NewSession()
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1)"} {
		if _, err := s1.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("closed session's transaction survived: %v", res.Rows)
	}
}

// TestDoomedTransactionRefusesStatements: once a statement inside BEGIN
// fails after writing, the transaction takes nothing but COMMIT, which
// returns the failure, and ROLLBACK. Nothing reads or keeps the failed
// statement's prefix, and the session works again once the block ends.
func TestDoomedTransactionRefusesStatements(t *testing.T) {
	db := Open("doomed", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	for _, end := range []string{"COMMIT", "ROLLBACK"} {
		s := db.NewSession()
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("INSERT INTO t VALUES (1,1),(2,2),(1,3)"); err == nil {
			t.Fatal("duplicate primary key accepted")
		}
		for _, sql := range []string{"INSERT INTO t VALUES (5,5)", "SELECT COUNT(*) FROM t", "BEGIN"} {
			if _, err := s.Exec(sql); !enginerr.HasCode(err, enginerr.CodeInFailedTxn) {
				t.Errorf("%s: %s after the failure = %v, want it refused", end, sql, err)
			}
		}
		_, err := s.Exec(end)
		if end == "COMMIT" && (err == nil || !strings.Contains(err.Error(), "duplicate")) {
			t.Errorf("COMMIT of the doomed transaction = %v, want the failure", err)
		}
		if end == "ROLLBACK" && err != nil {
			t.Errorf("ROLLBACK: %v", err)
		}
		if n := queryRowsSess(t, s, "SELECT COUNT(*) FROM t")[0][0].I; n != 0 {
			t.Errorf("%s: t holds %d rows, want 0", end, n)
		}
		s.Close()
	}
}

// TestDBExecOneOff: DB.Exec's session ends with the call, so what would
// outlive it does not silently vanish — a transaction left open is rolled
// back and reported.
func TestDBExecOneOff(t *testing.T) {
	db := Open("s", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if _, err := db.Exec("BEGIN; INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("a transaction left open by DB.Exec was not reported")
	}
	if _, err := db.Exec("BEGIN; INSERT INTO t VALUES (2); COMMIT"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v, want only the committed 2", res.Rows)
	}
}

// TestSessionContextCancel: a cancelled statement context surfaces
// context.Canceled, and Session.Cancel interrupts the session.
func TestSessionContextCancel(t *testing.T) {
	db := Open("s", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	rows := make([]sqltypes.Row, 0, 8192)
	for i := 0; i < 8192; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	tbl, _ := db.Catalog().Table("t")
	if err := db.NewSession().InsertRows(tbl, rows); err != nil {
		t.Fatal(err)
	}

	s1 := db.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s1.ExecContext(ctx, "SELECT a FROM t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext after cancel: %v, want context.Canceled", err)
	}
	// The session itself is still usable with a live context.
	if _, err := s1.Exec("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	// Cancel kills the session's own context.
	s1.Cancel()
	if _, err := s1.Exec("SELECT a FROM t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec after Session.Cancel: %v, want context.Canceled", err)
	}
}

// TestMultiSessionConcurrentDML is the engine-level race test: N writer
// sessions and M reader sessions interleave DML (some transactional),
// queries and trigger firing against one DB. Run under -race in CI.
func TestMultiSessionConcurrentDML(t *testing.T) {
	db := Open("s", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (w INTEGER, v INTEGER)")
	mustExec(t, db, "CREATE TABLE audit (w INTEGER)")
	db.AddTrigger("t", "audit", []TriggerEvent{TrigInsert}, func(s *Session, _ string, _ TriggerEvent, _, newRows []sqltypes.Row) error {
		at, err := s.DB().Catalog().Table("audit")
		if err != nil {
			return err
		}
		tx, done := s.BeginWrite()
		for _, r := range newRows {
			if err = at.InsertTxn(tx, sqltypes.Row{r[0]}); err != nil {
				break
			}
		}
		return done(err)
	})

	const writers, readers, rounds = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			committed := 0
			for j := 0; j < rounds; j++ {
				switch j % 4 {
				case 0, 1: // plain insert
					if _, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", w, j)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					committed++
				case 2: // committed txn
					for _, sql := range []string{"BEGIN", fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", w, j), "COMMIT"} {
						if _, err := s.Exec(sql); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
					committed++
				case 3: // rolled-back txn: must leave no trace in t
					for _, sql := range []string{"BEGIN", fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", w, j), "ROLLBACK"} {
						if _, err := s.Exec(sql); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}
			}
			// Every committed row of this writer is present.
			res, err := s.Query(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE w = %d", w))
			if err != nil {
				t.Errorf("writer %d final: %v", w, err)
				return
			}
			if got := res.Rows[0][0].I; got != int64(committed) {
				t.Errorf("writer %d: %d rows committed, table has %d", w, committed, got)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rounds; j++ {
				q := "SELECT w, COUNT(*), SUM(v) FROM t GROUP BY w"
				if j%3 == 0 {
					q = "SELECT COUNT(*) FROM audit"
				}
				if _, err := s.Query(q); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
