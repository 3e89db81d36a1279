package ivmext

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/sqltypes"
)

// TestFailedStatementKeepsNothing: a statement either happens or does not.
// An autocommit INSERT that fails on its third row keeps none of its rows,
// so the base table and the view stay in agreement; inside BEGIN the
// failure dooms the transaction: the statements after it are refused, and
// COMMIT returns the failure and keeps nothing, the statements before the
// failing one included.
func TestFailedStatementKeepsNothing(t *testing.T) {
	db := engine.Open("atomic", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES (0, 'a', 1)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW mv AS SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
	const failing = "INSERT INTO t VALUES (1, 'a', 5), (2, 'a', 6), (1, 'a', 7)"
	want := func(step, n, s string) {
		t.Helper()
		base := mustExec(t, db, "SELECT COUNT(*), SUM(v) FROM t").Rows[0].String()
		view := fmt.Sprint(mustExec(t, db, "SELECT n, s FROM mv").Rows)
		if base != n+"|"+s || view != "["+n+"|"+s+"]" {
			t.Fatalf("%s: t holds count|sum %s and the view says %s, want %s|%s in both", step, base, view, n, s)
		}
	}

	if _, err := db.Exec(failing); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	want("autocommit", "1", "1")

	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (3, 'a', 2)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec(failing); err == nil {
		t.Fatal("duplicate primary key accepted inside BEGIN")
	}
	if _, err := s.Exec("INSERT INTO t VALUES (4, 'a', 3)"); err == nil || !strings.Contains(err.Error(), "current transaction is aborted") {
		t.Fatalf("a statement after the failure = %v, want it refused", err)
	}
	if _, err := s.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("COMMIT of a transaction whose statement failed = %v, want the failure", err)
	}
	want("explicit transaction", "1", "1")

	// A statement that fails before writing anything leaves the
	// transaction usable, and the session works on afterwards.
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (5, 'a', 4)"} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("INSERT INTO t VALUES (0, 'b', 9)"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	want("after the session recovered", "2", "5")

	// A refresh would not be undone by ROLLBACK: refused inside BEGIN.
	if _, err := s.Exec("BEGIN; REFRESH MATERIALIZED VIEW mv"); err == nil {
		t.Fatal("REFRESH ran inside a transaction block")
	}
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureInsideWriterStress runs, at once: autocommit writers; several
// writers of BEGIN … COMMIT transactions that touch both sides of a join
// view (rolling back now and then, mixed with autocommit writes), each on
// customers and orders of its own; lazy readers; a stretch in which each
// writer refreshes the views over what it writes after every write, so a
// join writer's refresh runs while the others commit to both bases; a
// session reading the views inside its own open transaction, which must
// read the same twice; and a trigger handler that reads a view inside the
// writer's transaction. Nothing may deadlock, and afterwards every view
// equals its recompute: a refresh reads the bases at its cut, or a join
// term would count a change that commits after the cut, and the next
// window would count it again. Run it under -race.
func TestCaptureInsideWriterStress(t *testing.T) {
	db := engine.Open("stress", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "CREATE TABLE events (g VARCHAR, v INTEGER)")
	const joinWriters = 3
	for w := 0; w < joinWriters; w++ {
		for c := 0; c < 8; c++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO customers VALUES (%d, 'r%d')", 1000*w+c, c%3))
		}
	}
	views := []struct{ name, def, cols string }{
		{"region_totals", "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY customers.region", "region, total, n"},
		{"cust_totals", "SELECT cid, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cid", "cid, total, n"},
		{"ev_totals", "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM events GROUP BY g", "g, total, n"},
	}
	for _, v := range views {
		mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
	}
	// The handler reads a view over the base its own transaction is
	// writing, inside that transaction.
	var handlerReads atomic.Int64
	db.RegisterTriggerHandler("reads_view",
		func(s *engine.Session, _ string, _ engine.TriggerEvent, _, _ []sqltypes.Row) error {
			handlerReads.Add(1)
			_, err := s.Exec("SELECT region, total FROM region_totals WHERE region = 'r1'")
			return err
		})
	mustExec(t, db, "CREATE TRIGGER reads_view AFTER INSERT OR UPDATE ON customers FOR EACH ROW EXECUTE 'reads_view'")

	watchdog := time.AfterFunc(90*time.Second, func() {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "stress test stuck:\n%s", buf[:runtime.Stack(buf, true)])
		panic("TestCaptureInsideWriterStress: deadlock")
	})
	defer watchdog.Stop()

	var stop atomic.Bool
	var writers, others sync.WaitGroup
	fail := func(who string, err error) {
		t.Errorf("%s: %v", who, err)
		stop.Store(true)
	}
	const rounds = 120
	// refreshing reports whether a writer's round j is in the middle third
	// of the run, where each write is followed by a refresh on the writer's
	// session.
	refreshing := func(j int) bool { return j >= rounds/3 && j < 2*rounds/3 }
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) { // autocommit writers
			defer writers.Done()
			s := db.NewSession()
			defer s.Close()
			rnd := rand.New(rand.NewSource(int64(w)))
			for j := 0; j < rounds && !stop.Load(); j++ {
				v := 10_000*w + 2*j // each writer deletes only its own rows
				sql := fmt.Sprintf("INSERT INTO events VALUES ('g%d', %d), ('g%d', %d)", rnd.Intn(5), v, rnd.Intn(5), v+1)
				if j%4 == 3 {
					sql = fmt.Sprintf("DELETE FROM events WHERE v = %d", v-2)
				}
				if refreshing(j) {
					sql += "; REFRESH MATERIALIZED VIEW ev_totals"
				}
				if _, err := s.Exec(sql); err != nil {
					fail("autocommit writer", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < joinWriters; w++ {
		writers.Add(1)
		go func(base int) { // both sides of the join, in transactions and out of them
			defer writers.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rounds && !stop.Load(); j++ {
				cid := base + 100 + j
				end := "COMMIT"
				if j%6 == 5 {
					end = "ROLLBACK"
				}
				sql := fmt.Sprintf("BEGIN; INSERT INTO customers VALUES (%d, 'r%d'); INSERT INTO orders VALUES (%d, %d, %d); "+
					"INSERT INTO orders VALUES (%d, %d, 1); UPDATE customers SET region = 'r%d' WHERE cid = %d; %s",
					cid, j%3, base+2*j, cid, j, base+2*j+1, base+j%8, (j+1)%3, base+j%8, end)
				switch j % 3 {
				case 1:
					sql = fmt.Sprintf("UPDATE orders SET amount = amount + 1 WHERE oid = %d", base+2*j-1)
				case 2:
					sql = fmt.Sprintf("DELETE FROM orders WHERE oid = %d", base+2*j-4)
				}
				if refreshing(j) { // region_totals' refresh group holds cust_totals
					sql += "; REFRESH MATERIALIZED VIEW region_totals"
				}
				if _, err := s.Exec(sql); err != nil {
					fail("join writer", err)
					return
				}
			}
		}(1000 * w)
	}
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func() { // lazy readers
			defer others.Done()
			s := db.NewSession()
			defer s.Close()
			for !stop.Load() {
				if _, err := s.Exec("SELECT * FROM ev_totals"); err != nil {
					fail("reader", err)
					return
				}
			}
		}()
	}
	others.Add(1)
	go func() { // reads inside its own open transaction: repeatable
		defer others.Done()
		s := db.NewSession()
		defer s.Close()
		for !stop.Load() {
			if _, err := s.Exec("BEGIN"); err != nil {
				fail("transaction reader", err)
				return
			}
			var reads [2]string
			for i := range reads {
				for _, sql := range []string{"SELECT * FROM region_totals ORDER BY region", "SELECT * FROM ev_totals ORDER BY g"} {
					res, err := s.Exec(sql)
					if err != nil {
						fail("transaction reader", err)
						return
					}
					reads[i] += fmt.Sprint(res.Rows)
				}
			}
			if _, err := s.Exec("COMMIT"); err != nil {
				fail("transaction reader", err)
				return
			}
			if reads[0] != reads[1] {
				fail("transaction reader", fmt.Errorf("one snapshot read the views twice differently:\n%s\n%s", reads[0], reads[1]))
				return
			}
		}
	}()
	writers.Wait()
	stop.Store(true)
	others.Wait()
	if t.Failed() {
		return
	}
	if handlerReads.Load() == 0 {
		t.Fatal("the view-reading trigger never ran")
	}
	for _, v := range views {
		viewEquals(t, db, v.cols, v.name, v.def)
	}
}
