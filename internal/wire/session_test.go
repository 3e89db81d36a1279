package wire

import (
	"fmt"
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
)

// TestSessionTransactionIsolation: each connection owns its transaction.
// A rollback on one connection must not touch another connection's
// committed work, and BEGIN on two connections at once must not collide.
func TestSessionTransactionIsolation(t *testing.T) {
	_, c1 := startServer(t)
	// Second client to the same server.
	srvAddr := c1.conn.RemoteAddr().String()
	c2, err := Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := c1.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("BEGIN; INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// c2 opens its own transaction concurrently — per-session, no clash.
	if _, err := c2.Exec("BEGIN; INSERT INTO t VALUES (2); COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.Exec("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0].I != 2 {
		t.Fatalf("after c1 rollback/c2 commit rows = %v, want [[2]]", resp.Rows)
	}
}

// TestMaxConnsAdmission: connections beyond MaxConns are answered with an
// error response and closed — visible admission control, not an invisible
// queue.
func TestMaxConnsAdmission(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	srv := NewServer(db)
	srv.MaxConns = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; rejection arrives as a response
	}
	defer c3.Close()
	if err := c3.Ping(); err == nil {
		t.Fatal("connection beyond MaxConns was admitted")
	}
	st, err := c1.StatsV2()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.RejectedConns != 1 || st.Server.ActiveConns != 2 {
		t.Fatalf("stats = %+v, want 1 rejected / 2 active", st)
	}
}

// TestWireMultiClientStress is the multi-session race test over the full
// wire stack: N writer connections and M reader connections run
// interleaved DML, transactions and queries against one DB hosting a
// materialized view with lazy IVM refresh — exercising concurrent delta
// capture, session-scoped trigger suppression and the shared plan cache all
// at once. Run under -race by the CI race job.
func TestWireMultiClientStress(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	ivmext.Install(db)
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	boot, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if _, err := boot.Exec("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec(`CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
		SUM(group_value) AS total_value FROM groups GROUP BY group_index`); err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 4, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < rounds; j++ {
				sql := fmt.Sprintf("INSERT INTO groups VALUES ('g%d', %d)", j%7, w+j)
				if j%5 == 4 {
					// Transactional write: committed or rolled back whole.
					op := "COMMIT"
					if j%2 == 0 {
						op = "ROLLBACK"
					}
					sql = "BEGIN; " + sql + "; " + op
				}
				if _, err := cl.Exec(sql); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < rounds; j++ {
				// Alternate between the (lazily refreshed) view and a base
				// aggregation; both must always succeed.
				q := "SELECT group_index, total_value FROM query_groups"
				if j%2 == 1 {
					q = "SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index"
				}
				if _, err := cl.Exec(q); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// Final consistency: refresh and compare the view against recompute.
	if _, err := boot.Exec("REFRESH MATERIALIZED VIEW query_groups"); err != nil {
		t.Fatal(err)
	}
	view, err := boot.Exec("SELECT group_index, total_value FROM query_groups ORDER BY group_index")
	if err != nil {
		t.Fatal(err)
	}
	want, err := boot.Exec("SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index ORDER BY group_index")
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != len(want.Rows) {
		t.Fatalf("view has %d groups, recompute %d", len(view.Rows), len(want.Rows))
	}
	for i := range view.Rows {
		if view.Rows[i][0].String() != want.Rows[i][0].String() ||
			view.Rows[i][1].String() != want.Rows[i][1].String() {
			t.Fatalf("row %d: view %v, recompute %v", i, view.Rows[i], want.Rows[i])
		}
	}
}
