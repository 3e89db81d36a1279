package wire

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/fault"
	"openivm/internal/sqltypes"
)

func TestSelectShaped(t *testing.T) {
	yes := []string{
		"SELECT 1",
		"select k, v from kv order by k",
		"  WITH x AS (SELECT 1) SELECT * FROM x",
		"EXPLAIN SELECT * FROM t",
		"SELECT 1; SELECT 2;",
		"EXPLAIN SELECT 1; SELECT * FROM t",
		"VALUES (1), (2)",
	}
	no := []string{
		"INSERT INTO t VALUES (1)",
		"SELECT 1; INSERT INTO t VALUES (1)",
		"PRAGMA workers = 4; SELECT * FROM t",
		"UPDATE t SET v = 1",
		"BEGIN",
		"CREATE TABLE t (x INTEGER)",
		"",
		";;",
		// Naive statement splitting must fail closed: a literal hiding a
		// semicolon makes fragments that are not read-shaped.
		"SELECT * FROM t WHERE s = 'a; DROP TABLE t'",
	}
	for _, sql := range yes {
		if !selectShaped(sql) {
			t.Errorf("selectShaped(%q) = false, want true", sql)
		}
	}
	for _, sql := range no {
		if selectShaped(sql) {
			t.Errorf("selectShaped(%q) = true, want false", sql)
		}
	}
}

// TestRetryReconnectSelect: a server-side disconnect is absorbed by the
// retrying client — reads keep succeeding across the reconnect.
func TestRetryReconnectSelect(t *testing.T) {
	defer fault.Reset()
	_, addr := startServerOpts(t, nil)
	cl, err := DialRetry(addr, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}

	// The server drops the connection at its next frame read.
	injectedBefore := fault.Injected()
	if err := fault.Activate(fault.WireFrameRead, "disconnect@times1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := cl.Exec("SELECT v FROM kv WHERE k = 1")
		if err != nil {
			t.Fatalf("select %d across reconnect: %v", i, err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].I != 10 {
			t.Fatalf("select %d = %v, want [[10]]", i, resp.Rows)
		}
	}
	if got := fault.Injected() - injectedBefore; got != 1 {
		t.Fatalf("disconnect fired %d times, want 1", got)
	}
}

// TestRetryDMLNotRetried: a connection failure during DML surfaces a
// not-retried error — and the write may well have applied, which the
// next (retried) read proves.
func TestRetryDMLNotRetried(t *testing.T) {
	defer fault.Reset()
	_, addr := startServerOpts(t, nil)
	cl, err := DialRetry(addr, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}

	// The server executes the INSERT, then drops the connection writing
	// its response: the classic ambiguous-outcome window.
	if err := fault.Activate(fault.WireFrameWrite, "disconnect@times1"); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Exec("INSERT INTO kv VALUES (1, 10)")
	if err == nil {
		t.Fatal("INSERT across a dropped response succeeded silently")
	}
	if !strings.Contains(err.Error(), "NOT retried") {
		t.Fatalf("DML connection failure = %v, want explicit not-retried error", err)
	}
	fault.Reset()

	// The read path retries transparently and shows the INSERT applied.
	resp, err := cl.Exec("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].I != 1 {
		t.Fatalf("count after ambiguous INSERT = %d, want 1 (it did apply)", resp.Rows[0][0].I)
	}
}

// TestRetryReprepares: prepared statements survive a reconnect — the
// client replays its registry on the fresh session.
func TestRetryReprepares(t *testing.T) {
	defer fault.Reset()
	_, addr := startServerOpts(t, nil)
	cl, err := DialRetry(addr, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER); INSERT INTO kv VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepare("pick", "SELECT v FROM kv WHERE k = $1"); err != nil {
		t.Fatal(err)
	}

	if err := fault.Activate(fault.WireFrameRead, "disconnect@times1"); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{10, 20, 10} {
		k := int64(1 + i%2)
		resp, err := cl.ExecPrepared("pick", sqltypes.NewInt(k))
		if err != nil {
			t.Fatalf("prepared exec %d across reconnect: %v", i, err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0].I != want {
			t.Fatalf("prepared exec %d = %v, want [[%d]]", i, resp.Rows, want)
		}
	}
}

// TestWireChaosRetryingClients: randomized accept and frame-write
// disconnects against a fleet of retrying clients. Reads that fail do
// so with transport errors only (never wrong data, never a server
// crash), bounded manual retries always converge, and after the chaos
// the server shuts down without leaking a goroutine.
func TestWireChaosRetryingClients(t *testing.T) {
	defer fault.Reset()
	base := runtime.NumGoroutine()
	db := engine.Open("srv", engine.DialectDuckDB)
	if _, err := db.Exec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 32; k++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, k*7)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fault.Seed(42)
	if err := fault.ActivateSpec("wire/frame-write=disconnect@1in15;wire/accept=disconnect@1in10"); err != nil {
		t.Fatal(err)
	}

	const nClients, nOps = 4, 40
	errs := make(chan error, nClients)
	for c := 0; c < nClients; c++ {
		go func(c int) {
			cl, err := DialRetry(addr, RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond})
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", c, err)
				return
			}
			defer cl.Close()
			for i := 0; i < nOps; i++ {
				k := (c*nOps + i) % 32
				var resp *Response
				var lastErr error
				for attempt := 0; attempt < 8; attempt++ {
					resp, lastErr = cl.Exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
					if lastErr == nil {
						break
					}
					var re *RemoteError
					if errors.As(lastErr, &re) {
						errs <- fmt.Errorf("client %d op %d: remote error under wire chaos: %w", c, i, lastErr)
						return
					}
					// Mid-stream transport loss: the retry layer refuses to
					// resume a consumed stream, so the caller loops.
				}
				if lastErr != nil {
					errs <- fmt.Errorf("client %d op %d never converged: %w", c, i, lastErr)
					return
				}
				if len(resp.Rows) != 1 || resp.Rows[0][0].I != int64(k*7) {
					errs <- fmt.Errorf("client %d op %d = %v, want [[%d]]", c, i, resp.Rows, k*7)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < nClients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	fault.Reset()

	if st, err := func() (map[string]int64, error) {
		cl, err := Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		return cl.Stats()
	}(); err == nil {
		if st["server.faultInjected"] == 0 {
			t.Fatal("chaos run reported zero injected faults")
		}
	}

	srv.Close()
	waitGoroutines(t, base)
}
