package wire

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openivm/internal/engine"
	"openivm/internal/sqltypes"
)

// loadBig fills table big with n rows (id INTEGER, pad TEXT) where pad is
// padBytes of filler — enough volume to keep a stream from fitting into
// the socket and bufio buffers between server and client.
func loadBig(t testing.TB, db *engine.DB, n, padBytes int) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE big (id INTEGER, pad TEXT)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", padBytes)
	const chunk = 2000
	var sb strings.Builder
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		sb.Reset()
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i, pad)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

func startServerOpts(t *testing.T, tune func(*Server)) (*Server, string) {
	t.Helper()
	db := engine.Open("srv", engine.DialectDuckDB)
	srv := NewServer(db)
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

// dialSmallBuffer dials like Dial but pins the socket's receive buffer, so
// a client that stops reading parks the server within a few megabytes.
// Left to autotune, a loopback receive buffer can grow to tcp_rmem's
// maximum (32 MiB on some hosts) and swallow a whole test result, which
// then completes instead of waiting to be cancelled or timed out.
func dialSmallBuffer(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(protocolMagic)); err != nil {
		t.Fatal(err)
	}
	return &Client{conn: conn, br: newClientReader(conn), bw: newClientWriter(conn)}
}

// rowFrame is the payload of the row-batch frame of rows, which must fit
// in one frame.
func rowFrame(rows []sqltypes.Row) []byte {
	_, payload, _ := appendRowFrame(nil, rows)
	return payload
}

// samePayload compares two values by the payload their type reads, a
// DOUBLE by its IEEE bits, so -0.0 and NaN are checked too.
func samePayload(a, b sqltypes.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case sqltypes.TypeInt:
		return a.I == b.I
	case sqltypes.TypeFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.TypeBool:
		return a.Bool() == b.Bool()
	case sqltypes.TypeString:
		return a.S == b.S
	}
	return true
}

// TestFrameRowBatchRoundtrip pins the binary value encoding.
func TestFrameRowBatchRoundtrip(t *testing.T) {
	in := []sqltypes.Row{
		{sqltypes.NewInt(0), sqltypes.NewInt(-1), sqltypes.NewInt(1 << 40)},
		{sqltypes.NewFloat(1.5), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.Null},
		{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewString("")},
		{sqltypes.NewString("héllo, wörld"), sqltypes.NewString(strings.Repeat("y", 300))},
		{sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(math.NaN()),
			sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(math.SmallestNonzeroFloat64),
			sqltypes.NewString("\xff\xfe\x00"), sqltypes.NewString(strings.Repeat("z", 70000))},
	}
	payload := rowFrame(in)
	out, err := decodeRowBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("rows = %d, want %d", len(out), len(in))
	}
	for i, r := range in {
		if len(out[i]) != len(r) {
			t.Fatalf("row %d: cols = %d, want %d", i, len(out[i]), len(r))
		}
		for j, v := range r {
			if got := out[i][j]; !samePayload(got, v) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got, v)
			}
		}
	}
	if _, err := decodeRowBatch(payload[:len(payload)-3]); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
	// The value bytes clients already read.
	row := []sqltypes.Value{sqltypes.NewInt(-1), sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewFloat(1.5), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewString(""), sqltypes.NewString("\xff\x00"), sqltypes.Null}
	const want = "0c030103ffffffffffffffffff0103feffffffffffffffff0104000000000000f83f04000000000000008004010000000000f87f04000000000000f0ff020105000502ff0000"
	if got := hex.EncodeToString(appendRow(nil, row)); got != want {
		t.Errorf("row encodes as\n%s, want\n%s", got, want)
	}
}

// TestStreamedQuery consumes a large result batch by batch and checks
// that the server actually framed it as multiple row batches.
func TestStreamedQuery(t *testing.T) {
	srv, addr := startServerOpts(t, nil)
	loadBig(t, srv.DB, 5000, 10)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rows, err := cl.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 2 || rows.Columns[0] != "id" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	total, batches := 0, 0
	for {
		batch, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		batches++
		total += len(batch)
	}
	if total != 5000 {
		t.Fatalf("streamed %d rows, want 5000", total)
	}
	if batches < 2 {
		t.Fatalf("result arrived in %d batch(es); streaming should chunk it", batches)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.streamedRows"] < 5000 || st["server.streamedBatches"] < int64(batches) {
		t.Fatalf("streaming counters missing: %+v", st)
	}
}

// TestScriptExecAndErrorRecovery: a multi-statement script answers with
// its last statement's rows, a failing statement surfaces as an error,
// and the connection serves the next request.
func TestScriptExecAndErrorRecovery(t *testing.T) {
	_, addr := startServerOpts(t, nil)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Exec("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 || resp.Rows[1][0].I != 2 {
		t.Fatalf("rows = %v", resp.Rows)
	}
	if _, err := cl.Exec("SELECT nope FROM t"); err == nil {
		t.Fatal("statement error must surface")
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestNonV2OpenerRejected: a peer that does not open with the OWP3 magic
// — a protocol-v1 JSON request, or a client of the OWP2 protocol whose
// requests were JSON — gets exactly one error frame and a closed
// connection, whether or not the server is at its connection limit.
func TestNonV2OpenerRejected(t *testing.T) {
	var owp2 strings.Builder
	owp2.WriteString("OWP2")
	writeFrame(&owp2, frameRequest, []byte(`{"op":"ping"}`))
	openers := map[string]string{"v1": `{"op":"ping"}` + "\n", "OWP2": owp2.String()}
	for _, maxConns := range []int{0, 1} {
		_, addr := startServerOpts(t, func(s *Server) { s.MaxConns = maxConns })
		keep, err := Dial(addr) // occupies the only slot when MaxConns = 1
		if err != nil {
			t.Fatal(err)
		}
		defer keep.Close()
		if err := keep.Ping(); err != nil {
			t.Fatal(err)
		}
		for name, opener := range openers {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte(opener)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			typ, payload, err := readFrame(br, nil)
			if err != nil || typ != frameResponse {
				t.Fatalf("%s, maxConns=%d: frame 0x%02x, err %v; want one response frame", name, maxConns, typ, err)
			}
			want := "wire: bad protocol magic"
			if maxConns == 1 {
				want = errConnLimit
			}
			var resp Response
			if err := json.Unmarshal(payload, &resp); err != nil || resp.Error != want {
				t.Fatalf("%s, maxConns=%d: response %s (err %v), want error %q", name, maxConns, payload, err, want)
			}
			if _, err := br.ReadByte(); err == nil { // EOF, or a reset over the unread request bytes
				t.Fatalf("%s, maxConns=%d: connection still open after the error frame", name, maxConns)
			}
		}
	}
}

// countingConn counts the Write calls made on a connection. The count
// goes up before the bytes leave, so a peer that has read them sees it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerShortResult pins the framing rule that makes a point read
// cost one round trip: a result of one batch — a keyed read, an empty
// read, a DML statement — reaches the client in exactly one server write,
// schema frame, rows and trailer together. A result of several batches
// takes about one write per batch.
func TestOneWritePerShortResult(t *testing.T) {
	db := engine.Open("srv", engine.DialectDuckDB)
	srv := NewServer(db)
	t.Cleanup(srv.Close)
	if _, err := db.Exec("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)"); err != nil {
		t.Fatal(err)
	}
	loadBig(t, db, 5000, 10)

	// Serve one accepted connection through the counting wrapper.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: accepted}
	sc := &servedConn{conn: cc, sess: db.NewSession()}
	srv.mu.Lock()
	srv.conns[cc] = sc
	srv.wg.Add(1)
	srv.mu.Unlock()
	go srv.serveConn(sc)
	if _, err := conn.Write([]byte(protocolMagic)); err != nil {
		t.Fatal(err)
	}
	cl := &Client{conn: conn, br: newClientReader(conn), bw: newClientWriter(conn)}
	defer cl.Close()
	if err := cl.Prepare("point", "SELECT v FROM t WHERE k = $1"); err != nil {
		t.Fatal(err)
	}

	short := []struct {
		name string
		rows int
		run  func() (*Response, error)
	}{
		{"point read", 1, func() (*Response, error) { return cl.Exec("SELECT v FROM t WHERE k = 2") }},
		{"prepared point read", 1, func() (*Response, error) { return cl.ExecPrepared("point", sqltypes.NewInt(3)) }},
		{"empty read", 0, func() (*Response, error) { return cl.Exec("SELECT v FROM t WHERE k = 99") }},
		{"insert", 0, func() (*Response, error) { return cl.Exec("INSERT INTO t VALUES (4, 40)") }},
		{"update", 0, func() (*Response, error) { return cl.Exec("UPDATE t SET v = v + 1 WHERE k = 4") }},
		{"failed statement", 0, func() (*Response, error) { return cl.Exec("INSERT INTO t VALUES (4, 41)") }},
	}
	for _, c := range short {
		cc.writes.Store(0)
		resp, err := c.run()
		if c.name == "failed statement" {
			if err == nil {
				t.Fatalf("%s: duplicate key accepted", c.name)
			}
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		} else if len(resp.Rows) != c.rows {
			t.Fatalf("%s: rows = %v, want %d", c.name, resp.Rows, c.rows)
		}
		if got := cc.writes.Load(); got != 1 {
			t.Errorf("%s: %d server writes, want 1", c.name, got)
		}
	}

	cc.writes.Store(0)
	rows, err := cl.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for {
		batch, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		batches++
	}
	if got := cc.writes.Load(); batches < 2 || got < int64(batches)/2 || got > int64(batches)+1 {
		t.Errorf("%d batches took %d server writes, want about one per batch", batches, got)
	}
}

// TestWirePreparedStatements: prepare once, execute many times with
// different $1 bindings, deallocate.
func TestWirePreparedStatements(t *testing.T) {
	srv, addr := startServerOpts(t, nil)
	if _, err := srv.DB.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DB.Exec("INSERT INTO t VALUES (1), (2), (3), (4)"); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Prepare("above", "SELECT a FROM t WHERE a > $1 ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.ExecPrepared("above", sqltypes.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 || resp.Rows[0][0].I != 3 {
		t.Fatalf("$1=2 rows = %v", resp.Rows)
	}
	resp, err = cl.ExecPrepared("above", sqltypes.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("$1=0 rows = %v", resp.Rows)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.preparedMarked"] != 1 {
		t.Fatalf("preparedMarked = %d with one live prepared statement", st["server.preparedMarked"])
	}
	// Re-preparing a name replaces the handle; a second connection's
	// handles count until that connection goes away.
	if err := cl.Prepare("above", "SELECT a FROM t WHERE a > $1 ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Prepare("p", "SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Stats(); err != nil || st["server.preparedMarked"] != 2 {
		t.Fatalf("preparedMarked = %+v (err %v), want 2 across two connections", st, err)
	}
	other.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st, err = cl.Stats(); err != nil {
			t.Fatal(err)
		}
		if st["server.preparedMarked"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("closed connection's prepared statement still counted: %d", st["server.preparedMarked"])
		}
	}
	if err := cl.Deallocate("above"); err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Stats(); err != nil || st["server.preparedMarked"] != 0 {
		t.Fatalf("preparedMarked = %+v (err %v) after deallocate, want 0", st, err)
	}
	if _, err := cl.ExecPrepared("above", sqltypes.NewInt(2)); err == nil {
		t.Fatal("deallocated statement still executable")
	}
	if _, err := cl.ExecPrepared("never"); err == nil {
		t.Fatal("unknown prepared statement must error")
	}
}

// drainUntilError reads a stream to its end and returns the terminal
// error (nil if the stream completed cleanly).
func drainUntilError(t *testing.T, rows *Rows) error {
	t.Helper()
	for {
		batch, err := rows.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
	}
}

// TestCancelRace: while connection A streams a big result, connection B
// cancels A's statement by token. A's stream ends in a cancellation
// error — and A's session survives to serve the next query. The cancel
// lands deterministically: A holds after the first batch, so the server
// is parked mid-stream (the result far exceeds the transport buffers)
// and must observe the cancelled context before the trailer.
func TestCancelRace(t *testing.T) {
	srv, addr := startServerOpts(t, nil)
	loadBig(t, srv.DB, 20000, 512)
	a := dialSmallBuffer(t, addr)
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	token, err := a.Token()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := a.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if err := b.Cancel(token); err != nil {
		t.Fatal(err)
	}
	if err := drainUntilError(t, rows); err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("cancelled stream ended with %v, want a cancellation error", err)
	}
	// The session must survive a statement interrupt.
	resp, err := a.Exec("SELECT COUNT(id) FROM big")
	if err != nil {
		t.Fatalf("session did not survive cancel: %v", err)
	}
	if resp.Rows[0][0].I != 20000 {
		t.Fatalf("post-cancel count = %v", resp.Rows)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.cancels"] != 1 {
		t.Fatalf("cancels = %d, want 1", st["server.cancels"])
	}
	if err := b.Cancel("no-such-token"); err == nil {
		t.Fatal("cancel with a bogus token must error")
	}
}

// TestQueryTimeoutKill: a statement that outlives QueryTimeout is killed
// mid-stream; the kill is classified in stats and the session survives.
// Deterministic like TestCancelRace: the client parks the stream past
// the deadline before draining.
func TestQueryTimeoutKill(t *testing.T) {
	// The budget must outlast first-batch latency even under -race, yet
	// expire while the client parks the stream below.
	srv, addr := startServerOpts(t, func(s *Server) { s.QueryTimeout = 400 * time.Millisecond })
	loadBig(t, srv.DB, 20000, 512)
	cl := dialSmallBuffer(t, addr)
	defer cl.Close()

	rows, err := cl.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond)
	if err := drainUntilError(t, rows); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("overtime stream ended with %v, want deadline exceeded", err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.timeoutKills"] != 1 {
		t.Fatalf("timeoutKills = %d, want 1", st["server.timeoutKills"])
	}
	// Fast statements still fit inside the budget.
	if _, err := cl.Exec("SELECT COUNT(id) FROM big"); err != nil {
		t.Fatalf("session did not survive timeout kill: %v", err)
	}
}

// TestGovernorBudgets: per-query row and byte budgets kill a runaway
// result mid-stream; the session survives and the kill is counted.
func TestGovernorBudgets(t *testing.T) {
	srv, addr := startServerOpts(t, func(s *Server) { s.MaxRowsPerQuery = 1500 })
	loadBig(t, srv.DB, 5000, 10)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Exec("SELECT id FROM big"); err == nil || !strings.Contains(err.Error(), "row budget") {
		t.Fatalf("over-budget query returned %v, want row-budget kill", err)
	}
	// Under budget passes untouched.
	resp, err := cl.Exec("SELECT id FROM big WHERE id < 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1000 {
		t.Fatalf("under-budget rows = %d", len(resp.Rows))
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["server.governorKills"] != 1 {
		t.Fatalf("governorKills = %d, want 1", st["server.governorKills"])
	}

	// Byte budget, separately tuned server.
	srv2, addr2 := startServerOpts(t, func(s *Server) { s.MaxBytesPerQuery = 64 << 10 })
	loadBig(t, srv2.DB, 5000, 128)
	cl2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Exec("SELECT id, pad FROM big"); err == nil || !strings.Contains(err.Error(), "byte budget") {
		t.Fatalf("over-byte-budget query returned %v, want byte-budget kill", err)
	}
}

// TestDisconnectMidStreamNoLeak: a client that vanishes mid-stream must
// not strand server goroutines — the write path fails, the serve
// goroutine tears down and the session closes.
func TestDisconnectMidStreamNoLeak(t *testing.T) {
	srv, addr := startServerOpts(t, nil)
	loadBig(t, srv.DB, 20000, 512)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cl.Query("SELECT id, pad FROM big")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
		cl.Close() // vanish with the stream parked mid-flight
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: server leaked after mid-stream disconnects",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSlowReaderBackpressure pins the bounded-buffering property: when
// the client stops reading, the server stops producing — the streamed
// counters freeze well short of the full result instead of the server
// buffering it all. Draining releases the pipeline and the full result
// arrives intact.
func TestSlowReaderBackpressure(t *testing.T) {
	const nrows = 20000
	srv, addr := startServerOpts(t, nil)
	loadBig(t, srv.DB, nrows, 512) // ~10 MB result, past the pinned buffers
	cl := dialSmallBuffer(t, addr)
	defer cl.Close()
	mon, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	rows, err := cl.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	// Let the server run into the full transport buffers, then sample.
	time.Sleep(150 * time.Millisecond)
	st1, err := mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	st2, err := mon.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2["server.streamedRows"] != st1["server.streamedRows"] {
		t.Fatalf("server kept streaming into a stalled reader: %d -> %d rows",
			st1["server.streamedRows"], st2["server.streamedRows"])
	}
	if st1["server.streamedRows"] >= nrows {
		t.Fatalf("server buffered the whole %d-row result (%d streamed) with no reader",
			nrows, st1["server.streamedRows"])
	}
	total := 0
	for {
		batch, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		total += len(batch)
	}
	if total != nrows {
		t.Fatalf("drained %d rows, want %d", total, nrows)
	}
}

// TestStreamErrorBeforeRows: an exec that fails at plan time arrives as
// a plain error with no stream, and the connection stays usable.
func TestStreamErrorBeforeRows(t *testing.T) {
	_, addr := startServerOpts(t, nil)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query("SELECT x FROM missing"); err == nil {
		t.Fatal("plan-time error must surface from Query")
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestWideRowsSplitAcrossFrames: a result whose rows are wide is split
// into frames by bytes, not only by rows. 1 024 rows of 70 000-byte strings
// are one engine batch and well within one drain frame's row bound, yet
// 72 MB — past the frame size limit. The client must read every row of a
// stream and of a drain of them, and the connection must then serve the
// next statement.
func TestWideRowsSplitAcrossFrames(t *testing.T) {
	_, cl := startServer(t)
	const nrows, width = 1024, 70000
	mustExecRemote(t, cl, "CREATE TABLE t (id INTEGER, s TEXT)")
	mustExecRemote(t, cl, fmt.Sprintf("INSERT INTO t VALUES (0, '%s')", strings.Repeat("w", width)))
	for n := 1; n < nrows; n *= 2 { // doubling shares the one string value
		mustExecRemote(t, cl, fmt.Sprintf("INSERT INTO t SELECT id + %d, s FROM t", n))
	}
	check := func(what string, r []sqltypes.Value, seen map[int64]bool) {
		t.Helper()
		if len(r[1].S) != width || seen[r[0].I] {
			t.Fatalf("%s: row %d arrived with %d bytes or twice", what, r[0].I, len(r[1].S))
		}
		seen[r[0].I] = true
	}

	rows, err := cl.Query("SELECT id, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	streamed := map[int64]bool{}
	for {
		batch, err := rows.Next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if batch == nil {
			break
		}
		for _, r := range batch {
			check("stream", r, streamed)
		}
	}
	if len(streamed) != nrows {
		t.Fatalf("stream delivered %d rows, want %d", len(streamed), nrows)
	}

	batch, err := cl.Drain(0, "t")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained := map[int64]bool{}
	for _, tbl := range batch.Tables {
		for _, r := range tbl.Rows {
			check("drain", r, drained)
		}
	}
	if len(drained) != nrows {
		t.Fatalf("drain delivered %d rows, want %d", len(drained), nrows)
	}

	if n := remoteCount(t, cl, "t"); n != 0 {
		t.Fatalf("t holds %d rows after the drain", n)
	}
}

// TestDisconnectReleasesCursor: a client that disconnects mid-stream
// leaves no cursor holding the table it was reading. The server is parked
// in the stream (the result far exceeds the transport buffers) when the
// connection goes away.
func TestDisconnectReleasesCursor(t *testing.T) {
	srv, addr := startServerOpts(t, nil)
	loadBig(t, srv.DB, 20000, 512)
	big, err := srv.DB.Catalog().Table("big")
	if err != nil {
		t.Fatal(err)
	}
	cl := dialSmallBuffer(t, addr)
	rows, err := cl.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if n := big.OpenScans(); n != 1 {
		t.Fatalf("the parked stream holds %d cursors, want 1", n)
	}
	cl.Close()
	deadline := time.Now().Add(10 * time.Second)
	for big.OpenScans() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d cursors still hold the table after the client left", big.OpenScans())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
