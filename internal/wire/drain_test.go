package wire

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"openivm/internal/fault"
)

func mustExecRemote(t *testing.T, cl *Client, sql string) {
	t.Helper()
	if _, err := cl.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// drainedInts flattens a batch to "table:firstcolumn" strings, sorted.
func drainedInts(b *DrainBatch) string {
	var out []string
	for _, t := range b.Tables {
		for _, r := range t.Rows {
			out = append(out, fmt.Sprintf("%s:%d", t.Table, r[0].I))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func remoteCount(t *testing.T, cl *Client, table string) int64 {
	t.Helper()
	resp, err := cl.Exec("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Rows[0][0].I
}

// TestDrainEmptiesTablesInOneRoundTrip: every named table's rows come
// back typed, the tables are empty afterwards, a table with nothing to
// give is left out of the batch, and an unknown table is an error.
func TestDrainEmptiesTablesInOneRoundTrip(t *testing.T) {
	_, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE a (k INTEGER, s TEXT, f DOUBLE, b BOOLEAN)")
	mustExecRemote(t, cl, "CREATE TABLE b (k INTEGER)")
	mustExecRemote(t, cl, "CREATE TABLE c (k INTEGER)")
	mustExecRemote(t, cl, "INSERT INTO a VALUES (1, 'x', 1.5, TRUE), (2, NULL, 2.5, FALSE)")
	mustExecRemote(t, cl, "INSERT INTO c VALUES (7), (8), (9)")

	batch, err := cl.Drain(0, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if batch.Seq != 1 || len(batch.Tables) != 2 {
		t.Fatalf("batch = seq %d with %d tables, want seq 1 with a and c", batch.Seq, len(batch.Tables))
	}
	if got := drainedInts(batch); got != "a:1 a:2 c:7 c:8 c:9" {
		t.Fatalf("drained %q", got)
	}
	r := batch.Tables[0].Rows[0]
	if r[1].S != "x" || r[2].Float() != 1.5 || !r[3].IsTrue() || !batch.Tables[0].Rows[1][1].IsNull() {
		t.Fatalf("row values did not survive: %v", batch.Tables[0].Rows)
	}
	if batch.Tables[0].N != 2 || batch.Tables[1].N != 3 {
		t.Fatalf("row counts %d, %d", batch.Tables[0].N, batch.Tables[1].N)
	}
	for _, tbl := range []string{"a", "c"} {
		if n := remoteCount(t, cl, tbl); n != 0 {
			t.Fatalf("%s holds %d rows after the drain", tbl, n)
		}
	}

	next, err := cl.Drain(batch.Seq, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 2 || len(next.Tables) != 0 {
		t.Fatalf("second drain = seq %d with %d tables, want an empty batch 2", next.Seq, len(next.Tables))
	}
	if _, err := cl.Drain(next.Seq, "nope"); err == nil {
		t.Fatal("draining an unknown table succeeded")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection did not survive a drain error: %v", err)
	}
}

// TestDrainLargeBacklogSpansFrames: a backlog beyond one row-batch frame.
func TestDrainLargeBacklogSpansFrames(t *testing.T) {
	_, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE big (k INTEGER, pad TEXT)")
	const width = 1000
	const n = 2*frameBudget/width + 17
	pad := strings.Repeat("p", width)
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO big VALUES (0, '%s')", pad)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, ", (%d, '%s')", i, pad)
	}
	mustExecRemote(t, cl, sb.String())
	batch, err := cl.Drain(0, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Tables) != 1 || len(batch.Tables[0].Rows) != n {
		t.Fatalf("drained %d tables, want one of %d rows", len(batch.Tables), n)
	}
	for i, r := range batch.Tables[0].Rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v: order not kept", i, r)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRetainedUntilAcknowledged: a drain repeated with the same
// acknowledgement — its answer was lost — gets the same rows under the
// same number, and rows written since wait for the next batch.
func TestDrainRetainedUntilAcknowledged(t *testing.T) {
	_, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE d (k INTEGER)")
	mustExecRemote(t, cl, "CREATE TABLE e (k INTEGER)")
	mustExecRemote(t, cl, "INSERT INTO d VALUES (1), (2)")

	first, err := cl.Drain(0, "d", "e")
	if err != nil {
		t.Fatal(err)
	}
	mustExecRemote(t, cl, "INSERT INTO d VALUES (3)")
	mustExecRemote(t, cl, "INSERT INTO e VALUES (4)")

	again, err := cl.Drain(0, "d", "e")
	if err != nil {
		t.Fatal(err)
	}
	// e had nothing retained for batch 1, so its new row may join it; d's
	// share of batch 1 is fixed.
	if again.Seq != first.Seq || drainedInts(again) != "d:1 d:2 e:4" {
		t.Fatalf("repeated drain = seq %d %q, want seq %d with d's retained rows", again.Seq, drainedInts(again), first.Seq)
	}
	if n := remoteCount(t, cl, "d"); n != 1 {
		t.Fatalf("d holds %d rows, want the one written after the drain", n)
	}

	next, err := cl.Drain(first.Seq, "d", "e")
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != first.Seq+1 || drainedInts(next) != "d:3" {
		t.Fatalf("acknowledging drain = seq %d %q, want seq %d with d:3", next.Seq, drainedInts(next), first.Seq+1)
	}
}

// TestDrainRetriedAcrossDisconnect: the server drains, then loses the
// connection while answering — before the response frame, or between the
// response and its rows. The retrying client reconnects, repeats the
// drain and receives the retained batch: nothing lost, nothing twice.
func TestDrainRetriedAcrossDisconnect(t *testing.T) {
	for _, trigger := range []string{"disconnect@times1", "disconnect@after1@times1"} {
		t.Run(trigger, func(t *testing.T) {
			defer fault.Reset()
			_, addr := startServerOpts(t, nil)
			cl, err := DialRetry(addr, RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			mustExecRemote(t, cl, "CREATE TABLE d (k INTEGER)")
			mustExecRemote(t, cl, "INSERT INTO d VALUES (1), (2), (3)")

			before := fault.Injected()
			if err := fault.Activate(fault.WireFrameWrite, trigger); err != nil {
				t.Fatal(err)
			}
			batch, err := cl.Drain(0, "d")
			if err != nil {
				t.Fatalf("drain across a dropped answer: %v", err)
			}
			if fault.Injected()-before != 1 {
				t.Fatalf("disconnect fired %d times, want 1", fault.Injected()-before)
			}
			if batch.Seq != 1 || drainedInts(batch) != "d:1 d:2 d:3" {
				t.Fatalf("redelivered batch = seq %d %q", batch.Seq, drainedInts(batch))
			}
			next, err := cl.Drain(batch.Seq, "d")
			if err != nil {
				t.Fatal(err)
			}
			if len(next.Tables) != 0 {
				t.Fatalf("rows delivered twice: %q", drainedInts(next))
			}
		})
	}
}

// TestDrainLosesNothingUnderConcurrentWriters: every row committed while
// a consumer loops drains lands in exactly one batch.
func TestDrainLosesNothingUnderConcurrentWriters(t *testing.T) {
	_, addr := startServerOpts(t, nil)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mustExecRemote(t, cl, "CREATE TABLE d (k INTEGER)")

	const writers, each = 3, 200
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			for i := 0; i < each; i++ {
				if _, err := wc.Exec(fmt.Sprintf("INSERT INTO d VALUES (%d)", w*each+i)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := map[int64]int{}
	ack := uint64(0)
	collect := func() {
		batch, err := cl.Drain(ack, "d")
		if err != nil {
			t.Fatal(err)
		}
		ack = batch.Seq
		for _, tb := range batch.Tables {
			for _, r := range tb.Rows {
				seen[r[0].I]++
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		collect()
	}
	collect()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != writers*each {
		t.Fatalf("drained %d distinct rows, want %d", len(seen), writers*each)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("row %d drained %d times", k, n)
		}
	}
}

// TestSchemaReportsPrimaryKey: key columns carry their 1-based position
// in the key; a non-key column's descriptor marshals without the field,
// so clients of older builds decode it unchanged.
func TestSchemaReportsPrimaryKey(t *testing.T) {
	_, cl := startServer(t)
	mustExecRemote(t, cl, "CREATE TABLE li (note TEXT, line INTEGER, oid INTEGER, PRIMARY KEY (oid, line))")
	mustExecRemote(t, cl, "CREATE TABLE plain (a INTEGER)")
	schema, err := cl.Schema("li")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, c := range schema {
		got[c.Name] = c.PK
	}
	if got["note"] != 0 || got["oid"] != 1 || got["line"] != 2 {
		t.Fatalf("key positions = %v, want oid=1 line=2", got)
	}
	plain, err := cl.Schema("plain")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "pk") {
		t.Fatalf("key-less schema marshals a pk field: %s", raw)
	}
}
