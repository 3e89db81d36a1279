package txntest

import (
	"fmt"
	"math/rand"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/enginerr"
	"openivm/internal/wire"
)

// isSerialization classifies a remote error by the SQLSTATE that crossed
// the wire — the same path local errors take.
func isSerialization(err error) bool {
	return enginerr.HasCode(err, enginerr.CodeSerialization)
}

// wireConn adapts a v2 wire client to the harness: the same histories
// that run embedded also run through frames, streams, and the server's
// per-connection sessions.
type wireConn struct{ c *wire.Client }

func (c wireConn) Exec(sql string) ([][]int64, error) {
	resp, err := c.c.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 0, len(resp.Rows))
	for _, r := range resp.Rows {
		row := make([]int64, len(r))
		for i, v := range r {
			row[i] = v.I
		}
		out = append(out, row)
	}
	return out, nil
}

func (c wireConn) Close() error { return c.c.Close() }

// newWireDB starts a server on a freshly seeded database and returns a
// dialing opener.
func newWireDB(o Options) (func() (Conn, error), func(), error) {
	db := engine.Open("txntest", engine.DialectDuckDB)
	for _, stmt := range SetupSQL(o) {
		if _, err := db.Exec(stmt); err != nil {
			return nil, nil, fmt.Errorf("seed: %w", err)
		}
	}
	srv := wire.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	open := func() (Conn, error) {
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		return wireConn{c}, nil
	}
	return open, srv.Close, nil
}

// TestSequentialHistoriesWire replays randomized histories over the v2
// wire protocol — serialization failures must survive the trip as
// SQLSTATE 40001 for the oracle's conflict checks to pass.
func TestSequentialHistoriesWire(t *testing.T) {
	seed, fromEnv := Seed()
	histories := 150
	if testing.Short() {
		histories = 20
	}
	o := Options{Sessions: 3, Keys: 4, Ops: 40}
	for i := 0; i < histories; i++ {
		s := seed + int64(i)
		h := Generate(rand.New(rand.NewSource(s)), o)
		open, teardown, err := newWireDB(o)
		if err != nil {
			t.Fatal(err)
		}
		v, rerr := RunSequential(open, h, isSerialization, o)
		teardown()
		if rerr != nil {
			t.Fatalf("TXNTEST_SEED=%d (history %d, from env: %v): harness error: %v", seed, i, fromEnv, rerr)
		}
		if v != nil {
			min := Minimize(func() (func() (Conn, error), func(), error) { return newWireDB(o) }, h, isSerialization, o)
			t.Fatalf("TXNTEST_SEED=%d (history %d): %v\nminimized history:\n%s", seed, i, v, Format(min))
		}
	}
}

// TestConcurrentHistoriesWire drives concurrent clients against one
// server, each goroutine on its own connection.
func TestConcurrentHistoriesWire(t *testing.T) {
	seed, _ := Seed()
	rounds := 2
	if testing.Short() {
		rounds = 1
	}
	o := Options{Keys: 4, Ops: 120}
	for round := 0; round < rounds; round++ {
		open, teardown, err := newWireDB(o)
		if err != nil {
			t.Fatal(err)
		}
		streams := GenerateStreams(rand.New(rand.NewSource(seed+int64(round))), 4, o)
		if err := RunConcurrent(open, streams, isSerialization); err != nil {
			t.Fatalf("TXNTEST_SEED=%d round %d: %v", seed, round, err)
		}
		teardown()
	}
}
