package txntest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/engine"
)

// engineConn adapts an embedded engine session to the harness.
type engineConn struct{ s *engine.Session }

func (c engineConn) Exec(sql string) ([][]int64, error) {
	res, err := c.s.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		row := make([]int64, len(r))
		for i, v := range r {
			row[i] = v.I
		}
		out = append(out, row)
	}
	return out, nil
}

func (c engineConn) Close() error { return c.s.Close() }

// newEngineDB builds a freshly seeded embedded database and returns a
// per-session opener.
func newEngineDB(o Options) (func() (Conn, error), func(), error) {
	db := engine.Open("txntest", engine.DialectDuckDB)
	for _, stmt := range SetupSQL(o) {
		if _, err := db.Exec(stmt); err != nil {
			return nil, nil, fmt.Errorf("seed: %w", err)
		}
	}
	open := func() (Conn, error) { return engineConn{db.NewSession()}, nil }
	return open, func() {}, nil
}

// TestHistoryReadsCoverBothPaths: the histories' point read and key-set
// read find their rows through the primary-key index and the full read by
// scanning, so the oracle checks snapshot isolation on both.
func TestHistoryReadsCoverBothPaths(t *testing.T) {
	db := engine.Open("txntest", engine.DialectDuckDB)
	for _, stmt := range SetupSQL(Options{Keys: 2}) {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for kind, want := range map[OpKind]string{OpRead: "KeyedScan kv[pk] keys=1", OpReadKeys: "KeyedScan kv[pk] keys=IN(subquery)", OpReadAll: "Scan kv"} {
		res, err := db.Exec("EXPLAIN " + Op{Kind: kind}.sql())
		if err != nil {
			t.Fatal(err)
		}
		if plan := fmt.Sprint(res.Rows); !strings.Contains(plan, " "+want) {
			t.Errorf("%s: plan %s, want %q", kind, plan, want)
		}
	}
}

// TestSequentialHistoriesEngine replays randomized multi-session
// histories against the embedded engine, each checked operation by
// operation against the exact snapshot-isolation oracle. Failures are
// minimized and printed with the seed for replay (set TXNTEST_SEED to
// reproduce a CI run).
func TestSequentialHistoriesEngine(t *testing.T) {
	seed, fromEnv := Seed()
	histories := 400
	if testing.Short() {
		histories = 50
	}
	o := Options{Sessions: 3, Keys: 4, Ops: 40}
	for i := 0; i < histories; i++ {
		s := seed + int64(i)
		h := Generate(rand.New(rand.NewSource(s)), o)
		open, teardown, err := newEngineDB(o)
		if err != nil {
			t.Fatal(err)
		}
		v, rerr := RunSequential(open, h, isSerialization, o)
		teardown()
		if rerr != nil {
			t.Fatalf("TXNTEST_SEED=%d (history %d, from env: %v): harness error: %v", seed, i, fromEnv, rerr)
		}
		if v != nil {
			min := Minimize(func() (func() (Conn, error), func(), error) { return newEngineDB(o) }, h, isSerialization, o)
			t.Fatalf("TXNTEST_SEED=%d (history %d): %v\nminimized history:\n%s", seed, i, v, Format(min))
		}
	}
}

// TestConcurrentHistoriesEngine runs value-disjoint operation streams
// from concurrent goroutines (own session each) with the conservative
// checker — meant to run under -race in CI.
func TestConcurrentHistoriesEngine(t *testing.T) {
	seed, _ := Seed()
	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	o := Options{Keys: 4, Ops: 150}
	for round := 0; round < rounds; round++ {
		open, teardown, err := newEngineDB(o)
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
