package engine_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// outcome is what one entry point observed running a statement corpus on
// a fresh database.
type outcome struct {
	result       string // columns, rows and rows-affected of every execution
	hookCalls    int64  // statement-hook invocations on the user session
	lazy         int64  // lazy refreshes the IVM hook scheduled
	hits, misses int64  // shared plan cache movement
}

// frontDoorEntries are the ways a statement can enter the engine. Each
// executes sql twice on s — the second execution meets whatever the first
// one cached — and returns the second result.
var frontDoorEntries = []struct {
	name string
	run  func(s *engine.Session, sql string) (*engine.Result, error)
}{
	{"Exec", func(s *engine.Session, sql string) (*engine.Result, error) {
		return twice(func() (*engine.Result, error) { return s.Exec(sql) })
	}},
	{"ExecScript", func(s *engine.Session, sql string) (*engine.Result, error) {
		return twice(func() (*engine.Result, error) { return s.ExecScript(sql) })
	}},
	{"ExecStream", func(s *engine.Session, sql string) (*engine.Result, error) {
		return twice(func() (*engine.Result, error) {
			st, err := s.ExecStream(nil, sql)
			if err != nil {
				return nil, err
			}
			return drainStream(st)
		})
	}},
	{"ExecStmts", func(s *engine.Session, sql string) (*engine.Result, error) {
		p, err := s.PrepareScript(sql)
		if err != nil {
			return nil, err
		}
		return twice(func() (*engine.Result, error) { return s.ExecStmts(p) })
	}},
	{"ExecPreparedStream", func(s *engine.Session, sql string) (*engine.Result, error) {
		p, err := s.PrepareScript(sql)
		if err != nil {
			return nil, err
		}
		return twice(func() (*engine.Result, error) {
			st, err := s.ExecPreparedStream(nil, p)
			if err != nil {
				return nil, err
			}
			return drainStream(st)
		})
	}},
}

func twice(f func() (*engine.Result, error)) (*engine.Result, error) {
	if _, err := f(); err != nil {
		return nil, err
	}
	return f()
}

func drainStream(st *engine.Stream) (*engine.Result, error) {
	defer st.Close()
	res := &engine.Result{Columns: st.Columns}
	for {
		batch, err := st.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			res.RowsAffected = st.RowsAffected()
			return res, nil
		}
		for _, r := range batch {
			res.Rows = append(res.Rows, append(sqltypes.Row(nil), r...))
		}
	}
}

// TestFrontDoorEquivalence: whichever entry point a statement comes in
// through — materialized or streamed, text or prepared handle — it yields
// the same columns, rows and rows-affected, the statement hooks see each
// statement exactly once per execution, and the plan cache moves
// identically (a prepared handle's statements go through it as text does).
func TestFrontDoorEquivalence(t *testing.T) {
	corpus := []struct {
		name  string
		sql   string
		stmts int64 // statements per execution
		lazy  int64 // lazy refreshes the first execution must schedule
		check string
	}{
		{name: "plain select", sql: "SELECT k, v FROM t WHERE v > 15 ORDER BY k", stmts: 1},
		{name: "shared-cache hit", sql: "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k", stmts: 1},
		{name: "lazy view read", sql: "SELECT k, total FROM mv ORDER BY k", stmts: 1, lazy: 1},
		{name: "dml", sql: "UPDATE t SET v = v + 1 WHERE k < 3", stmts: 1, check: "SELECT k, v FROM t ORDER BY k"},
		{name: "script", sql: "INSERT INTO t VALUES (9, 90); DELETE FROM t WHERE k = 1; SELECT COUNT(*), SUM(v) FROM t", stmts: 3},
		{name: "parameterised select", sql: "SELECT k FROM t WHERE v > $1 ORDER BY k", stmts: 1},
		{name: "insert-select", sql: "INSERT INTO dst (k, v) SELECT k, v FROM t WHERE v > $1", stmts: 1, check: "SELECT k, v FROM dst ORDER BY k"},
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			var first outcome
			for i, e := range frontDoorEntries {
				got := runThroughFrontDoor(t, e.run, c.sql, c.check)
				if want := 2 * c.stmts; got.hookCalls != want {
					t.Errorf("%s: hooks saw %d statements, want %d (once per statement per execution)", e.name, got.hookCalls, want)
				}
				if got.lazy != c.lazy {
					t.Errorf("%s: %d lazy refreshes, want %d", e.name, got.lazy, c.lazy)
				}
				if i == 0 {
					first = got
					continue
				}
				if got.result != first.result {
					t.Errorf("%s disagrees with %s:\n%s\nvs\n%s", e.name, frontDoorEntries[0].name, got.result, first.result)
				}
				if got.hits != first.hits || got.misses != first.misses {
					t.Errorf("%s moved the cache by %d hits / %d misses, %s by %d / %d",
						e.name, got.hits, got.misses, frontDoorEntries[0].name, first.hits, first.misses)
				}
			}
			if c.name == "shared-cache hit" && (first.hits != 1 || first.misses != 1) {
				t.Errorf("repeated SELECT: %d hits / %d misses, want a miss then a hit", first.hits, first.misses)
			}
		})
	}
}

// runThroughFrontDoor builds a fresh database, executes sql through run
// (twice) on one user session, and reports what it saw. check, when set, is
// a query whose result is appended (the state DML left behind).
func runThroughFrontDoor(t *testing.T, run func(*engine.Session, string) (*engine.Result, error), sql, check string) outcome {
	t.Helper()
	db := engine.Open("frontdoor", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	admin := db.NewSession()
	defer admin.Close()
	for _, q := range []string{
		"CREATE TABLE t (k INTEGER, v INTEGER)",
		"CREATE TABLE dst (k INTEGER, v INTEGER)",
		"INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (2, 5)",
		"CREATE MATERIALIZED VIEW mv AS SELECT k, SUM(v) AS total FROM t GROUP BY k",
		"INSERT INTO t VALUES (4, 40)", // leaves mv stale: the first read refreshes it
	} {
		if _, err := admin.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	s := db.NewSession()
	defer s.Close()
	s.BindParams([]sqltypes.Value{sqltypes.NewInt(15)})
	var hookCalls atomic.Int64
	db.RegisterStatementHook(func(hs *engine.Session, _ sqlparser.Statement) (bool, *engine.Result, error) {
		if hs == s {
			hookCalls.Add(1)
		}
		return false, nil, nil
	})

	cache, lazy := db.StmtCacheStats(), atomic.LoadInt64(&ext.Stats.LazyRefreshes)
	var sb strings.Builder
	render := func(res *engine.Result) {
		fmt.Fprintf(&sb, "%v affected=%d\n", res.Columns, res.RowsAffected)
		for _, r := range res.Rows {
			fmt.Fprintf(&sb, "  %v\n", r)
		}
	}
	res, err := run(s, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	render(res)
	out := outcome{hookCalls: hookCalls.Load(), lazy: atomic.LoadInt64(&ext.Stats.LazyRefreshes) - lazy}
	after := db.StmtCacheStats()
	out.hits, out.misses = after.Hits-cache.Hits, after.Misses-cache.Misses
	if check != "" {
		res, err := admin.Exec(check)
		if err != nil {
			t.Fatalf("%s: %v", check, err)
		}
		render(res)
	}
	out.result = sb.String()
	return out
}
