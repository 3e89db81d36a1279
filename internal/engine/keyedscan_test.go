package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"openivm/internal/sqltypes"
)

// scanLine is the table-access line of an EXPLAIN result, trimmed.
func scanLine(t *testing.T, s *Session, sql string) string {
	t.Helper()
	for _, r := range queryRowsSess(t, s, "EXPLAIN "+sql) {
		if line := strings.TrimSpace(r[0].S); strings.HasPrefix(line, "Scan ") || strings.HasPrefix(line, "KeyedScan ") {
			return line
		}
	}
	t.Fatalf("EXPLAIN %s shows no scan", sql)
	return ""
}

// TestExplainKeyedScan: EXPLAIN of a SELECT says how its scan finds its
// rows, from the function the executor asks at open — one case per shape
// and per fall-back.
func TestExplainKeyedScan(t *testing.T) {
	db := Open("explainscan", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE query_groups (group_index TEXT PRIMARY KEY, total_value INTEGER, n INTEGER)")
	mustExec(t, db, "CREATE TABLE cust_totals (region TEXT, cid INTEGER, n INTEGER, PRIMARY KEY (region, cid))")
	mustExec(t, db, "CREATE TABLE big_orders (oid INTEGER, amount INTEGER)")
	mustExec(t, db, "CREATE TABLE delta (region TEXT, cid INTEGER)")
	mustExec(t, db, "CREATE TABLE nulls (g INTEGER, n INTEGER, PRIMARY KEY (g))")
	mustExec(t, db, "INSERT INTO query_groups VALUES ('g0123', 5, 1), ('g0124', 6, 2)")
	mustExec(t, db, "INSERT INTO nulls VALUES (1, 0), (NULL, 0)")
	s := db.NewSession()
	defer s.Close()
	for _, c := range []struct{ sql, want string }{
		{"SELECT total_value, n FROM query_groups WHERE group_index = 'g0123'", "KeyedScan query_groups[pk] keys=1 [filter: (group_index = 'g0123')]"},
		{"SELECT n FROM query_groups AS q WHERE 'g0123' = q.group_index AND n > 0", "KeyedScan query_groups[pk] AS q keys=1 [filter: (('g0123' = group_index) AND (n > 0))]"},
		{"SELECT n FROM query_groups WHERE group_index IN ('a', 'b', 'a')", "KeyedScan query_groups[pk] keys=3 [filter: (group_index IN ('a', 'b', 'a'))]"},
		{"SELECT n FROM cust_totals WHERE cid = 4 AND region = 'eu'", "KeyedScan cust_totals[pk] keys=1 [filter: ((cid = 4) AND (region = 'eu'))]"},
		{"SELECT n FROM cust_totals WHERE (cid, region) IN (SELECT cid, region FROM delta)", "KeyedScan cust_totals[pk] keys=IN(subquery) [filter: ((cid, region) IN (<subquery>))]"},
		{"SELECT n FROM nulls WHERE g IN (1, 2)", "KeyedScan nulls[pk] keys=2 [filter: (g IN (1, 2))]"},
		// The fall-backs: a literal of the wrong kind, part of a composite
		// key, an expression on the key column, a negated IN, a table
		// without a key, a disjunction (NULL-keyed rows asked for through
		// OR … IS NULL), no predicate.
		{"SELECT n FROM query_groups WHERE group_index = 123", "Scan query_groups [filter: (group_index = 123)]"},
		{"SELECT n FROM cust_totals WHERE region = 'eu'", "Scan cust_totals [filter: (region = 'eu')]"},
		{"SELECT n FROM nulls WHERE g + 0 = 1", "Scan nulls [filter: ((g + 0) = 1)]"},
		{"SELECT n FROM nulls WHERE g NOT IN (1, 2)", "Scan nulls [filter: (g NOT IN (1, 2))]"},
		{"SELECT amount FROM big_orders WHERE oid = 1", "Scan big_orders [filter: (oid = 1)]"},
		{"SELECT n FROM nulls WHERE g IN (1, 2) OR g IS NULL", "Scan nulls [filter: ((g IN (1, 2)) OR (g IS NULL))]"},
		{"SELECT n FROM cust_totals WHERE ((region, cid) IN (SELECT region, cid FROM delta) OR cid IS NULL) AND n = 0", "Scan cust_totals [filter: ((((region, cid) IN (<subquery>)) OR (cid IS NULL)) AND (n = 0))]"},
		{"SELECT n FROM query_groups", "Scan query_groups"},
	} {
		if got := scanLine(t, s, c.sql); got != c.want {
			t.Errorf("EXPLAIN %s:\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
	// A parameter pins a key once it is bound.
	const prepared = "SELECT total_value, n FROM query_groups WHERE group_index = $1"
	if got, want := scanLine(t, s, prepared), "Scan query_groups [filter: (group_index = $1)]"; got != want {
		t.Errorf("unbound $1: %s, want %s", got, want)
	}
	s.BindParams([]sqltypes.Value{sqltypes.NewString("g0123")})
	if got, want := scanLine(t, s, prepared), "KeyedScan query_groups[pk] keys=1 [filter: (group_index = $1)]"; got != want {
		t.Errorf("bound $1: %s, want %s", got, want)
	}
}

// TestKeyedScanMatchesScan: a SELECT whose filter pins the primary key
// returns, row for row and in the same order, what the same statement
// returns when an expression on the key column forces it onto the scan.
func TestKeyedScanMatchesScan(t *testing.T) {
	db := Open("keyedscan", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "CREATE TABLE two (a INTEGER, b TEXT, v INTEGER, PRIMARY KEY (a, b))")
	mustExec(t, db, "CREATE TABLE str (s TEXT PRIMARY KEY, v INTEGER)")
	// Slot order is not key order, and updated rows moved to the end.
	mustExec(t, db, "INSERT INTO one VALUES (5, 50), (1, 10), (4, 40), (2, 20), (3, 30), (0, 0)")
	mustExec(t, db, "UPDATE one SET v = 11 WHERE k = 1")
	mustExec(t, db, "DELETE FROM one WHERE k = 4")
	mustExec(t, db, "INSERT INTO two VALUES (2, 'y', 1), (1, 'x', 2), (1, 'y', 3), (2, 'x', 4)")
	mustExec(t, db, "UPDATE two SET v = 5 WHERE a = 1 AND b = 'x'")
	mustExec(t, db, "INSERT INTO str VALUES ('b', 2), ('1', 1), ('a', 3)")
	s := db.NewSession()
	defer s.Close()

	for _, c := range []struct {
		name, keyed, scan string
		params            []sqltypes.Value
		falls             bool // the keyed spelling itself falls back to the scan
	}{
		{name: "literal", keyed: "k = 2", scan: "k + 0 = 2"},
		{name: "param", keyed: "k = $1", scan: "k + 0 = $1", params: []sqltypes.Value{sqltypes.NewInt(3)}},
		{name: "null param", keyed: "k = $1", scan: "k + 0 = $1", params: []sqltypes.Value{sqltypes.Null}, falls: true},
		{name: "in list, duplicates and a NULL", keyed: "k IN (3, 5, NULL, 1, 3, 9)", scan: "k + 0 IN (3, 5, NULL, 1, 3, 9)"},
		{name: "in list of NULLs", keyed: "k IN (NULL, NULL)", scan: "k + 0 IN (NULL, NULL)"},
		{name: "subquery on the same table", keyed: "k IN (SELECT k FROM one WHERE v > 10)", scan: "k + 0 IN (SELECT k FROM one WHERE v > 10)"},
		{name: "subquery with NULLs", keyed: "k IN (SELECT a FROM two UNION ALL SELECT NULL)", scan: "k + 0 IN (SELECT a FROM two UNION ALL SELECT NULL)"},
		{name: "double literal", keyed: "k = 2.0", scan: "k + 0 = 2.0"},
		{name: "double literal between keys", keyed: "k = 2.5", scan: "k + 0 = 2.5"},
		{name: "zero", keyed: "k = 0", scan: "k + 0 = 0"},
		{name: "negative zero", keyed: "k = $1", scan: "k + 0 = $1", params: []sqltypes.Value{sqltypes.NewFloat(negZero)}},
		{name: "residual rejects the candidate", keyed: "k = 2 AND v <> 20", scan: "k + 0 = 2 AND v <> 20"},
		{name: "residual keeps the candidate", keyed: "v = 11 AND k = 1", scan: "v = 11 AND k + 0 = 1"},
		{name: "absent key", keyed: "k = 4", scan: "k + 0 = 4"},
		{name: "contradiction", keyed: "k = 1 AND k = 2", scan: "k + 0 = 1 AND k + 0 = 2"},
	} {
		for _, cols := range []string{"k, v", "v", "COUNT(*), SUM(v)"} {
			compareKeyedScan(t, s, c.name, "SELECT "+cols+" FROM one WHERE "+c.keyed, "SELECT "+cols+" FROM one WHERE "+c.scan, c.params, c.falls)
		}
	}
	for _, c := range []struct{ name, keyed, scan string }{
		{"composite", "a = 1 AND b = 'y'", "a + 0 = 1 AND b = 'y'"},
		{"composite, other order", "b = 'x' AND v > 0 AND a = 2", "b = 'x' AND v > 0 AND a + 0 = 2"},
		{"composite subquery", "(a, b) IN (SELECT a, b FROM two WHERE v > 2)", "(a + 0, b) IN (SELECT a, b FROM two WHERE v > 2)"},
		{"composite subquery, other order", "(b, a) IN (SELECT b, a FROM two WHERE v > 2)", "(b, a + 0) IN (SELECT b, a FROM two WHERE v > 2)"},
	} {
		compareKeyedScan(t, s, c.name, "SELECT a, b, v FROM two WHERE "+c.keyed, "SELECT a, b, v FROM two WHERE "+c.scan, nil, false)
	}
	compareKeyedScan(t, s, "string key", "SELECT s, v FROM str WHERE s IN ('a', '1', 'zz')", "SELECT s, v FROM str WHERE s || '' IN ('a', '1', 'zz')", nil, false)
	// A value of another kind than the key column is compared by the scan,
	// under the predicate's own rules.
	compareKeyedScan(t, s, "string key, integer literal", "SELECT s, v FROM str WHERE s = 1", "SELECT s, v FROM str WHERE s || '' = 1", nil, true)
	compareKeyedScan(t, s, "integer key, string literal", "SELECT k, v FROM one WHERE k = '2'", "SELECT k, v FROM one WHERE k + 0 = '2'", nil, true)
}

var negZero = math.Copysign(0, -1)

// compareKeyedScan runs both spellings of one statement and compares
// errors, rows and their order; keyedSQL must be keyed unless falls.
func compareKeyedScan(t *testing.T, s *Session, name, keyedSQL, scanSQL string, params []sqltypes.Value, falls bool) {
	t.Helper()
	s.BindParams(params)
	if line := scanLine(t, s, keyedSQL); strings.HasPrefix(line, "KeyedScan ") == falls {
		t.Errorf("%s: %s explains as %q", name, keyedSQL, line)
	}
	if line := scanLine(t, s, scanSQL); !strings.HasPrefix(line, "Scan ") {
		t.Errorf("%s: %s is not forced onto the scan: %q", name, scanSQL, line)
	}
	kr, kerr := s.Exec(keyedSQL)
	sr, serr := s.Exec(scanSQL)
	if (kerr == nil) != (serr == nil) {
		t.Fatalf("%s: %q -> %v, but %q -> %v", name, keyedSQL, kerr, scanSQL, serr)
	}
	if kerr != nil {
		return
	}
	if got, want := strings.Join(rowStrings(kr.Rows), ";"), strings.Join(rowStrings(sr.Rows), ";"); got != want {
		t.Errorf("%s: %q\n keyed %s\n scan  %s", name, keyedSQL, got, want)
	}
}

// TestKeyedScanPreparedParams: one cached plan serves every binding of its
// parameter — the key is resolved per execution, never frozen in the plan.
func TestKeyedScanPreparedParams(t *testing.T) {
	db := Open("prepared", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO one VALUES (1, 10), (2, 20), (3, 30)")
	s := db.NewSession()
	defer s.Close()
	p, err := s.PrepareScript("SELECT v FROM one WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		param sqltypes.Value
		want  string
	}{
		{sqltypes.NewInt(2), "20"}, {sqltypes.NewInt(3), "30"}, {sqltypes.NewInt(1), "10"},
		{sqltypes.NewInt(9), ""}, {sqltypes.Null, ""}, {sqltypes.NewFloat(2), "20"}, {sqltypes.NewInt(2), "20"},
	} {
		s.BindParams([]sqltypes.Value{c.param})
		res, err := s.ExecStmts(p)
		if err != nil {
			t.Fatalf("$1 = %v: %v", c.param, err)
		}
		if got := strings.Join(rowStrings(res.Rows), ";"); got != c.want {
			t.Errorf("$1 = %v: rows %q, want %q", c.param, got, c.want)
		}
	}
	if cachedPlan(t, db, "SELECT v FROM one WHERE k = $1") == nil {
		t.Error("no plan cached for the statement every execution reused")
	}
}

// TestKeyedScanSharedPlan: two sessions run one statement shape at once
// (meant for -race) while a writer moves the row it reads; nothing is
// written onto a cached plan, and every read sees exactly one version.
func TestKeyedScanSharedPlan(t *testing.T) {
	db := Open("shared", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO one VALUES (1, 10), (2, 20), (3, 30)")
	const q = "SELECT k, v FROM one WHERE k = 2"
	before := db.StmtCacheStats()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < 300; i++ {
				res, err := s.Exec(q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].I != 2 || res.Rows[0][1].I%20 != 0 {
					errs <- fmt.Errorf("read %d: %v", i, res.Rows)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := db.NewSession()
		defer s.Close()
		for i := 1; i <= 100; i++ {
			if _, err := s.Exec(fmt.Sprintf("UPDATE one SET v = %d WHERE k = 2", 20*i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := db.StmtCacheStats(); after.Entries != before.Entries+2 || after.Hits+after.Misses-before.Hits-before.Misses != 700 || after.Hits == before.Hits {
		t.Errorf("700 executions of two shapes: %+v -> %+v", before, after)
	}
}

// TestKeyedScanSnapshots: inside a transaction a keyed SELECT sees the
// transaction's own insert, update and delete of the key it reads and
// nobody else does; an older open snapshot does not see the later commit.
// Every answer is checked against the same read forced onto the scan.
func TestKeyedScanSnapshots(t *testing.T) {
	db := Open("snapshots", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO one VALUES (1, 10), (2, 20)")
	old, w, out := db.NewSession(), db.NewSession(), db.NewSession()
	defer old.Close()
	defer w.Close()
	defer out.Close()
	read := func(s *Session, k int) string {
		t.Helper()
		keyed := strings.Join(rowStrings(queryRowsSess(t, s, fmt.Sprintf("SELECT v FROM one WHERE k = %d", k))), ";")
		scan := strings.Join(rowStrings(queryRowsSess(t, s, fmt.Sprintf("SELECT v FROM one WHERE k + 0 = %d", k))), ";")
		if keyed != scan {
			t.Errorf("k = %d: keyed read %q, scan %q", k, keyed, scan)
		}
		return keyed
	}
	expect := func(who string, s *Session, want ...string) {
		t.Helper()
		for i, v := range want {
			if got := read(s, i+1); got != v {
				t.Errorf("%s reads k = %d as %q, want %q", who, i+1, got, v)
			}
		}
	}
	if line := scanLine(t, out, "SELECT v FROM one WHERE k = 1"); !strings.HasPrefix(line, "KeyedScan ") {
		t.Fatalf("the read is not keyed: %s", line)
	}
	mustSess := func(s *Session, sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustSess(old, "BEGIN")
	expect("the old snapshot", old, "10", "20", "")
	mustSess(w, "BEGIN")
	mustSess(w, "INSERT INTO one VALUES (3, 30)")
	mustSess(w, "UPDATE one SET v = 11 WHERE k = 1")
	mustSess(w, "DELETE FROM one WHERE k = 2")
	expect("the writer", w, "11", "", "30")
	expect("an outsider, before the commit,", out, "10", "20", "")
	mustSess(w, "COMMIT")
	expect("an outsider, after the commit,", out, "11", "", "30")
	expect("the old snapshot, after the commit,", old, "10", "20", "")
	mustSess(old, "COMMIT")
	expect("the old session, after its own commit,", old, "11", "", "30")
	// The key is inserted again: the new version hangs on the old chain.
	mustSess(w, "INSERT INTO one VALUES (2, 21)")
	expect("the writer, after inserting the key again,", w, "11", "21", "30")
}

// TestInsertSelectKeyedSource: INSERT ... SELECT whose source reads the
// target by key takes its rows before it writes any.
func TestInsertSelectKeyedSource(t *testing.T) {
	db := Open("insertselect", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO one VALUES (1, 10)")
	s := db.NewSession()
	defer s.Close()
	const src = "SELECT k + %d, v FROM one WHERE k IN (1, 2, 3, 4)"
	if line := scanLine(t, s, fmt.Sprintf(src, 1)); !strings.HasPrefix(line, "KeyedScan one[pk] keys=4") {
		t.Fatalf("the source is not keyed: %s", line)
	}
	// Reading its own output, round 1 would insert keys 2, 3, 4 and 5.
	for round, want := range []string{"1|10;2|10", "1|10;2|10;3|10;4|10"} {
		res, err := s.Exec("INSERT INTO one " + fmt.Sprintf(src, round+1))
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedLines(rowStrings(queryRowsSess(t, s, "SELECT k, v FROM one"))); got != want || res.RowsAffected != round+1 {
			t.Errorf("round %d: %d rows inserted, table %s; want %d and %s", round, res.RowsAffected, got, round+1, want)
		}
	}

	// The full scan, over several batches, stops at the rows of its open:
	// each row it read is inserted once, none of its own output again.
	mustExec(t, db, "INSERT INTO one SELECT g, 10 FROM generate_series(5, 2500) AS g")
	if line := scanLine(t, s, "SELECT k + 10000, v FROM one"); !strings.HasPrefix(line, "Scan one") {
		t.Fatalf("the source is not a full scan: %s", line)
	}
	res, err := s.Exec("INSERT INTO one SELECT k + 10000, v FROM one")
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrings(queryRowsSess(t, s, "SELECT COUNT(*), MIN(k), MAX(k) FROM one"))
	if want := "5000|1|12500"; res.RowsAffected != 2500 || got[0] != want {
		t.Errorf("full scan: %d rows inserted, table %s (rows, min, max); want 2500 and %s", res.RowsAffected, got[0], want)
	}
}

// TestSelfReadingWriteDoesNotDeadlock: an UPDATE or DELETE on the scan path
// whose predicate (or SET) reads its own table through a subquery fetches
// the subquery before it takes the table's write lock. At the parent every
// one of these statements hung.
func TestSelfReadingWriteDoesNotDeadlock(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		affected  int
		left      string
	}{
		{"delete, IN subquery", "DELETE FROM t WHERE k + 0 IN (SELECT k FROM t WHERE k < 3)", 2, "3|3"},
		{"update, IN subquery", "UPDATE t SET v = 0 WHERE k + 0 IN (SELECT k FROM t WHERE k < 3)", 2, "1|0;2|0;3|3"},
		{"delete, NOT IN subquery", "DELETE FROM t WHERE k NOT IN (SELECT k FROM t WHERE k < 3)", 1, "1|1;2|2"},
		{"delete, scalar subquery", "DELETE FROM t WHERE k + 0 = (SELECT MAX(k) FROM t)", 1, "1|1;2|2"},
		{"update, scalar subquery in SET", "UPDATE t SET v = (SELECT SUM(v) FROM t) WHERE k = 1", 1, "1|6;2|2;3|3"},
		{"update, subquery inside an expression", "UPDATE t SET v = v + 1 WHERE v > 0 AND (k = 9 OR k + 0 IN (SELECT k FROM t))", 3, "1|2;2|3;3|4"},
	} {
		for _, inTxn := range []bool{false, true} {
			db := Open("selfread", DialectDuckDB)
			mustExec(t, db, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
			mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
			s := db.NewSession()
			done := make(chan error, 1)
			go func() {
				if inTxn {
					if _, err := s.Exec("BEGIN"); err != nil {
						done <- err
						return
					}
				}
				res, err := s.Exec(c.sql)
				if err == nil && res.RowsAffected != c.affected {
					err = fmt.Errorf("%d rows affected, want %d", res.RowsAffected, c.affected)
				}
				if err == nil && inTxn {
					_, err = s.Exec("COMMIT")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s (in transaction: %v): %v", c.name, inTxn, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s (in transaction: %v): deadlock on the table's own lock", c.name, inTxn)
			}
			if got := sortedLines(rowStrings(queryRows(t, db, "SELECT k, v FROM t"))); got != c.left {
				t.Errorf("%s (in transaction: %v): table %s, want %s", c.name, inTxn, got, c.left)
			}
			s.Close()
		}
	}
}
