package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// TestPinnedKeys: which WHERE clauses — and DELETE … USING forms — resolve
// through the primary-key index, and with which keys ("-" is the scan).
func TestPinnedKeys(t *testing.T) {
	db := Open("keyed", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
	mustExec(t, db, "CREATE TABLE two (a INTEGER, b TEXT, v INTEGER, PRIMARY KEY (a, b))")
	mustExec(t, db, "CREATE TABLE none (k INTEGER, v INTEGER)")
	mustExec(t, db, "CREATE TABLE nulk (k INTEGER, v INTEGER, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO nulk VALUES (1, 0), (NULL, 0)")
	mustExec(t, db, "CREATE TABLE pick (a INTEGER, b TEXT, f DOUBLE)")
	mustExec(t, db, "INSERT INTO pick VALUES (1, 'x', 1.0), (2, 'y', 2.5), (1, 'x', 1.0), (NULL, 'z', NULL), (3, NULL, 3.0)")
	s := db.NewSession()
	s.BindParams([]sqltypes.Value{sqltypes.NewInt(9), sqltypes.NewString("z")})

	cases := []struct {
		table, where, want string
	}{
		{"one", "k = 5", "5"},
		{"one", "5 = k", "5"},
		{"one", "k = 5.0", "5.0"},
		{"one", "k = 5 AND v > 1", "5"},
		{"one", "v > 1 AND (s = 'x' AND k = 5)", "5"},
		{"one", "k = $1", "9"},
		{"one", "k = 5 AND k = 6", "5"}, // the predicate itself rejects the row
		{"two", "a = 1 AND b = 'x'", "1|x"},
		{"two", "b = $2 AND v = 3 AND a = $1", "9|z"},

		// A key set: an IN list, or the rows of an IN subquery — duplicates
		// kept (storage visits a key once), NULLs dropped (they equal no key).
		{"one", "k IN (5, 7, 5)", "5|7|5"},
		{"one", "k IN (5, NULL, $1) AND v = 0", "5|9"},
		{"one", "k IN (NULL)", ""},
		{"one", "k IN (SELECT a FROM pick)", "1|2|1|3"},
		{"one", "v = 0 AND k IN (SELECT a FROM pick WHERE a > 5)", ""},
		{"one", "k IN (SELECT f FROM pick)", "1.0|2.5|1.0|3.0"},
		{"one", "k IN (SELECT a FROM pick) AND k IN (1, 2)", "1|2|1|3"}, // the first IN that pins wins; the other stays a residual
		{"one", "k = 2 AND k IN (SELECT a FROM pick)", "2"},
		{"two", "(a, b) IN (SELECT a, b FROM pick)", "1|x|2|y|1|x"},
		{"two", "(b, a) IN (SELECT b, a FROM pick) AND v > 0", "1|x|2|y|1|x"},

		// The NULL-safe spelling, DELETE … USING … IS NOT DISTINCT FROM: a
		// NULL in the set is a key like any other, which the index finds
		// (nulk holds one).
		{"one", "USING (SELECT a FROM pick) AS p WHERE one.k IS NOT DISTINCT FROM p.a AND v = 0", "1|2|1|NULL|3"},
		{"one", "USING (SELECT a FROM pick WHERE a > 1) AS p WHERE p.a IS NOT DISTINCT FROM k", "2|3"},
		{"two", "USING (SELECT a, b FROM pick) AS p WHERE two.a IS NOT DISTINCT FROM p.a AND two.b IS NOT DISTINCT FROM p.b AND v = 0", "1|x|2|y|1|x|NULL|z|3|NULL"},
		{"two", "USING (SELECT a, b FROM pick) AS p WHERE p.b IS NOT DISTINCT FROM b AND v = 0 AND p.a IS NOT DISTINCT FROM a", "1|x|2|y|1|x|NULL|z|3|NULL"},
		{"nulk", "k IN (SELECT a FROM pick) AND v = 0", "1|2|1|3"},
		{"nulk", "USING (SELECT a FROM pick) AS p WHERE nulk.k IS NOT DISTINCT FROM p.a AND v = 0", "1|2|1|NULL|3"},
		{"one", "USING (SELECT b FROM pick) AS p WHERE one.k IS NOT DISTINCT FROM p.b", "-"}, // strings against an integer key: found at run time
		{"two", "USING (SELECT a FROM pick) AS p WHERE two.a IS NOT DISTINCT FROM p.a", "-"}, // part of the key
		{"none", "USING (SELECT a FROM pick) AS p WHERE none.k IS NOT DISTINCT FROM p.a", "-"},

		{"one", "k + 0 = 5", "-"},
		{"one", "k = 2 + 3", "5"}, // a constant expression pins like a literal
		{"one", "k = 5 OR v = 1", "-"},
		{"one", "NOT (k = 5)", "-"},
		{"one", "k > 5", "-"},
		{"one", "k = NULL", "-"},
		{"one", "k = 'x'", "-"},
		{"one", "k = $2", "-"}, // a string bound against an integer key
		{"one", "k = v", "-"},
		{"one", "v = 5", "-"},
		{"two", "a = 1", "-"},
		{"two", "a = 1 AND b = 2", "-"},
		{"none", "k = 5", "-"},
		{"one", "k NOT IN (5, 7)", "-"},
		{"one", "k IN (5, 'x')", "-"},
		{"one", "k IN (5, v)", "-"},
		{"one", "v IN (5, 7)", "-"},
		{"one", "k NOT IN (SELECT a FROM pick)", "-"},
		{"one", "k IN (SELECT b FROM pick)", "-"}, // strings against an integer key: found at run time
		{"one", "k + 0 IN (SELECT a FROM pick)", "-"},
		{"one", "k IN (SELECT a FROM pick) OR v = 1", "-"},
		{"one", "k IN (SELECT a FROM pick) OR v IS NULL", "-"},
		{"one", "k IN (SELECT a FROM pick) OR k IS NOT NULL", "-"},
		// A NULL disjunct is a disjunction like any other: the scan.
		{"one", "(k IN (SELECT a FROM pick) OR k IS NULL) AND v = 0", "-"},
		{"one", "k IS NULL OR k IN (5, 7)", "-"},
		{"two", "((a, b) IN (SELECT a, b FROM pick) OR a IS NULL OR b IS NULL) AND v = 0", "-"},
		{"one", "k IN (1, 2) OR k IN (3) OR k IS NULL", "-"},
		{"one", "((k IN (1) OR k IS NULL) OR (k IN (2) OR k IS NULL)) OR k IN (3)", "-"},
		{"one", "k IS NULL", "-"},
		{"nulk", "(k IN (SELECT a FROM pick) OR k IS NULL) AND v = 0", "-"},
		{"two", "a IN (SELECT a FROM pick)", "-"},
		{"two", "(a, v) IN (SELECT a, a FROM pick)", "-"},
		{"two", "(a, a) IN (SELECT a, a FROM pick)", "-"},
		{"none", "k IN (SELECT a FROM pick)", "-"},
	}
	for _, c := range cases {
		clause := c.where
		if !strings.HasPrefix(clause, "USING ") {
			clause = "WHERE " + clause
		}
		stmt, err := sqlparser.Parse("DELETE FROM " + c.table + " " + clause)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		tbl, err := db.Catalog().Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := s.newBinder(nil, &s.params).BindExprSchema(stmt.(*sqlparser.DeleteStmt).Where, tableSchema(tbl))
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		keys, err := plan.PinnedKeys(tbl, pred).Resolve(tbl)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		got := "-"
		if keys != nil {
			got = sqltypes.Row(keys).String()
		}
		if got != c.want {
			t.Errorf("%s WHERE %s: keys %q, want %q", c.table, c.where, got, c.want)
		}
	}
}

// TestExplainWrite: EXPLAIN of an UPDATE or DELETE says how the rows are
// found, from the function the executor asks, and runs nothing.
func TestExplainWrite(t *testing.T) {
	db := Open("explain", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "CREATE TABLE cust_totals (region TEXT, cid INTEGER, n INTEGER, PRIMARY KEY (region, cid))")
	mustExec(t, db, "CREATE TABLE big_orders (oid INTEGER, amount INTEGER)")
	mustExec(t, db, "CREATE TABLE delta (region TEXT, cid INTEGER, oid INTEGER)")
	mustExec(t, db, "CREATE TABLE nulls (g INTEGER, n INTEGER, PRIMARY KEY (g))")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 10), (2, 1, 20)")
	mustExec(t, db, "INSERT INTO nulls VALUES (1, 0), (NULL, 0)")
	for _, c := range []struct{ sql, want string }{
		{"DELETE FROM orders WHERE oid IN (SELECT oid FROM delta) AND amount = 0", "KeyedDelete orders[pk] keys=IN(subquery)"},
		{"DELETE FROM cust_totals WHERE (region, cid) IN (SELECT region, cid FROM delta) AND n = 0", "KeyedDelete cust_totals[pk] keys=IN(subquery)"},
		{"UPDATE orders SET amount = 0 WHERE oid = 2", "KeyedUpdate orders[pk] keys=1"},
		{"UPDATE orders SET amount = 0 WHERE oid IN (1, 2, 3)", "KeyedUpdate orders[pk] keys=3"},
		{"DELETE FROM cust_totals USING (SELECT region, cid FROM delta) AS d WHERE cust_totals.region IS NOT DISTINCT FROM d.region AND cust_totals.cid IS NOT DISTINCT FROM d.cid AND n = 0", "KeyedDelete cust_totals[pk] keys=IN(subquery)"},
		{"DELETE FROM nulls USING (SELECT cid FROM delta) AS d WHERE nulls.g IS NOT DISTINCT FROM d.cid AND n = 0", "KeyedDelete nulls[pk] keys=IN(subquery)"},
		{"DELETE FROM nulls WHERE g IN (SELECT cid FROM delta) AND n = 0", "KeyedDelete nulls[pk] keys=IN(subquery)"},
		{"DELETE FROM cust_totals WHERE cid = 4 AND region = 'eu'", "KeyedDelete cust_totals[pk] keys=1"},
		// The fall-backs: negated IN, part of the key, a value of the wrong
		// kind, a table without a key, a disjunction (NULL-keyed rows asked
		// for through OR g IS NULL), no predicate at all.
		{"DELETE FROM orders WHERE oid NOT IN (SELECT oid FROM delta)", "ScanDelete orders"},
		{"DELETE FROM cust_totals WHERE cid IN (SELECT cid FROM delta)", "ScanDelete cust_totals"},
		{"UPDATE cust_totals SET n = 0 WHERE region = 'eu'", "ScanUpdate cust_totals"},
		{"UPDATE orders SET amount = 0 WHERE oid = 'two'", "ScanUpdate orders"},
		{"DELETE FROM orders WHERE oid IN (1, 'two')", "ScanDelete orders"},
		{"DELETE FROM big_orders WHERE oid IN (SELECT oid FROM delta)", "ScanDelete big_orders"},
		{"DELETE FROM big_orders WHERE amount = 0", "ScanDelete big_orders"},
		{"DELETE FROM nulls WHERE (g IN (SELECT cid FROM delta) OR g IS NULL) AND n = 0", "ScanDelete nulls"},
		{"UPDATE orders SET amount = 0", "ScanUpdate orders"},
		{"DELETE FROM orders", "Truncate orders"},
	} {
		rows := queryRows(t, db, "EXPLAIN "+c.sql)
		if len(rows) != 1 || rows[0][0].S != c.want {
			t.Errorf("EXPLAIN %s:\n got %v\nwant %s", c.sql, rows, c.want)
		}
	}
	if got := queryRows(t, db, "SELECT COUNT(*) FROM orders"); got[0][0].I != 2 {
		t.Errorf("EXPLAIN changed the table: %v rows left", got[0][0])
	}
	if _, err := db.Exec("EXPLAIN DELETE FROM missing WHERE k = 1"); err == nil {
		t.Error("EXPLAIN on an unknown table should fail")
	}
	if _, err := db.Exec("EXPLAIN TRUNCATE orders"); err == nil {
		t.Error("EXPLAIN TRUNCATE should be refused")
	}
}

// TestExplainInsert: EXPLAIN of an INSERT prints `Insert t` — `Upsert t`
// when it replaces on conflict — above its source's plan, and runs
// nothing.
func TestExplainInsert(t *testing.T) {
	db := Open("explain", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "CREATE TABLE big (oid INTEGER PRIMARY KEY, amount INTEGER)")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 300), (2, 1, 20)")
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"INSERT INTO big SELECT oid, amount FROM orders WHERE oid = 1",
			[]string{"Insert big", "  Project oid, amount", "    KeyedScan orders[pk] keys=1 [filter: (oid = 1)]"}},
		{"INSERT OR REPLACE INTO big SELECT oid, amount FROM orders WHERE amount >= 250",
			[]string{"Upsert big", "  Project oid, amount", "    Scan orders [filter: (amount >= 250)]"}},
	} {
		var got []string
		for _, r := range queryRows(t, db, "EXPLAIN "+c.sql) {
			got = append(got, r[0].S)
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("EXPLAIN %s:\n got %q\nwant %q", c.sql, got, c.want)
		}
	}
	if got := queryRows(t, db, "SELECT COUNT(*) FROM big"); got[0][0].I != 0 {
		t.Errorf("EXPLAIN INSERT wrote %v rows", got[0][0])
	}
	if _, err := db.Exec("EXPLAIN INSERT INTO missing SELECT oid FROM orders"); err == nil {
		t.Error("EXPLAIN INSERT into an unknown table should fail")
	}
	up := Open("explain_upsert", DialectDuckDB)
	mustExec(t, up, "CREATE TABLE big (oid INTEGER PRIMARY KEY, amount INTEGER)")
	for sql, want := range map[string]string{
		"INSERT INTO big VALUES (1, 2) ON CONFLICT (oid) DO UPDATE SET amount = EXCLUDED.amount": "Upsert big",
		"INSERT INTO big VALUES (1, 2) ON CONFLICT DO NOTHING":                                   "Insert big",
	} {
		if got := queryRows(t, up, "EXPLAIN "+sql); got[0][0].S != want {
			t.Errorf("EXPLAIN %s: %v, want %s on top", sql, got, want)
		}
	}
}

// TestKeySetWrites: DELETE and UPDATE confined by a key set touch exactly
// the rows the same statement finds by scanning — with duplicate and NULL
// keys in the set, a residual conjunct that rejects a candidate, another
// session's open snapshot, and a ROLLBACK.
func TestKeySetWrites(t *testing.T) {
	db := Open("keyset", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE v (g INTEGER, h TEXT, n INTEGER, PRIMARY KEY (g, h))")
	mustExec(t, db, "CREATE TABLE dv (g INTEGER, h TEXT, m BOOLEAN)")
	mustExec(t, db, "INSERT INTO v VALUES (1,'a',0), (1,'b',0), (2,'a',3), (3,'a',0), (4,'a',0), (5,'a',7)")
	// ΔV-shaped: a TRUE and a FALSE row per touched group, NULL keys, a key
	// V does not hold, and (4,'a') left out — its n = 0 must survive.
	mustExec(t, db, "INSERT INTO dv VALUES (1,'a',TRUE), (1,'a',FALSE), (2,'a',TRUE), (2,'a',FALSE), (3,'a',FALSE), (NULL,'a',TRUE), (5,NULL,TRUE), (9,'z',TRUE)")
	const dump = "SELECT g, h, n FROM v ORDER BY g, h"
	const step3 = "DELETE FROM v WHERE (g, h) IN (SELECT g, h FROM dv) AND n = 0"
	if got := queryRows(t, db, "EXPLAIN "+step3); got[0][0].S != "KeyedDelete v[pk] keys=IN(subquery)" {
		t.Fatalf("step 3 is not keyed: %v", got)
	}

	reader, writer := db.NewSession(), db.NewSession()
	if _, err := reader.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := sortedLines(rowStrings(queryRowsSess(t, reader, dump)))

	// Inside BEGIN … ROLLBACK: the transaction sees its delete, nobody else
	// does, and the rollback restores the rows.
	if _, err := writer.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	res, err := writer.Exec(step3)
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("keyed delete: %v rows, %v; want (1,a) and (3,a)", res, err)
	}
	if got, want := sortedLines(rowStrings(queryRowsSess(t, writer, dump))), "1|b|0;2|a|3;4|a|0;5|a|7"; got != want {
		t.Errorf("inside the transaction: %s, want %s", got, want)
	}
	if got := sortedLines(rowStrings(queryRows(t, db, dump))); got != before {
		t.Errorf("uncommitted delete visible outside: %s", got)
	}
	if _, err := writer.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := sortedLines(rowStrings(queryRows(t, db, dump))); got != before {
		t.Errorf("after ROLLBACK: %s, want %s", got, before)
	}

	// Autocommit, under the reader's open snapshot: the reader keeps its
	// view, a new statement sees the delete.
	if res := mustExec(t, db, step3); res.RowsAffected != 2 {
		t.Errorf("keyed delete affected %d rows, want 2", res.RowsAffected)
	}
	if got := sortedLines(rowStrings(queryRowsSess(t, reader, dump))); got != before {
		t.Errorf("open snapshot moved: %s, want %s", got, before)
	}
	if got, want := sortedLines(rowStrings(queryRows(t, db, dump))), "1|b|0;2|a|3;4|a|0;5|a|7"; got != want {
		t.Errorf("after the delete: %s, want %s", got, want)
	}
	// Run again: the keys now name retired versions and rows the residual
	// rejects; nothing is left to delete.
	if res := mustExec(t, db, step3); res.RowsAffected != 0 {
		t.Errorf("second keyed delete affected %d rows, want 0", res.RowsAffected)
	}

	// UPDATE over the same set: (2,a) is listed twice and updated once.
	res = mustExec(t, db, "UPDATE v SET n = n + 1 WHERE (g, h) IN (SELECT g, h FROM dv) AND n > 0")
	if res.RowsAffected != 1 {
		t.Errorf("keyed update affected %d rows, want 1", res.RowsAffected)
	}
	if got, want := sortedLines(rowStrings(queryRows(t, db, dump))), "1|b|0;2|a|4;4|a|0;5|a|7"; got != want {
		t.Errorf("after the update: %s, want %s", got, want)
	}
	if _, err := reader.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}

	// A statement that reads the table it writes through its key subquery
	// (it used to deadlock on the table lock).
	res = mustExec(t, db, "DELETE FROM v WHERE (g, h) IN (SELECT g, h FROM v WHERE n = 0)")
	if res.RowsAffected != 2 {
		t.Errorf("self-referencing keyed delete affected %d rows, want 2", res.RowsAffected)
	}
}

// TestDeleteUsing: DELETE … USING … IS NOT DISTINCT FROM deletes the rows
// whose key equals a row of the USING subquery's, a NULL key component
// matching a NULL, through the key index, and keeps every row a residual
// condition on the target rejects; on a table without a key it scans and
// deletes the same rows. Any other shape is refused with 0A000 and
// deletes nothing.
func TestDeleteUsing(t *testing.T) {
	db := Open("using", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE v (g INTEGER, h TEXT, n INTEGER, PRIMARY KEY (g, h))")
	mustExec(t, db, "CREATE TABLE one (k TEXT, n INTEGER, PRIMARY KEY (k))")
	mustExec(t, db, "CREATE TABLE bare (k TEXT, n INTEGER)")
	mustExec(t, db, "CREATE TABLE dv (g INTEGER, h TEXT, m BOOLEAN)")
	mustExec(t, db, "INSERT INTO v VALUES (1,'a',0), (1,NULL,0), (NULL,'a',0), (NULL,NULL,0), (2,'a',3), (NULL,'b',5), (3,'a',0)")
	mustExec(t, db, "INSERT INTO one VALUES ('a',0), (NULL,0), ('b',1)")
	mustExec(t, db, "INSERT INTO bare VALUES ('a',0), (NULL,0), (NULL,0), ('b',1)")
	// Retractions (m = FALSE) name (1,a), (1,NULL), (NULL,NULL), (2,a) and
	// (NULL,b); an insertion names (3,a).
	mustExec(t, db, "INSERT INTO dv VALUES (1,'a',FALSE), (1,NULL,FALSE), (NULL,NULL,FALSE), (NULL,NULL,FALSE), (2,'a',FALSE), (NULL,'b',FALSE), (3,'a',TRUE)")
	dump := func(table string) string { return sortedLines(rowStrings(queryRows(t, db, "SELECT * FROM "+table))) }
	for _, c := range []struct{ sql, explain, left string }{
		// Composite key, a residual on the target: (2,a) and (NULL,b) hold n > 0.
		{"DELETE FROM v USING (SELECT g, h FROM dv WHERE m = FALSE) AS d WHERE v.g IS NOT DISTINCT FROM d.g AND h IS NOT DISTINCT FROM d.h AND n = 0",
			"KeyedDelete v[pk] keys=IN(subquery)", "2|a|3;3|a|0;NULL|a|0;NULL|b|5"},
		// A single key, the NULL key among the keys.
		{"DELETE FROM one USING (SELECT k FROM bare) AS b WHERE b.k IS NOT DISTINCT FROM one.k AND one.n = 0",
			"KeyedDelete one[pk] keys=IN(subquery)", "b|1"},
		// No key to probe: the scan, which finds the same rows, every copy.
		{"DELETE FROM bare USING (SELECT k FROM one WHERE n = 1 UNION ALL SELECT NULL) AS o WHERE bare.k IS NOT DISTINCT FROM o.k",
			"ScanDelete bare", "a|0"},
	} {
		table := strings.Fields(c.sql)[2]
		if got := queryRows(t, db, "EXPLAIN "+c.sql); got[0][0].S != c.explain {
			t.Errorf("EXPLAIN %s: %v, want %s", c.sql, got, c.explain)
		}
		mustExec(t, db, c.sql)
		if got := dump(table); got != c.left {
			t.Errorf("%s leaves %s, want %s", c.sql, got, c.left)
		}
	}
	for _, bad := range []string{
		"DELETE FROM v USING (SELECT g, h FROM dv) AS d WHERE v.g = d.g AND v.h = d.h",
		"DELETE FROM v USING (SELECT g, h, m FROM dv) AS d WHERE v.g IS NOT DISTINCT FROM d.g AND v.h IS NOT DISTINCT FROM d.h AND d.m = FALSE",
		"DELETE FROM v USING (SELECT g, h FROM dv) WHERE v.g IS NOT DISTINCT FROM g",
	} {
		before := dump("v")
		if _, err := db.Exec(bad); Code(err) != "0A000" {
			t.Errorf("%s: %v (SQLSTATE %q), want 0A000", bad, err, Code(err))
		}
		if got := dump("v"); got != before {
			t.Errorf("%s deleted rows: %s, was %s", bad, got, before)
		}
	}
}

// TestDeleteUsingNamesResolveInside: the IN that a USING over a plain
// projection becomes reads the projection's FROM and WHERE in place, and a
// name in them still resolves to that FROM alone, never to the target: k
// in the WHERE is d.k (v.k would keep v's 1), and n, a column of v only,
// is unknown there.
func TestDeleteUsingNamesResolveInside(t *testing.T) {
	db := Open("using", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE v (k INTEGER PRIMARY KEY, n INTEGER)")
	mustExec(t, db, "CREATE TABLE d (k INTEGER, m INTEGER)")
	mustExec(t, db, "INSERT INTO v VALUES (1,10), (2,20), (3,30)")
	mustExec(t, db, "INSERT INTO d VALUES (1,2), (3,1)")
	dump := func() string { return sortedLines(rowStrings(queryRows(t, db, "SELECT * FROM v"))) }
	if _, err := db.Exec("DELETE FROM v USING (SELECT m AS k FROM d WHERE n > 0) AS x WHERE v.k IS NOT DISTINCT FROM x.k"); err == nil {
		t.Errorf("a name of the target resolved inside the USING subquery: v is %s", dump())
	}
	mustExec(t, db, "DELETE FROM v USING (SELECT m AS k FROM d WHERE k > 1) AS x WHERE v.k IS NOT DISTINCT FROM x.k")
	if got, want := dump(), "2|20;3|30"; got != want {
		t.Errorf("v is %s, want %s", got, want)
	}
}

// TestKeyedUpdateDeleteMatchesScan replays one random history — writes
// inside and outside transactions, commits and rollbacks, two sessions
// taking turns — on two engines. One receives UPDATE/DELETE statements
// whose WHERE pins the primary key — one key with `=`, or a set through
// `(k, g) IN (SELECT ...)` over a table of picked keys holding duplicates
// and NULLs, or, for a DELETE, matched NULL-safely through `USING (SELECT
// k, g FROM pick) AS p WHERE kv.k IS NOT DISTINCT FROM p.k …` while the
// table now and then holds a NULL key — the other the same statements with the key column
// wrapped in an expression, which forces the scan (COALESCE to a value no
// key takes stands for the NULL-safe match). Row counts, errors and table
// contents must agree after every statement.
func TestKeyedUpdateDeleteMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		keyed, scan := Open("keyed", DialectDuckDB), Open("scan", DialectDuckDB)
		for _, db := range []*DB{keyed, scan} {
			mustExec(t, db, "CREATE TABLE kv (k INTEGER, g TEXT, v INTEGER, PRIMARY KEY (k, g))")
			mustExec(t, db, "CREATE INDEX kv_v ON kv (v)")
			mustExec(t, db, "CREATE TABLE pick (k INTEGER, g TEXT)")
		}
		ks := []*Session{keyed.NewSession(), keyed.NewSession()}
		ss := []*Session{scan.NewSession(), scan.NewSession()}
		inTxn := []bool{false, false}

		both := func(who int, keyedSQL, scanSQL string) {
			t.Helper()
			kr, kerr := ks[who].Exec(keyedSQL)
			sr, serr := ss[who].Exec(scanSQL)
			if (kerr == nil) != (serr == nil) {
				t.Fatalf("trial %d: %q -> %v, but %q -> %v", trial, keyedSQL, kerr, scanSQL, serr)
			}
			if kerr != nil {
				if IsSerializationError(kerr) != IsSerializationError(serr) {
					t.Fatalf("trial %d: %q -> %v, but %q -> %v", trial, keyedSQL, kerr, scanSQL, serr)
				}
				return
			}
			if kr.RowsAffected != sr.RowsAffected {
				t.Fatalf("trial %d: %q affected %d rows, %q affected %d", trial, keyedSQL, kr.RowsAffected, scanSQL, sr.RowsAffected)
			}
			// Each session's own view, open transaction included.
			const dump = "SELECT k, g, v FROM kv ORDER BY k, g"
			if got, want := rowStrings(queryRowsSess(t, ks[who], dump)), rowStrings(queryRowsSess(t, ss[who], dump)); sortedLines(got) != sortedLines(want) {
				t.Fatalf("trial %d after %q:\n keyed %v\n scan  %v", trial, keyedSQL, got, want)
			}
		}

		for step := 0; step < 60; step++ {
			who := rng.Intn(2)
			k, g, v := rng.Intn(5), string(rune('a'+rng.Intn(2))), rng.Intn(4)
			pin := fmt.Sprintf("k = %d AND g = '%s'", k, g)
			noPin := fmt.Sprintf("k + 0 = %d AND g = '%s'", k, g)
			residual := ""
			if rng.Intn(3) == 0 {
				residual = fmt.Sprintf(" AND v <> %d", rng.Intn(4))
			}
			del, delScan := "DELETE FROM kv WHERE "+pin, "DELETE FROM kv WHERE "+noPin
			if rng.Intn(4) == 0 { // a key set instead of one key
				pin = "(k, g) IN (SELECT k, g FROM pick)"
				noPin = "(k + 0, g) IN (SELECT k, g FROM pick)"
				del, delScan = "DELETE FROM kv WHERE "+pin, "DELETE FROM kv WHERE "+noPin
				if rng.Intn(2) == 0 { // NULL-safe: the NULL-keyed rows too
					del = "DELETE FROM kv USING (SELECT k, g FROM pick) AS p WHERE kv.k IS NOT DISTINCT FROM p.k AND kv.g IS NOT DISTINCT FROM p.g"
					delScan = "DELETE FROM kv WHERE (COALESCE(k, -1), COALESCE(g, '-')) IN (SELECT COALESCE(k, -1), COALESCE(g, '-') FROM pick)"
				}
			}
			switch p := rng.Intn(100); {
			case p < 10:
				sql := "DELETE FROM pick"
				if rng.Intn(3) > 0 {
					sql = fmt.Sprintf("INSERT INTO pick VALUES (%d, '%s'), (%d, 'a'), (NULL, 'b'), (%d, NULL)", k, g, rng.Intn(5), k)
				}
				both(who, sql, sql)
			case p < 25:
				sql := fmt.Sprintf("INSERT OR REPLACE INTO kv VALUES (%d, '%s', %d)", k, g, v)
				if rng.Intn(8) == 0 {
					sql = fmt.Sprintf("INSERT OR REPLACE INTO kv VALUES (NULL, '%s', %d)", g, v)
				}
				both(who, sql, sql)
			case p < 60:
				set := fmt.Sprintf("UPDATE kv SET v = %d WHERE ", v)
				if rng.Intn(6) == 0 { // moves the row to another key
					set = fmt.Sprintf("UPDATE kv SET k = %d, v = %d WHERE ", rng.Intn(5), v)
				}
				both(who, set+pin+residual, set+noPin+residual)
			case p < 80:
				both(who, del+residual, delScan+residual)
			case p < 90 && !inTxn[who]:
				both(who, "BEGIN", "BEGIN")
				inTxn[who] = true
			case inTxn[who]:
				end := "COMMIT"
				if rng.Intn(3) == 0 {
					end = "ROLLBACK"
				}
				both(who, end, end)
				inTxn[who] = false
			}
		}
	}
}

func queryRowsSess(t *testing.T, s *Session, sql string) []sqltypes.Row {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// TestNegativeZeroIsOneKey: 0 and -0.0 are equal, so a DOUBLE primary key
// holds one of them, GROUP BY puts both in one group, a hash join matches
// them and a key probe for either finds the other.
func TestNegativeZeroIsOneKey(t *testing.T) {
	db := Open("zero", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE d (k DOUBLE PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO d VALUES (0.0, 1)")
	if _, err := sess(t, db).Exec("INSERT INTO d VALUES (-0.0, 2)"); err == nil {
		t.Error("-0.0 entered a DOUBLE primary key beside 0.0")
	}
	if got := queryRows(t, db, "SELECT COUNT(*) FROM d"); got[0][0].I != 1 {
		t.Errorf("COUNT(*) = %v, want 1", got)
	}
	if got := queryRows(t, db, "SELECT v FROM d WHERE k = -0.0"); len(got) != 1 || got[0][0].I != 1 {
		t.Errorf("keyed read of -0.0 = %v, want the row of 0.0", got)
	}
	mustExec(t, db, "CREATE TABLE g (x DOUBLE, v INTEGER)")
	mustExec(t, db, "INSERT INTO g VALUES (0.0, 1), (-0.0, 2)")
	if got := queryRows(t, db, "SELECT COUNT(*), SUM(v) FROM g GROUP BY x"); len(got) != 1 || got[0].String() != "2|3" {
		t.Errorf("GROUP BY over 0.0 and -0.0 = %v, want one group 2|3", got)
	}
	if got := queryRows(t, db, "SELECT COUNT(*) FROM g AS a JOIN g AS b ON a.x = b.x"); got[0][0].I != 4 {
		t.Errorf("self-join on 0.0 and -0.0 = %v, want 4", got)
	}
}
