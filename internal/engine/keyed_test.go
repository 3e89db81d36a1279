package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// TestPinnedKey: which WHERE clauses resolve through the primary-key
// index, and with which key.
func TestPinnedKey(t *testing.T) {
	db := Open("keyed", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE one (k INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
	mustExec(t, db, "CREATE TABLE two (a INTEGER, b TEXT, v INTEGER, PRIMARY KEY (a, b))")
	mustExec(t, db, "CREATE TABLE none (k INTEGER, v INTEGER)")
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

		{"one", "k + 0 = 5", ""},
		{"one", "k = 2 + 3", ""},
		{"one", "k = 5 OR v = 1", ""},
		{"one", "NOT (k = 5)", ""},
		{"one", "k > 5", ""},
		{"one", "k = NULL", ""},
		{"one", "k = 'x'", ""},
		{"one", "k = $2", ""}, // a string bound against an integer key
		{"one", "k = v", ""},
		{"one", "v = 5", ""},
		{"two", "a = 1", ""},
		{"two", "a = 1 AND b = 2", ""},
		{"none", "k = 5", ""},
	}
	for _, c := range cases {
		stmt, err := sqlparser.Parse("DELETE FROM " + c.table + " WHERE " + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		tbl, err := db.Catalog().Table(c.table)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := s.newBinder().BindExprSchema(stmt.(*sqlparser.DeleteStmt).Where, tableSchema(tbl))
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		got := ""
		if key := pinnedKey(tbl, pred); key != nil {
			got = sqltypes.Row(key).String()
		}
		if got != c.want {
			t.Errorf("%s WHERE %s: pinned key %q, want %q", c.table, c.where, got, c.want)
		}
	}
}

// TestKeyedUpdateDeleteMatchesScan replays one random history — writes
// inside and outside transactions, commits and rollbacks, two sessions
// taking turns — on two engines. One receives UPDATE/DELETE statements
// whose WHERE pins the primary key, the other the same statements with
// the key column wrapped in an expression, which forces the scan. Row
// counts, errors and table contents must agree after every statement.
func TestKeyedUpdateDeleteMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		keyed, scan := Open("keyed", DialectDuckDB), Open("scan", DialectDuckDB)
		for _, db := range []*DB{keyed, scan} {
			mustExec(t, db, "CREATE TABLE kv (k INTEGER, g TEXT, v INTEGER, PRIMARY KEY (k, g))")
			mustExec(t, db, "CREATE INDEX kv_v ON kv (v)")
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
			switch p := rng.Intn(100); {
			case p < 25:
				sql := fmt.Sprintf("INSERT OR REPLACE INTO kv VALUES (%d, '%s', %d)", k, g, v)
				both(who, sql, sql)
			case p < 60:
				set := fmt.Sprintf("UPDATE kv SET v = %d WHERE ", v)
				if rng.Intn(6) == 0 { // moves the row to another key
					set = fmt.Sprintf("UPDATE kv SET k = %d, v = %d WHERE ", rng.Intn(5), v)
				}
				both(who, set+pin+residual, set+noPin+residual)
			case p < 80:
				both(who, "DELETE FROM kv WHERE "+pin+residual, "DELETE FROM kv WHERE "+noPin+residual)
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
