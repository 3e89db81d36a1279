package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/sqltypes"
)

func liftOne(t *testing.T, sql string) Lifted {
	t.Helper()
	ls, err := Lift(sql, true)
	if err != nil {
		t.Fatalf("Lift(%q): %v", sql, err)
	}
	if len(ls) != 1 {
		t.Fatalf("Lift(%q): %d statements, want 1", sql, len(ls))
	}
	return ls[0]
}

// TestLiftKeys pins which literals become slots and how the key writes
// them: values in WHERE, ON, SET and VALUES are lifted; literals that name
// a column, count rows or pick an ordinal stay in the key.
func TestLiftKeys(t *testing.T) {
	cases := []struct{ sql, key, params string }{
		{"SELECT v FROM t WHERE k = 5", "SELECT v FROM t WHERE k = ?i", "[5]"},
		{"select v from t where k = 'g0123' and x > -2.5", "SELECT v FROM t WHERE k = ?s AND x > ?f", "[g0123 -2.5]"},
		{"SELECT v FROM t WHERE k IN (1, 2, 3)", "SELECT v FROM t WHERE k IN ( ?i , ?i , ?i )", "[1 2 3]"},
		{"SELECT v FROM t WHERE k - 1 = 2", "SELECT v FROM t WHERE k - ?i = ?i", "[1 2]"},
		{"SELECT v FROM t WHERE k = -5::DOUBLE", "SELECT v FROM t WHERE k = - ?i :: DOUBLE", "[5]"},
		{"SELECT 1, 'a' AS x FROM t", "SELECT 1 , 'a' AS x FROM t", "[]"},
		{"SELECT g, COUNT(*) FROM t WHERE v > 0 GROUP BY 1 HAVING COUNT(*) > 2 ORDER BY 2 LIMIT 10 OFFSET 5",
			"SELECT g , COUNT ( * ) FROM t WHERE v > ?i GROUP BY 1 HAVING COUNT ( * ) > 2 ORDER BY 2 LIMIT 10 OFFSET 5", "[0]"},
		{"SELECT a FROM t JOIN u ON t.k = u.k AND u.w = 7", "SELECT a FROM t JOIN u ON t . k = u . k AND u . w = ?i", "[7]"},
		{"SELECT (SELECT MAX(v) FROM u WHERE u.k = 3) FROM t LIMIT 1", "SELECT ( SELECT MAX ( v ) FROM u WHERE u . k = ?i ) FROM t LIMIT 1", "[3]"},
		{"UPDATE t SET v = v + 1, s = 'x' WHERE k = 9", "UPDATE t SET v = v + ?i , s = ?s WHERE k = ?i", "[1 x 9]"},
		{"DELETE FROM t WHERE k BETWEEN 1 AND 4", "DELETE FROM t WHERE k BETWEEN ?i AND ?i", "[1 4]"},
		{"INSERT INTO t VALUES (1, 'a', 2.5), (-2, NULL, 3)", "INSERT INTO t VALUES ?risf", "[]"},
		{"INSERT INTO t (a, b) VALUES (1, 2) ON CONFLICT (a) DO UPDATE SET b = 3", "INSERT INTO t ( a , b ) VALUES ?rii ON CONFLICT ( a ) DO UPDATE SET b = ?i", "[3]"},
		{"INSERT INTO t VALUES (1, 2 + 3)", "INSERT INTO t VALUES ( ?i , ?i + ?i )", "[1 2 3]"},
		{"INSERT INTO t SELECT k, 1 FROM u WHERE k > 2", "INSERT INTO t SELECT k , 1 FROM u WHERE k > ?i", "[2]"},
		{"SELECT values, 5 FROM t", "SELECT VALUES , 5 FROM t", "[]"},
		{"SELECT v FROM t WHERE k = $1 AND w = 2", "SELECT v FROM t WHERE k = $1 AND w = 2", "[]"},
	}
	for _, c := range cases {
		l := liftOne(t, c.sql)
		if string(l.Key) != c.key {
			t.Errorf("%s:\n key %q\nwant %q", c.sql, l.Key, c.key)
		}
		var ps []string
		for _, v := range l.Params {
			ps = append(ps, v.String())
		}
		if got := "[" + strings.Join(ps, " ") + "]"; got != c.params {
			t.Errorf("%s: params %s, want %s", c.sql, got, c.params)
		}
		if _, err := l.Parse(); err != nil {
			t.Errorf("%s: Parse: %v", c.sql, err)
		}
	}
}

// TestLiftStatementKinds: only SELECT, INSERT, UPDATE and DELETE carry a
// key; every other statement keeps its literals and has none.
func TestLiftStatementKinds(t *testing.T) {
	ls, err := Lift("CREATE TABLE t (k INTEGER DEFAULT 5); REFRESH MATERIALIZED VIEW mv;; EXPLAIN SELECT * FROM t WHERE k = 1; BEGIN; SELECT * FROM t WHERE k = 1", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 5 {
		t.Fatalf("%d statements, want 5", len(ls))
	}
	for _, l := range ls[:4] {
		if l.Key != nil || l.Params != nil {
			t.Errorf("%q: key %q params %v, want neither", l.Text(), l.Key, l.Params)
		}
	}
	if string(ls[4].Key) != "SELECT * FROM t WHERE k = ?i" || ls[4].Text() != "SELECT * FROM t WHERE k = 1" {
		t.Errorf("last statement: key %q text %q", ls[4].Key, ls[4].Text())
	}
}

// TestLiftValuesOneSlot: a VALUES list of any length is one slot, decoded
// into rows, so statements that differ in their values and their row
// count share a key.
func TestLiftValuesOneSlot(t *testing.T) {
	a := liftOne(t, "INSERT INTO g VALUES (1,'g0001',10),(2,'g0002',-20)")
	b := liftOne(t, "insert into g values (7, 'x''y', 3)")
	if string(a.Key) != string(b.Key) {
		t.Fatalf("keys differ: %q vs %q", a.Key, b.Key)
	}
	if len(a.Rows) != 1 || len(a.Rows[0]) != 2 {
		t.Fatalf("rows %v", a.Rows)
	}
	want := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("g0001"), sqltypes.NewInt(10)},
		{sqltypes.NewInt(2), sqltypes.NewString("g0002"), sqltypes.NewInt(-20)},
	}
	for i, r := range a.Rows[0] {
		if fmt.Sprint(r) != fmt.Sprint(want[i]) {
			t.Errorf("row %d = %v, want %v", i, r, want[i])
		}
	}
	if got := b.Rows[0][0][1].S; got != "x'y" {
		t.Errorf("quoted string = %q", got)
	}
	st, err := a.Parse()
	if err != nil {
		t.Fatal(err)
	}
	vp := st.(*InsertStmt).Select.ValuesParam
	if vp == nil || vp.Index != 1 || fmt.Sprint(vp.Types) != "[INTEGER VARCHAR INTEGER]" {
		t.Errorf("ValuesParam = %+v", vp)
	}
	// Rows of unequal width, or a cell that is not a literal, lift cell by
	// cell instead.
	for sql, key := range map[string]string{
		"INSERT INTO g VALUES (1, 2), (3)":       "INSERT INTO g VALUES ( ?i , ?i ) , ( ?i )",
		"INSERT INTO g VALUES (1, k)":            "INSERT INTO g VALUES ( ?i , k )",
		"INSERT INTO g VALUES (1, '2'::INTEGER)": "INSERT INTO g VALUES ( ?i , ?s :: INTEGER )",
	} {
		if l := liftOne(t, sql); string(l.Key) != key || l.Rows != nil {
			t.Errorf("%s: key %q rows %v, want %q and no rows", sql, l.Key, l.Rows, key)
		}
	}
}

// TestLiftParseTypesSlots: a slot parses to a ParamExpr carrying the
// literal's kind; the user's $N carries none.
func TestLiftParseTypesSlots(t *testing.T) {
	st, err := func() (Statement, error) {
		l := liftOne(t, "SELECT * FROM t WHERE a = 1 AND b = 2.5 AND c = 'x'")
		return l.Parse()
	}()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	WalkExpr(st.(*SelectStmt).Where, func(e Expr) bool {
		if p, ok := e.(*ParamExpr); ok {
			got = append(got, fmt.Sprintf("$%d:%s", p.Index, p.Type))
		}
		return true
	})
	if want := "[$1:INTEGER $2:DOUBLE $3:VARCHAR]"; fmt.Sprint(got) != want {
		t.Errorf("slots %v, want %s", got, want)
	}
	st, err = Parse("SELECT * FROM t WHERE a = $1")
	if err != nil {
		t.Fatal(err)
	}
	if p := st.(*SelectStmt).Where.(*BinaryExpr).Right.(*ParamExpr); p.Type != sqltypes.TypeNull {
		t.Errorf("user parameter typed %s", p.Type)
	}
}

// TestLiftErrorsMatchParse: a lifted statement the parser rejects fails
// with the message the verbatim text gets.
func TestLiftErrorsMatchParse(t *testing.T) {
	for _, sql := range []string{
		"SELECT * FROM t WHERE k = 1 1",
		"INSERT INTO t VALUES (1) (2)",
		"DELETE FROM t WHERE",
		"UPDATE t SET v = 1e999",
	} {
		_, want := Parse(sql)
		l := liftOne(t, sql)
		_, got := l.Parse()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\n lifted   %v\n verbatim %v", sql, got, want)
		}
	}
}

// adhocInsert is a 25-row write of the shape the embedded-agg workload
// sends (about 450 bytes).
func adhocInsert() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO groups VALUES ")
	for i := 0; i < 25; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,'g%04d',%d)", 100000+i*37, i*13%1000, i*7919%100000)
	}
	return sb.String()
}

// BenchmarkTokenize lexes the 25-row INSERT: what a plan-cache miss pays
// before the parse proper.
func BenchmarkTokenize(b *testing.B) {
	sql := adhocInsert()
	b.SetBytes(int64(len(sql)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLift lifts the 25-row INSERT: all the text handling a
// plan-cache hit pays.
func BenchmarkLift(b *testing.B) {
	sql := adhocInsert()
	b.SetBytes(int64(len(sql)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Lift(sql, true); err != nil {
			b.Fatal(err)
		}
	}
}
