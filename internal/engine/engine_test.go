package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"openivm/internal/sqltypes"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open("test", DialectDuckDB)
	mustExec(t, db, `CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO groups VALUES ('g%d', %d)", i%4, i))
	}
	return db
}

// sessions holds the session each test database's statements run on
// (mustExec, queryRows, sess): one per database, so a transaction carries
// from one statement to the next.
var sessions sync.Map // *DB -> *Session

// sess returns the session t's statements on db run on.
func sess(t *testing.T, db *DB) *Session {
	if s, ok := sessions.Load(db); ok {
		return s.(*Session)
	}
	s := db.NewSession()
	sessions.Store(db, s)
	t.Cleanup(func() {
		sessions.Delete(db)
		s.Close()
	})
	return s
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	r, err := sess(t, db).Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func queryRows(t *testing.T, db *DB, sql string) []sqltypes.Row {
	t.Helper()
	return mustExec(t, db, sql).Rows
}

func sortedStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT * FROM groups")
	if len(rows) != 20 {
		t.Fatalf("got %d rows", len(rows))
	}
	if len(rows[0]) != 2 {
		t.Fatalf("width = %d", len(rows[0]))
	}
}

func TestSelectWhere(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT group_value FROM groups WHERE group_value >= 15")
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestSelectExpression(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT group_value * 2 + 1 FROM groups WHERE group_value = 3")
	if len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("got %v", rows)
	}
}

// TestCoalesceStopsAtFirstNonNull: the arguments to the right of
// COALESCE's first non-NULL one are not evaluated, as PostgreSQL documents,
// so a cast that would fail there does not fail the statement. A row whose
// earlier arguments are all NULL still evaluates the cast, and fails.
func TestCoalesceStopsAtFirstNonNull(t *testing.T) {
	db := testDB(t)
	if rows := queryRows(t, db, "SELECT COALESCE(1, CAST('abc' AS INTEGER))"); len(rows) != 1 || rows[0][0].String() != "1" {
		t.Fatalf("literal: got %v, want 1", rows)
	}
	mustExec(t, db, "CREATE TABLE c (k INTEGER, s VARCHAR)")
	mustExec(t, db, "INSERT INTO c VALUES (1, 'abc'), (NULL, '7')")
	rows := queryRows(t, db, "SELECT COALESCE(k, CAST(s AS INTEGER)) FROM c")
	if got := strings.Join(sortedStrings(rows), ","); got != "1,7" {
		t.Fatalf("column: got %s, want 1,7", got)
	}
	mustExec(t, db, "INSERT INTO c VALUES (NULL, 'abc')")
	if _, err := sess(t, db).Exec("SELECT COALESCE(k, CAST(s AS INTEGER)) FROM c"); err == nil {
		t.Fatal("a NULL k with s = 'abc' evaluated the cast without an error")
	}
}

func TestGroupBySum(t *testing.T) {
	db := testDB(t)
	r := mustExec(t, db, `SELECT group_index, SUM(group_value) AS total
		FROM groups GROUP BY group_index ORDER BY group_index`)
	if len(r.Rows) != 4 {
		t.Fatalf("got %d groups", len(r.Rows))
	}
	// group g0: 0+4+8+12+16 = 40
	if r.Rows[0][0].S != "g0" || r.Rows[0][1].I != 40 {
		t.Errorf("g0 = %v", r.Rows[0])
	}
	if r.Columns[1] != "total" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestGroupByCountMinMaxAvg(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `SELECT group_index, COUNT(*), MIN(group_value),
		MAX(group_value), AVG(group_value) FROM groups GROUP BY group_index ORDER BY 1`)
	if len(rows) != 4 {
		t.Fatalf("got %d", len(rows))
	}
	r := rows[1] // g1: 1,5,9,13,17
	if r[1].I != 5 || r[2].I != 1 || r[3].I != 17 || r[4].Float() != 9 {
		t.Errorf("g1 = %v", r)
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT COUNT(*), SUM(group_value) FROM groups")
	if len(rows) != 1 || rows[0][0].I != 20 || rows[0][1].I != 190 {
		t.Fatalf("got %v", rows)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE e (a INTEGER)")
	rows := queryRows(t, db, "SELECT COUNT(*), SUM(a) FROM e")
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Fatalf("got %v", rows)
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `SELECT group_index, SUM(group_value) AS s FROM groups
		GROUP BY group_index HAVING SUM(group_value) > 45 ORDER BY 1`)
	// sums: g0=40 g1=45 g2=50 g3=55
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
}

func TestAggExprOverAggregate(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `SELECT group_index, SUM(group_value) / COUNT(*) FROM groups
		GROUP BY group_index ORDER BY 1`)
	if len(rows) != 4 || rows[0][1].I != 8 {
		t.Fatalf("got %v", rows)
	}
}

func TestOrderByDescLimitOffset(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT group_value FROM groups ORDER BY group_value DESC LIMIT 3 OFFSET 1")
	if len(rows) != 3 || rows[0][0].I != 18 || rows[2][0].I != 16 {
		t.Fatalf("got %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT DISTINCT group_index FROM groups")
	if len(rows) != 4 {
		t.Fatalf("got %d", len(rows))
	}
}

func TestJoinInner(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (id INTEGER, v VARCHAR)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, w VARCHAR)")
	mustExec(t, db, "INSERT INTO a VALUES (1,'x'),(2,'y'),(3,'z')")
	mustExec(t, db, "INSERT INTO b VALUES (2,'Y'),(3,'Z'),(4,'W')")
	rows := queryRows(t, db, "SELECT a.v, b.w FROM a JOIN b ON a.id = b.id ORDER BY a.v")
	if len(rows) != 2 || rows[0][0].S != "y" || rows[0][1].S != "Y" {
		t.Fatalf("got %v", rows)
	}
}

func TestJoinLeft(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, w VARCHAR)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, db, "INSERT INTO b VALUES (2,'match')")
	rows := queryRows(t, db, "SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
	if !rows[0][1].IsNull() {
		t.Errorf("unmatched left row should have NULL: %v", rows[0])
	}
	if rows[1][1].S != "match" {
		t.Errorf("matched row: %v", rows[1])
	}
}

func TestJoinRightAndFull(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, db, "INSERT INTO b VALUES (2),(3)")
	rows := queryRows(t, db, "SELECT a.id, b.id FROM a RIGHT JOIN b ON a.id = b.id")
	if len(rows) != 2 {
		t.Fatalf("right join: %v", rows)
	}
	rows = queryRows(t, db, "SELECT a.id, b.id FROM a FULL OUTER JOIN b ON a.id = b.id")
	if len(rows) != 3 {
		t.Fatalf("full join: %v", rows)
	}
}

func TestJoinCross(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (y INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, db, "INSERT INTO b VALUES (10),(20),(30)")
	rows := queryRows(t, db, "SELECT * FROM a CROSS JOIN b")
	if len(rows) != 6 {
		t.Fatalf("got %d", len(rows))
	}
}

func TestJoinNullKeysDontMatch(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (id INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (NULL),(1)")
	mustExec(t, db, "INSERT INTO b VALUES (NULL),(1)")
	rows := queryRows(t, db, "SELECT * FROM a JOIN b ON a.id = b.id")
	if len(rows) != 1 {
		t.Fatalf("NULL keys must not join: %v", rows)
	}
}

func TestJoinUsing(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (id INTEGER, v INTEGER)")
	mustExec(t, db, "CREATE TABLE b (id INTEGER, w INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 10)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 20)")
	rows := queryRows(t, db, "SELECT v, w FROM a JOIN b USING (id)")
	if len(rows) != 1 || rows[0][0].I != 10 || rows[0][1].I != 20 {
		t.Fatalf("got %v", rows)
	}
}

func TestThetaJoin(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "CREATE TABLE b (y INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(5)")
	mustExec(t, db, "INSERT INTO b VALUES (3),(4)")
	rows := queryRows(t, db, "SELECT * FROM a JOIN b ON a.x < b.y")
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
}

func TestCTE(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `WITH totals AS (
		SELECT group_index, SUM(group_value) AS s FROM groups GROUP BY group_index)
		SELECT COUNT(*) FROM totals WHERE s > 40`)
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("got %v", rows)
	}
}

func TestCTEAliased(t *testing.T) {
	db := testDB(t)
	// The exact alias pattern from paper Listing 2: FROM ivm_cte AS delta_x.
	rows := queryRows(t, db, `WITH ivm_cte AS (SELECT group_index FROM groups)
		SELECT delta_groups.group_index FROM ivm_cte AS delta_groups LIMIT 1`)
	if len(rows) != 1 {
		t.Fatalf("got %v", rows)
	}
}

func TestSetOps(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE a (x INTEGER)")
	mustExec(t, db, "INSERT INTO a VALUES (1),(2),(2),(3)")
	rows := queryRows(t, db, "SELECT x FROM a UNION SELECT 2")
	if len(rows) != 3 {
		t.Fatalf("UNION: %v", rows)
	}
	rows = queryRows(t, db, "SELECT x FROM a UNION ALL SELECT 2")
	if len(rows) != 5 {
		t.Fatalf("UNION ALL: %v", rows)
	}
	rows = queryRows(t, db, "SELECT x FROM a EXCEPT SELECT 2")
	if len(rows) != 2 {
		t.Fatalf("EXCEPT: %v", rows)
	}
	rows = queryRows(t, db, "SELECT x FROM a INTERSECT SELECT 2")
	if len(rows) != 1 {
		t.Fatalf("INTERSECT: %v", rows)
	}
}

func TestSubqueryTable(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `SELECT s FROM (SELECT SUM(group_value) AS s FROM groups
		GROUP BY group_index) AS sub WHERE s > 45`)
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, "SELECT group_value FROM groups WHERE group_value = (SELECT MAX(group_value) FROM groups)")
	if len(rows) != 1 || rows[0][0].I != 19 {
		t.Fatalf("got %v", rows)
	}
}

func TestInSubquery(t *testing.T) {
	db := testDB(t)
	rows := queryRows(t, db, `SELECT COUNT(*) FROM groups WHERE group_value IN (SELECT group_value FROM groups WHERE group_value < 3)`)
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("got %v", rows)
	}
}

func TestPlainView(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE VIEW v AS SELECT group_index, SUM(group_value) AS s FROM groups GROUP BY group_index")
	rows := queryRows(t, db, "SELECT * FROM v WHERE s = 40")
	if len(rows) != 1 || rows[0][0].S != "g0" {
		t.Fatalf("got %v", rows)
	}
}

func TestValuesSelect(t *testing.T) {
	db := Open("t", DialectDuckDB)
	rows := queryRows(t, db, "VALUES (1, 'a'), (2, 'b')")
	if len(rows) != 2 || rows[1][1].S != "b" {
		t.Fatalf("got %v", rows)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := Open("t", DialectDuckDB)
	rows := queryRows(t, db, "SELECT 1 + 1, 'x'")
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("got %v", rows)
	}
}

func TestInsertColumnsAndDefaults(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b VARCHAR DEFAULT 'dflt', c DOUBLE)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	rows := queryRows(t, db, "SELECT * FROM t")
	if rows[0][1].S != "dflt" || !rows[0][2].IsNull() {
		t.Fatalf("got %v", rows)
	}
}

func TestInsertSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE copy2 (gi VARCHAR, gv INTEGER)")
	r := mustExec(t, db, "INSERT INTO copy2 SELECT * FROM groups WHERE group_value < 5")
	if r.RowsAffected != 5 {
		t.Fatalf("affected = %d", r.RowsAffected)
	}
}

func TestInsertOrReplace(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	mustExec(t, db, "INSERT OR REPLACE INTO t VALUES ('a', 2), ('b', 3)")
	rows := queryRows(t, db, "SELECT v FROM t ORDER BY k")
	if len(rows) != 2 || rows[0][0].I != 2 || rows[1][0].I != 3 {
		t.Fatalf("got %v", rows)
	}
}

func TestInsertOnConflictDoUpdate(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 10) ON CONFLICT (k) DO UPDATE SET v = t.v + EXCLUDED.v")
	rows := queryRows(t, db, "SELECT v FROM t")
	if len(rows) != 1 || rows[0][0].I != 11 {
		t.Fatalf("got %v", rows)
	}
}

func TestInsertOnConflictDoNothing(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 99) ON CONFLICT (k) DO NOTHING")
	rows := queryRows(t, db, "SELECT v FROM t")
	if rows[0][0].I != 1 {
		t.Fatalf("got %v", rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	r := mustExec(t, db, "UPDATE groups SET group_value = group_value + 100 WHERE group_index = 'g0'")
	if r.RowsAffected != 5 {
		t.Fatalf("update affected %d", r.RowsAffected)
	}
	rows := queryRows(t, db, "SELECT SUM(group_value) FROM groups WHERE group_index = 'g0'")
	if rows[0][0].I != 540 {
		t.Fatalf("got %v", rows)
	}
	r = mustExec(t, db, "DELETE FROM groups WHERE group_value >= 100")
	if r.RowsAffected != 5 {
		t.Fatalf("delete affected %d", r.RowsAffected)
	}
}

func TestTruncate(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "TRUNCATE TABLE groups")
	rows := queryRows(t, db, "SELECT COUNT(*) FROM groups")
	if rows[0][0].I != 0 {
		t.Fatalf("got %v", rows)
	}
}

func TestTransactionsRollback(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO groups VALUES ('tx', 999)")
	mustExec(t, db, "UPDATE groups SET group_value = 0 WHERE group_index = 'g0'")
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 'g1'")
	mustExec(t, db, "ROLLBACK")
	rows := queryRows(t, db, "SELECT COUNT(*), SUM(group_value) FROM groups")
	if rows[0][0].I != 20 || rows[0][1].I != 190 {
		t.Fatalf("rollback incomplete: %v", rows)
	}
}

func TestTransactionsCommit(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO groups VALUES ('tx', 999)")
	mustExec(t, db, "COMMIT")
	rows := queryRows(t, db, "SELECT COUNT(*) FROM groups")
	if rows[0][0].I != 21 {
		t.Fatalf("got %v", rows)
	}
	if _, err := sess(t, db).Exec("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN should fail")
	}
}

// TestTriggers pins trigger delivery. A handler runs on the writer's
// session inside the writer's transaction, before it commits: the session
// sees the write, another one does not yet. An autocommit statement's
// events arrive when its write ends; an explicit transaction's wait for
// COMMIT, where a run of consecutive INSERT (or DELETE) events on one table
// is one call with the rows in statement order, and UPDATE events arrive
// one by one.
func TestTriggers(t *testing.T) {
	db := testDB(t)
	other := db.NewSession()
	defer other.Close()
	state := func(s *Session) string {
		res, err := s.Exec("SELECT COUNT(*), SUM(group_value) FROM groups")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].String()
	}
	keys := func(rows []sqltypes.Row) string {
		var ks []string
		for _, r := range rows {
			ks = append(ks, fmt.Sprintf("%s=%d", r[0].S, r[1].I))
		}
		return strings.Join(ks, ",")
	}
	var events []string
	db.AddTrigger("groups", "trc", []TriggerEvent{TrigInsert, TrigDelete, TrigUpdate},
		func(s *Session, table string, ev TriggerEvent, oldR, newR []sqltypes.Row) error {
			if !s.InTxn() || state(s) == state(other) {
				t.Errorf("%s delivered outside the writer's transaction or after its commit", ev)
			}
			events = append(events, fmt.Sprintf("%s:%s>%s", ev, keys(oldR), keys(newR)))
			return nil
		})
	mustExec(t, db, "INSERT INTO groups VALUES ('t', 1)")
	mustExec(t, db, "UPDATE groups SET group_value = 2 WHERE group_index = 't'")
	mustExec(t, db, "DELETE FROM groups WHERE group_index = 't'")
	want := []string{"INSERT:>t=1", "UPDATE:t=1>t=2", "DELETE:t=2>"}
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", events, want)
	}

	events = nil
	for _, sql := range []string{
		"BEGIN",
		"INSERT INTO groups VALUES ('t', 1)",
		"INSERT INTO groups VALUES ('u', 2), ('v', 3)",
		"UPDATE groups SET group_value = 4 WHERE group_index = 't'",
		"UPDATE groups SET group_value = 5 WHERE group_index = 't'",
		"DELETE FROM groups WHERE group_index = 'u'",
		"DELETE FROM groups WHERE group_index = 'v'",
		"INSERT INTO groups VALUES ('w', 6)",
	} {
		mustExec(t, db, sql)
	}
	if len(events) != 0 {
		t.Fatalf("events before COMMIT = %v", events)
	}
	mustExec(t, db, "COMMIT")
	want = []string{"INSERT:>t=1,u=2,v=3", "UPDATE:t=1>t=4", "UPDATE:t=4>t=5", "DELETE:u=2,v=3>", "INSERT:>w=6"}
	if strings.Join(events, " ") != strings.Join(want, " ") {
		t.Fatalf("events at COMMIT = %v, want %v", events, want)
	}
}

func TestTriggerViaSQL(t *testing.T) {
	db := testDB(t)
	n := 0
	db.RegisterTriggerHandler("counter", func(_ *Session, _ string, _ TriggerEvent, _, _ []sqltypes.Row) error {
		n++
		return nil
	})
	mustExec(t, db, "CREATE TRIGGER tg AFTER INSERT ON groups FOR EACH ROW EXECUTE 'counter'")
	mustExec(t, db, "INSERT INTO groups VALUES ('x', 1)")
	if n != 1 {
		t.Fatalf("trigger fired %d times", n)
	}
}

func TestExplain(t *testing.T) {
	db := testDB(t)
	r := mustExec(t, db, "EXPLAIN SELECT group_index, SUM(group_value) FROM groups WHERE group_value > 2 GROUP BY group_index")
	text := ""
	for _, row := range r.Rows {
		text += row[0].S + "\n"
	}
	for _, want := range []string{"Project", "HashAggregate", "Scan groups"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
}

func TestExecScript(t *testing.T) {
	db := Open("t", DialectDuckDB)
	r, err := db.Exec(`
		CREATE TABLE t (a INTEGER);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].I != 3 {
		t.Fatalf("got %v", r.Rows)
	}
}

func TestSplitStatements(t *testing.T) {
	parts := splitStatements("SELECT 'a;b'; SELECT 2; ")
	if len(parts) != 2 || !strings.Contains(parts[0], "a;b") {
		t.Fatalf("got %v", parts)
	}
}

func TestMaterializedViewWithoutExtension(t *testing.T) {
	db := testDB(t)
	_, err := db.Exec("CREATE MATERIALIZED VIEW mv AS SELECT group_index FROM groups")
	if err == nil || !strings.Contains(err.Error(), "IVM extension") {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateTableAsSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE summary AS SELECT group_index, SUM(group_value) AS s FROM groups GROUP BY group_index")
	rows := queryRows(t, db, "SELECT COUNT(*) FROM summary")
	if rows[0][0].I != 4 {
		t.Fatalf("got %v", rows)
	}
}

func TestErrorsSurface(t *testing.T) {
	db := testDB(t)
	for _, bad := range []string{
		"SELECT nope FROM groups",
		"SELECT * FROM missing",
		"INSERT INTO groups VALUES (1)",
		"SELECT group_index FROM groups GROUP BY group_value",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should fail", bad)
		}
	}
}

func TestResultFormat(t *testing.T) {
	db := testDB(t)
	r := mustExec(t, db, "SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index ORDER BY 1 LIMIT 1")
	s := r.Format()
	if !strings.Contains(s, "group_index") || !strings.Contains(s, "g0") {
		t.Fatalf("format:\n%s", s)
	}
}

func TestCaseCoalesceEndToEnd(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE m (mult BOOLEAN, v INTEGER)")
	mustExec(t, db, "INSERT INTO m VALUES (TRUE, 10), (FALSE, 3), (TRUE, 5)")
	rows := queryRows(t, db, `SELECT SUM(CASE WHEN mult = FALSE THEN -v ELSE v END) FROM m`)
	if rows[0][0].I != 12 {
		t.Fatalf("got %v", rows)
	}
	rows = queryRows(t, db, "SELECT COALESCE(NULL, 7)")
	if rows[0][0].I != 7 {
		t.Fatalf("got %v", rows)
	}
}

// TestNumberRepros: distinct BIGINTs above 2^53 stay distinct in
// comparisons, keys, groups and DISTINCT, and NaN equals NaN and sorts
// above every other number, in filters and ORDER BY alike.
func TestNumberRepros(t *testing.T) {
	db := Open("numbers", DialectDuckDB)
	for _, sql := range []string{
		"CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO p VALUES (9007199254740992, 1)",
		"INSERT INTO p VALUES (9007199254740993, 2)",
		"CREATE TABLE g (k INTEGER, v INTEGER)",
		"INSERT INTO g VALUES (9007199254740992, 1), (9007199254740993, 2)",
		"CREATE TABLE f (k DOUBLE)",
		"INSERT INTO f VALUES (CAST('NaN' AS DOUBLE)), (2.0), (CAST('NaN' AS DOUBLE)), (1.0)",
	} {
		mustExec(t, db, sql)
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT 9007199254740993 = 9007199254740992", "false"},
		{"SELECT 9223372036854775807 < CAST(9223372036854775807 AS DOUBLE)", "true"},
		{"SELECT id, v FROM p ORDER BY id", "9007199254740992|1 9007199254740993|2"},
		{"SELECT k, SUM(v), COUNT(*) FROM g GROUP BY k ORDER BY k", "9007199254740992|1|1 9007199254740993|2|1"},
		{"SELECT DISTINCT k FROM g ORDER BY k", "9007199254740992 9007199254740993"},
		{"SELECT CAST('NaN' AS DOUBLE) = 1.0", "false"},
		{"SELECT CAST('NaN' AS DOUBLE) = CAST('NaN' AS DOUBLE)", "true"},
		{"SELECT COUNT(*) FROM f WHERE k = CAST('NaN' AS DOUBLE)", "2"},
		{"SELECT COUNT(*) FROM f WHERE k > 1000000.0", "2"},
		{"SELECT k FROM f ORDER BY k", "1.0 2.0 NaN NaN"},
	} {
		if got := strings.Join(sortedStrings(queryRows(t, db, c.sql)), " "); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}
