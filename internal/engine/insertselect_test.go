package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestInsertSelectColumnarSink: INSERT ... SELECT over a filtered,
// projected source lands exactly the rows the SELECT returns, with
// coercion and NOT NULL validation intact.
func TestInsertSelectColumnarSink(t *testing.T) {
	db := Open("vs", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE src (k INTEGER, v DOUBLE, s TEXT)")
	var b strings.Builder
	b.WriteString("INSERT INTO src VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d.5, 's%d')", i, i, i%7)
	}
	mustExec(t, db, b.String())

	// Identity mapping over a projection pipeline.
	mustExec(t, db, "CREATE TABLE dst (k INTEGER, v DOUBLE)")
	mustExec(t, db, "INSERT INTO dst SELECT k + 1, v * 2 FROM src WHERE k % 3 = 0")
	want := mustExec(t, db, "SELECT COUNT(*), SUM(k + 1), SUM(v * 2) FROM src WHERE k % 3 = 0").Rows[0]
	got := mustExec(t, db, "SELECT COUNT(*), SUM(k), SUM(v) FROM dst").Rows[0]
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("INSERT ... SELECT diverged: got %v, want %v", got, want)
		}
	}

	// Type coercion across the sink: float source values into an INTEGER
	// column.
	mustExec(t, db, "CREATE TABLE di (k INTEGER)")
	mustExec(t, db, "INSERT INTO di SELECT v FROM src WHERE k < 10")
	if n := mustExec(t, db, "SELECT COUNT(*) FROM di").Rows[0][0].I; n != 10 {
		t.Fatalf("coerced insert landed %d rows, want 10", n)
	}

	// NOT NULL violations stop the statement like InsertBatch.
	mustExec(t, db, "CREATE TABLE strict (k INTEGER NOT NULL)")
	mustExec(t, db, "CREATE TABLE holes (k INTEGER)")
	mustExec(t, db, "INSERT INTO holes VALUES (1), (NULL), (2)")
	if _, err := db.Exec("INSERT INTO strict SELECT k FROM holes WHERE k IS NULL OR k > 0"); err == nil {
		t.Fatal("NOT NULL violation slipped through INSERT ... SELECT")
	}
}

// TestInsertSelectColumnarPKDuplicate: a duplicate primary key fails the
// streamed insert whole — the rows before it do not stay.
func TestInsertSelectColumnarPKDuplicate(t *testing.T) {
	db := Open("vs", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE src (k INTEGER, v INTEGER)")
	mustExec(t, db, "INSERT INTO src VALUES (1, 10), (2, 20), (2, 21), (3, 30)")
	mustExec(t, db, "CREATE TABLE pkd (k INTEGER, v INTEGER, PRIMARY KEY (k))")
	if _, err := db.Exec("INSERT INTO pkd SELECT k, v FROM src WHERE v >= 0"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if res := mustExec(t, db, "SELECT k FROM pkd ORDER BY k"); len(res.Rows) != 0 {
		t.Fatalf("the failed statement kept rows %v", res.Rows)
	}
}

// TestInsertSelectColumnarRollback: the streamed sink's per-batch undo
// entries must fully revert under ROLLBACK, compensating triggers
// included.
func TestInsertSelectColumnarRollback(t *testing.T) {
	db := Open("vs", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE src (k INTEGER)")
	var b strings.Builder
	b.WriteString("INSERT INTO src VALUES (0)")
	for i := 1; i < 3000; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	mustExec(t, db, b.String())
	mustExec(t, db, "CREATE TABLE dst (k INTEGER)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO dst SELECT k + 100 FROM src WHERE k % 2 = 0")
	mustExec(t, db, "ROLLBACK")
	if n := mustExec(t, db, "SELECT COUNT(*) FROM dst").Rows[0][0].I; n != 0 {
		t.Fatalf("rollback left %d rows in dst", n)
	}
}
