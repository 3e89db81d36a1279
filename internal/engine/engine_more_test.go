package engine

import (
	"strings"
	"testing"

	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// Additional engine coverage: DDL paths, error paths, upserts.

func TestCreateIndexViaSQL(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE INDEX gi ON groups (group_index)")
	tbl, _ := db.Catalog().Table("groups")
	ki, ok := tbl.KeyIndexOn([]int{tbl.ColumnPos("group_index")})
	if !ok || ki.Name != "gi" {
		t.Fatalf("index missing: %+v", ki)
	}
	rows, _ := tbl.ProbeKeys(mvcc.Snapshot{}, ki, []sqltypes.Row{{sqltypes.NewString("g1")}}, []int{0}, nil)
	if len(rows) != 5 {
		t.Fatalf("lookup = %d rows", len(rows))
	}
}

func TestCreateUniqueIndexViolationViaSQL(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE UNIQUE INDEX gu ON groups (group_index)"); err == nil {
		t.Fatal("unique index over duplicate values should fail")
	}
}

func TestCreateIndexUnknownTable(t *testing.T) {
	db := Open("t", DialectDuckDB)
	if _, err := db.Exec("CREATE INDEX i ON missing (a)"); err == nil {
		t.Fatal("unknown table should fail")
	}
}

// TestExplainNonSelect: EXPLAIN of a statement that has no plan — DDL,
// TRUNCATE — reports it unsupported; an INSERT explains its source.
func TestExplainNonSelect(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{"EXPLAIN CREATE TABLE x (a INTEGER)", "EXPLAIN TRUNCATE groups"} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("%s should report unsupported", sql)
		}
	}
	res, err := db.Exec("EXPLAIN INSERT INTO groups VALUES ('x', 1)")
	if err != nil || len(res.Rows) < 2 || res.Rows[0][0].S != "Insert groups" {
		t.Fatalf("EXPLAIN INSERT … VALUES: %v, %v", res, err)
	}
}

func TestUpsertWithoutPKFails(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if _, err := db.Exec("INSERT OR REPLACE INTO t VALUES (1)"); err == nil {
		t.Fatal("INSERT OR REPLACE without a primary key must fail")
	}
}

func TestOnConflictWithoutPKFails(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	if _, err := db.Exec("INSERT INTO t VALUES (1) ON CONFLICT (a) DO NOTHING"); err == nil {
		// DO NOTHING without PK: no conflict possible, plain insert; this
		// is acceptable behaviour, but DO UPDATE must fail.
		if _, err := db.Exec("INSERT INTO t VALUES (1) ON CONFLICT (a) DO UPDATE SET a = 2"); err == nil {
			t.Fatal("ON CONFLICT DO UPDATE without PK must fail")
		}
	}
}

func TestRefreshWithoutExtension(t *testing.T) {
	db := Open("t", DialectDuckDB)
	if _, err := db.Exec("REFRESH MATERIALIZED VIEW v"); err == nil ||
		!strings.Contains(err.Error(), "IVM extension") {
		t.Fatalf("err = %v", err)
	}
}

func TestScalarSubqueryMultiRowErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT (SELECT group_value FROM groups) FROM groups"); err == nil {
		t.Fatal("multi-row scalar subquery must error")
	}
}

func TestApplyDeltaRow(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	var events int
	db.AddTrigger("t", "tr", []TriggerEvent{TrigInsert, TrigDelete},
		func(_ *Session, _ string, _ TriggerEvent, _, _ []sqltypes.Row) error {
			events++
			return nil
		})
	s := db.NewSession()
	defer s.Close()
	row := sqltypes.Row{sqltypes.NewInt(7)}
	if err := s.ApplyDeltaRow("t", row, true); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDeltaRow("t", row, false); err != nil {
		t.Fatal(err)
	}
	if events != 2 {
		t.Fatalf("trigger events = %d", events)
	}
	if err := s.ApplyDeltaRow("t", row, false); err == nil {
		t.Fatal("deleting a missing row must error")
	}
	tbl, _ := db.Catalog().Table("t")
	if tbl.RowCount() != 0 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
}

func TestSplitStatementsNested(t *testing.T) {
	parts := splitStatements(`INSERT INTO v WITH c AS (SELECT 1; ) SELECT * FROM c; DELETE FROM v`)
	// The semicolon inside parens must not split.
	if len(parts) != 2 {
		t.Fatalf("parts = %q", parts)
	}
}

func TestFormatEmptyResult(t *testing.T) {
	r := &Result{}
	if out := r.Format(); out != "" {
		t.Fatalf("empty format = %q", out)
	}
}

func TestUpdateUnknownColumn(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("UPDATE groups SET nope = 1"); err == nil {
		t.Fatal("unknown SET column must fail")
	}
}

func TestDeleteUnknownTable(t *testing.T) {
	db := Open("t", DialectDuckDB)
	if _, err := db.Exec("DELETE FROM missing"); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestBareDoubleRollback(t *testing.T) {
	s := Open("t", DialectDuckDB).NewSession()
	defer s.Close()
	if _, err := s.Exec("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK without BEGIN must fail")
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN must fail")
	}
}

func TestTriggerErrorAborts(t *testing.T) {
	db := testDB(t)
	db.AddTrigger("groups", "boom", []TriggerEvent{TrigInsert},
		func(_ *Session, _ string, _ TriggerEvent, _, _ []sqltypes.Row) error {
			return errBoom
		})
	if _, err := db.Exec("INSERT INTO groups VALUES ('x', 1)"); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

var errBoom = &boomErr{}

type boomErr struct{}

func (*boomErr) Error() string { return "boom" }

func TestRollbackUpsertRestoresOld(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT OR REPLACE INTO t VALUES ('a', 99), ('b', 2)")
	mustExec(t, db, "ROLLBACK")
	rows := queryRows(t, db, "SELECT k, v FROM t ORDER BY k")
	if len(rows) != 1 || rows[0][1].I != 1 {
		t.Fatalf("rollback of upsert failed: %v", rows)
	}
}

// ApplyDeltaRow replays one captured delta row: ApplyDeltaBatch with a
// batch of one.
func (s *Session) ApplyDeltaRow(table string, row sqltypes.Row, mult bool) error {
	return s.ApplyDeltaBatch(table, []sqltypes.Row{row}, []bool{mult})
}
