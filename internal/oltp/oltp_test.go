package oltp

import (
	"testing"

	"openivm/internal/sqltypes"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s := New("pg")
	if _, err := s.DB.Exec("CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCapture("orders"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCaptureInsert(t *testing.T) {
	s := newStore(t)
	if _, err := s.DB.Exec("INSERT INTO orders VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingDeltas("orders"); n != 2 {
		t.Fatalf("pending = %d", n)
	}
	rows, err := s.DrainDeltas("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !rows[0][2].IsTrue() {
		t.Fatalf("rows = %v", rows)
	}
	if s.PendingDeltas("orders") != 0 {
		t.Error("drain did not clear")
	}
}

func TestCaptureDeleteUpdate(t *testing.T) {
	s := newStore(t)
	s.DB.Exec("INSERT INTO orders VALUES (1, 10)")
	s.DrainDeltas("orders")

	s.DB.Exec("UPDATE orders SET amount = 15 WHERE oid = 1")
	rows, _ := s.DrainDeltas("orders")
	if len(rows) != 2 {
		t.Fatalf("update should capture 2 rows, got %d", len(rows))
	}
	var sawOld, sawNew bool
	for _, r := range rows {
		if !r[2].IsTrue() && r[1].I == 10 {
			sawOld = true
		}
		if r[2].IsTrue() && r[1].I == 15 {
			sawNew = true
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("update pair wrong: %v", rows)
	}

	s.DB.Exec("DELETE FROM orders WHERE oid = 1")
	rows, _ = s.DrainDeltas("orders")
	if len(rows) != 1 || rows[0][2].IsTrue() {
		t.Fatalf("delete capture wrong: %v", rows)
	}
}

// TestCaptureMultiRowUpdateOrder: one multi-row UPDATE lands in the delta
// table as the statement's old rows (FALSE) followed by its new rows
// (TRUE), each in statement order — the layout ivm.DeltaRows builds and
// capture appends as a single batch.
func TestCaptureMultiRowUpdateOrder(t *testing.T) {
	s := newStore(t)
	s.DB.Exec("INSERT INTO orders VALUES (1, 10), (2, 20), (3, 30)")
	s.DrainDeltas("orders")

	if _, err := s.DB.Exec("UPDATE orders SET amount = amount + 1"); err != nil {
		t.Fatal(err)
	}
	rows, err := s.DrainDeltas("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("captured %d rows, want 3 FALSE + 3 TRUE: %v", len(rows), rows)
	}
	for i, r := range rows {
		oid, newRow := int64(i%3+1), i >= 3
		amount := oid * 10
		if newRow {
			amount++
		}
		if r[0].I != oid || r[1].I != amount || r[2].IsTrue() != newRow {
			t.Fatalf("delta row %d = %v, want (%d, %d, %v); all: %v", i, r, oid, amount, newRow, rows)
		}
	}
}

func TestPostgresDialectUpsert(t *testing.T) {
	s := newStore(t)
	s.DB.Exec("INSERT INTO orders VALUES (1, 10)")
	if _, err := s.DB.Exec("INSERT INTO orders VALUES (1, 99) ON CONFLICT (oid) DO UPDATE SET amount = EXCLUDED.amount"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.DB.Exec("SELECT amount FROM orders WHERE oid = 1")
	if r.Rows[0][0].I != 99 {
		t.Fatalf("got %v", r.Rows)
	}
}

func TestCaptureWithoutDeltaTableErrors(t *testing.T) {
	s := New("pg")
	s.DB.Exec("CREATE TABLE t (a INTEGER)")
	// Trigger attached manually without creating the delta table.
	if _, err := s.DB.Exec("CREATE TRIGGER bad AFTER INSERT ON t FOR EACH ROW EXECUTE 'ivm_capture'"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("capture without delta table should fail loudly")
	}
}

func TestTransactionalWorkload(t *testing.T) {
	s := newStore(t)
	if _, err := s.DB.Exec("BEGIN"); err == nil {
		t.Fatal("a transaction left open by DB.Exec must be reported")
	}
	if _, err := s.DB.Exec("BEGIN; INSERT INTO orders VALUES (10, 100); COMMIT"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.DB.Exec("SELECT COUNT(*) FROM orders")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("got %v", r.Rows)
	}
}

func TestTableColumns(t *testing.T) {
	s := newStore(t)
	cols, err := s.TableColumns("orders")
	if err != nil || len(cols) != 2 || cols[0].Name != "oid" {
		t.Fatalf("cols = %v, %v", cols, err)
	}
	if _, err := s.TableColumns("missing"); err == nil {
		t.Error("missing table should error")
	}
}

func TestPGTypeMapping(t *testing.T) {
	cases := map[sqltypes.Type]string{
		sqltypes.TypeString: "TEXT",
		sqltypes.TypeFloat:  "DOUBLE PRECISION",
		sqltypes.TypeBool:   "BOOLEAN",
		sqltypes.TypeInt:    "INTEGER",
	}
	for ty, want := range cases {
		if got := pgType(ty); got != want {
			t.Errorf("pgType(%v) = %q, want %q", ty, got, want)
		}
	}
}
