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
	if _, err := s.DB.Exec(CaptureSQL("orders", []string{"oid INTEGER", "amount INTEGER"})); err != nil {
		t.Fatal(err)
	}
	return s
}

// drain removes and returns the captured delta rows of orders.
func drain(t *testing.T, s *Store) []sqltypes.Row {
	t.Helper()
	sess := s.DB.NewSession()
	defer sess.Close()
	rows, err := sess.DrainTable("delta_orders")
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// pending is the number of captured delta rows of orders.
func pending(t *testing.T, s *Store) int {
	t.Helper()
	dt, err := s.DB.Catalog().Table("delta_orders")
	if err != nil {
		t.Fatal(err)
	}
	return dt.RowCount()
}

func TestCaptureInsert(t *testing.T) {
	s := newStore(t)
	if _, err := s.DB.Exec("INSERT INTO orders VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if n := pending(t, s); n != 2 {
		t.Fatalf("pending = %d", n)
	}
	rows := drain(t, s)
	if len(rows) != 2 || !rows[0][2].IsTrue() {
		t.Fatalf("rows = %v", rows)
	}
	if pending(t, s) != 0 {
		t.Error("drain did not clear")
	}
}

func TestCaptureDeleteUpdate(t *testing.T) {
	s := newStore(t)
	s.DB.Exec("INSERT INTO orders VALUES (1, 10)")
	drain(t, s)

	s.DB.Exec("UPDATE orders SET amount = 15 WHERE oid = 1")
	rows := drain(t, s)
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
	rows = drain(t, s)
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
	drain(t, s)

	if _, err := s.DB.Exec("UPDATE orders SET amount = amount + 1"); err != nil {
		t.Fatal(err)
	}
	rows := drain(t, s)
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
