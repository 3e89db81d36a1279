package engine_test

import (
	"testing"

	"openivm/internal/engine"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
)

// The delta plumbing of the cross-system demo — capture filling
// delta_orders, the drain emptying it — consists of ordinary
// transactions, so a snapshot that is already open neither loses the rows
// a drain removes nor gains the rows a capture adds.

func count(t *testing.T, s *engine.Session, table string) int64 {
	t.Helper()
	return mustExec(t, s, "SELECT COUNT(*) FROM "+table).Rows[0][0].I
}

func TestMVCCDrainInvisibleToOpenSnapshot(t *testing.T) {
	store := oltp.New("pg")
	w := store.DB.NewSession()
	defer w.Close()
	mustExec(t, w, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	if err := store.EnableCapture("orders"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, "INSERT INTO orders VALUES (1, 10), (2, 20)")

	a := store.DB.NewSession()
	defer a.Close()
	mustExec(t, a, "BEGIN")
	if n := count(t, a, "delta_orders"); n != 2 {
		t.Fatalf("open transaction sees %d delta rows, want 2", n)
	}
	rows, err := w.DrainTable("delta_orders")
	if err != nil || len(rows) != 2 {
		t.Fatalf("drain returned %d rows (%v), want 2", len(rows), err)
	}
	if n := count(t, a, "delta_orders"); n != 2 {
		t.Fatalf("a drain in another session changed the open snapshot: %d delta rows, want 2", n)
	}
	mustExec(t, a, "COMMIT")
	if n := count(t, a, "delta_orders"); n != 0 {
		t.Fatalf("a fresh snapshot still sees %d drained rows", n)
	}
	if again, _ := w.DrainTable("delta_orders"); len(again) != 0 {
		t.Fatalf("the drained rows were handed out again: %v", again)
	}
}

func TestMVCCCaptureInvisibleToOpenSnapshot(t *testing.T) {
	store := oltp.New("pg")
	w := store.DB.NewSession()
	defer w.Close()
	mustExec(t, w, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	// Registered before the capture trigger, so it runs between the
	// writer's commit and the capture of that write: session a takes its
	// snapshot exactly there.
	a := store.DB.NewSession()
	defer a.Close()
	store.DB.AddTrigger("orders", "open_a", []engine.TriggerEvent{engine.TrigInsert},
		func(*engine.Session, string, engine.TriggerEvent, []sqltypes.Row, []sqltypes.Row) error {
			_, err := a.Exec("BEGIN")
			return err
		})
	if err := store.EnableCapture("orders"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, "INSERT INTO orders VALUES (1, 10)")

	if n := count(t, a, "orders"); n != 1 {
		t.Fatalf("snapshot taken after the writer's commit sees %d orders, want 1", n)
	}
	if n := count(t, a, "delta_orders"); n != 0 {
		t.Fatalf("snapshot taken before the capture committed sees %d captured rows, want 0", n)
	}
	mustExec(t, a, "COMMIT")
	if n := count(t, a, "delta_orders"); n != 1 {
		t.Fatalf("the capture left %d delta rows, want 1", n)
	}
}
