package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/oltp"
	"openivm/internal/sqltypes"
)

// The delta plumbing of the cross-system demo — capture filling
// delta_orders, the drain emptying it — consists of ordinary
// transactions, so a snapshot that is already open neither loses the rows
// a drain removes nor gains the rows a capture adds.

// captureOrders creates delta_orders and attaches the capture trigger to
// orders (oid INTEGER PRIMARY KEY, amount INTEGER).
func captureOrders(t *testing.T, store *oltp.Store) {
	t.Helper()
	if _, err := store.DB.Exec(oltp.CaptureSQL("orders", []string{"oid INTEGER", "amount INTEGER"})); err != nil {
		t.Fatal(err)
	}
}

// pendingOrders is the number of rows delta_orders holds.
func pendingOrders(t *testing.T, store *oltp.Store) int {
	t.Helper()
	dt, err := store.DB.Catalog().Table("delta_orders")
	if err != nil {
		t.Fatal(err)
	}
	return dt.RowCount()
}

func count(t *testing.T, s *engine.Session, table string) int64 {
	t.Helper()
	return mustExec(t, s, "SELECT COUNT(*) FROM "+table).Rows[0][0].I
}

func TestMVCCDrainInvisibleToOpenSnapshot(t *testing.T) {
	store := oltp.New("pg")
	w := store.DB.NewSession()
	defer w.Close()
	mustExec(t, w, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	captureOrders(t, store)
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

// TestMVCCSnapshotSeesWriteWithItsDelta: a snapshot sees a write and its
// captured delta together or not at all. Snapshots opened while the
// capture runs — before it and after it — see neither; snapshots opened
// after the commit see both; and a reader taking transaction snapshots
// while writers commit never finds orders and delta_orders apart.
func TestMVCCSnapshotSeesWriteWithItsDelta(t *testing.T) {
	store := oltp.New("pg")
	w := store.DB.NewSession()
	defer w.Close()
	mustExec(t, w, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, amount INTEGER)")
	// open_a runs before the capture trigger, open_b after it: both inside
	// the writer's transaction.
	a, b := store.DB.NewSession(), store.DB.NewSession()
	defer a.Close()
	defer b.Close()
	begin := func(s *engine.Session) engine.TriggerFunc {
		return func(*engine.Session, string, engine.TriggerEvent, []sqltypes.Row, []sqltypes.Row) error {
			if s.InTxn() {
				return nil
			}
			_, err := s.Exec("BEGIN")
			return err
		}
	}
	store.DB.AddTrigger("orders", "open_a", []engine.TriggerEvent{engine.TrigInsert}, begin(a))
	captureOrders(t, store)
	store.DB.AddTrigger("orders", "open_b", []engine.TriggerEvent{engine.TrigInsert}, begin(b))
	mustExec(t, w, "INSERT INTO orders VALUES (1, 10)")

	for _, s := range []*engine.Session{a, b} {
		if o, d := count(t, s, "orders"), count(t, s, "delta_orders"); o != 0 || d != 0 {
			t.Fatalf("snapshot taken inside the writer's transaction sees %d orders and %d delta rows, want neither", o, d)
		}
		mustExec(t, s, "COMMIT")
		if o, d := count(t, s, "orders"), count(t, s, "delta_orders"); o != 1 || d != 1 {
			t.Fatalf("snapshot taken after the commit sees %d orders and %d delta rows, want both", o, d)
		}
	}

	// Writers commit while a reader compares the two tables at one
	// snapshot; every insert captures one delta row, every update two, and
	// nothing drains.
	store.DB.RemoveTrigger("orders", "open_a")
	store.DB.RemoveTrigger("orders", "open_b")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := store.DB.NewSession()
			defer s.Close()
			for j := 0; j < 100; j++ {
				sql := fmt.Sprintf("INSERT INTO orders VALUES (%d, %d)", 1000*(i+1)+j, j)
				if j%3 == 0 {
					sql = "BEGIN; " + sql + "; UPDATE orders SET amount = amount + 1 WHERE oid = 1; COMMIT"
				}
				if _, err := s.Exec(sql); err != nil {
					if !engine.IsSerializationError(err) {
						t.Error(err)
						return
					}
					s.Exec("ROLLBACK") // the conflicting UPDATE left the transaction open
				}
			}
		}(i)
	}
	r := store.DB.NewSession()
	defer r.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		mustExec(t, r, "BEGIN")
		o := count(t, r, "orders")
		u := mustExec(t, r, "SELECT amount FROM orders WHERE oid = 1").Rows[0][0].I - 10
		d := count(t, r, "delta_orders")
		mustExec(t, r, "COMMIT")
		if d != o+2*u {
			t.Fatalf("one snapshot sees %d orders, %d updates of order 1 and %d delta rows, want %d", o, u, d, o+2*u)
		}
	}
}
