package catalog

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// autoTable commits every write as a transaction of its own — the shape of
// an autocommit statement — so the tests read as single calls.
type autoTable struct{ *Table }

func (a autoTable) write(fn func(tx *mvcc.Txn) error) error {
	tx := a.mv.Begin()
	tx.SetAutoCommit(true)
	err := fn(tx)
	if cerr := a.mv.Commit(tx); err == nil {
		err = cerr
	}
	return err
}

func (a autoTable) Insert(r sqltypes.Row) error {
	return a.write(func(tx *mvcc.Txn) error { return a.InsertTxn(tx, r) })
}

func (a autoTable) InsertBatch(rows []sqltypes.Row) error {
	return a.write(func(tx *mvcc.Txn) error { return a.InsertBatchTxn(tx, rows) })
}

func (a autoTable) Upsert(r sqltypes.Row) error {
	return a.write(func(tx *mvcc.Txn) error {
		_, _, _, _, err := a.UpsertBatchTxn(tx, []sqltypes.Row{r}, nil, false)
		return err
	})
}

func (a autoTable) Delete(pred func(sqltypes.Row) (bool, error)) (del []sqltypes.Row, err error) {
	err = a.write(func(tx *mvcc.Txn) (err error) { del, err = a.DeleteTxn(tx, nil, pred); return })
	return
}

func (a autoTable) Update(pred func(sqltypes.Row) (bool, error), set func(sqltypes.Row) (sqltypes.Row, error)) (old, new []sqltypes.Row, err error) {
	err = a.write(func(tx *mvcc.Txn) (err error) { old, new, err = a.UpdateTxn(tx, nil, pred, set); return })
	return
}

// Retract removes one copy of r, reporting whether there was one.
func (a autoTable) Retract(r sqltypes.Row) bool {
	return a.write(func(tx *mvcc.Txn) error {
		return a.ApplyDeltasTxn(tx, []sqltypes.Row{r}, []bool{false})
	}) == nil
}

func (a autoTable) Truncate() (rows []sqltypes.Row) {
	a.write(func(tx *mvcc.Txn) (err error) { rows, _, err = a.TruncateTxn(tx, true); return })
	return
}

// scan drains a cursor at sn (over keys, when non-nil) two rows at a time.
func (a autoTable) scan(sn mvcc.Snapshot, keys []sqltypes.Value) []sqltypes.Row {
	var cur Cursor
	a.Open(&cur, sn, keys)
	defer cur.Close()
	out := []sqltypes.Row{}
	for more := true; more; {
		out, more = cur.Next(out, 2, nil)
	}
	return out
}

func testTable(t *testing.T) autoTable {
	t.Helper()
	c := New()
	tbl, err := c.CreateTable("t", []Column{
		{Name: "id", Type: sqltypes.TypeInt, NotNull: true},
		{Name: "name", Type: sqltypes.TypeString},
		{Name: "score", Type: sqltypes.TypeFloat},
	}, []string{"id"}, false)
	if err != nil {
		t.Fatal(err)
	}
	return autoTable{tbl}
}

func row(id int64, name string, score float64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewString(name), sqltypes.NewFloat(score)}
}

func TestCreateTableDuplicate(t *testing.T) {
	c := New()
	cols := []Column{{Name: "a", Type: sqltypes.TypeInt}}
	if _, err := c.CreateTable("t", cols, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("T", cols, nil, false); err == nil {
		t.Error("case-insensitive duplicate should fail")
	}
	if _, err := c.CreateTable("t", cols, nil, true); err != nil {
		t.Errorf("IF NOT EXISTS should succeed: %v", err)
	}
}

func TestCreateTableBadPK(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.TypeInt}}, []string{"zzz"}, false); err == nil {
		t.Error("unknown PK column should fail")
	}
}

func TestCreateTableDuplicateColumn(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("t", []Column{
		{Name: "a", Type: sqltypes.TypeInt}, {Name: "A", Type: sqltypes.TypeInt},
	}, nil, false); err == nil {
		t.Error("duplicate column should fail")
	}
}

func TestInsertAndScan(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(row(int64(i), fmt.Sprint("n", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 10 {
		t.Errorf("count = %d", tbl.RowCount())
	}
	if n := len(tbl.Rows()); n != 10 {
		t.Errorf("scanned %d", n)
	}
}

func TestInsertPKViolation(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.Insert(row(1, "a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "b", 0)); err == nil {
		t.Error("duplicate PK should fail")
	}
}

func TestInsertNotNull(t *testing.T) {
	tbl := testTable(t)
	err := tbl.Insert(sqltypes.Row{sqltypes.Null, sqltypes.NewString("x"), sqltypes.Null})
	if err == nil {
		t.Error("NULL into NOT NULL should fail")
	}
}

func TestInsertCoercion(t *testing.T) {
	tbl := testTable(t)
	// string id coerced to int; int score coerced to float
	err := tbl.Insert(sqltypes.Row{sqltypes.NewString("7"), sqltypes.NewString("x"), sqltypes.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tbl.LookupPK(sqltypes.NewInt(7))
	if !ok {
		t.Fatal("lookup failed")
	}
	if r[2].T != sqltypes.TypeFloat {
		t.Errorf("score type = %v", r[2].T)
	}
}

func TestInsertWrongArity(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestUpsert(t *testing.T) {
	tbl := testTable(t)
	if err := tbl.Upsert(row(1, "a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Upsert(row(1, "b", 2)); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 1 {
		t.Errorf("count = %d", tbl.RowCount())
	}
	r, _ := tbl.LookupPK(sqltypes.NewInt(1))
	if r[1].S != "b" {
		t.Errorf("row = %v", r)
	}
}

func TestUpsertIdempotent(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 5; i++ {
		if err := tbl.Upsert(row(9, "same", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.RowCount() != 1 {
		t.Errorf("count = %d", tbl.RowCount())
	}
}

func TestUpsertNoPK(t *testing.T) {
	c := New()
	raw, _ := c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	tbl := autoTable{raw}
	if err := tbl.Upsert(sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("upsert without PK should fail")
	}
}

func TestDeletePred(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", float64(i)))
	}
	del, err := tbl.Delete(func(r sqltypes.Row) (bool, error) {
		return r[0].I%2 == 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(del) != 5 || tbl.RowCount() != 5 {
		t.Errorf("deleted %d, left %d", len(del), tbl.RowCount())
	}
	if _, ok := tbl.LookupPK(sqltypes.NewInt(2)); ok {
		t.Error("deleted row still in PK index")
	}
	if _, ok := tbl.LookupPK(sqltypes.NewInt(3)); !ok {
		t.Error("surviving row lost from PK index")
	}
}

// TestKeySetCandidates: DeleteTxn and UpdateTxn confined to a key set
// visit, in slot order, the version of each key their snapshot sees — once
// for a key listed twice, never for an absent key — and call the predicate
// on nothing else; keys that do not fit the primary key fall back to the
// scan.
func TestKeySetCandidates(t *testing.T) {
	tbl := testTable(t)
	for i := int64(0); i < 8; i++ {
		tbl.Insert(row(i, "x", float64(i)))
	}
	old := tbl.mv.Begin() // an open snapshot from before the churn below
	defer tbl.mv.Abort(old)
	isID := func(id int64) func(sqltypes.Row) (bool, error) {
		return func(r sqltypes.Row) (bool, error) { return r[0].I == id, nil }
	}
	tbl.Update(isID(1), func(sqltypes.Row) (sqltypes.Row, error) { return row(1, "y", 10), nil }) // 1 moves to a later slot
	tbl.Delete(isID(2))

	keys := func(ids ...int64) []sqltypes.Value {
		out := make([]sqltypes.Value, 0, len(ids))
		for _, id := range ids {
			out = append(out, sqltypes.NewInt(id))
		}
		return out
	}
	// A keyed read is the scan's rows for those keys, in the scan's order,
	// under either snapshot: each key once, the absent and deleted ones not.
	for _, c := range []struct {
		label string
		sn    mvcc.Snapshot
		want  string
	}{
		{"latest", mvcc.Snapshot{}, "[3|x|3.0 5|x|5.0 1|y|10.0]"},
		{"old snapshot", old.Snapshot(), "[1|x|1.0 2|x|2.0 3|x|3.0 5|x|5.0]"},
	} {
		picked := map[int64]bool{5: true, 1: true, 3: true, 2: true, 42: true}
		var scanned []sqltypes.Row
		for _, r := range tbl.scan(c.sn, nil) {
			if picked[r[0].I] {
				scanned = append(scanned, r)
			}
		}
		got := fmt.Sprint(tbl.scan(c.sn, keys(5, 1, 3, 1, 2, 42, 3)))
		if got != c.want || got != fmt.Sprint(scanned) {
			t.Errorf("keyed read, %s: %s, want %s; the scan gives %v", c.label, got, c.want, scanned)
		}
	}
	if got := tbl.scan(mvcc.Snapshot{}, keys()); got == nil || len(got) != 0 {
		t.Errorf("a read of the empty key set returned %v", got)
	}

	var seen []int64
	notFive := func(r sqltypes.Row) (bool, error) {
		seen = append(seen, r[0].I)
		return r[0].I != 5, nil
	}
	var del []sqltypes.Row
	err := tbl.write(func(tx *mvcc.Txn) (err error) {
		del, err = tbl.DeleteTxn(tx, keys(5, 1, 3, 1, 2, 42, 3), notFive)
		return
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(seen); got != "[3 5 1]" {
		t.Errorf("predicate saw ids %s, want [3 5 1]: each live key once, in slot order", got)
	}
	if got := fmt.Sprint(del); got != "[3|x|3.0 1|y|10.0]" {
		t.Errorf("deleted %s, want 3 and the new version of 1", got)
	}
	if got := len(tbl.scan(old.Snapshot(), nil)); got != 8 {
		t.Errorf("the open snapshot sees %d rows, want its 8", got)
	}

	// The old snapshot's own key-set write resolves the versions it sees —
	// key 2 is still there for it — and retiring what a later transaction
	// already retired is a write conflict.
	seen = nil
	if _, err := tbl.DeleteTxn(old, keys(4, 2), notFive); err == nil || fmt.Sprint(seen) != "[2]" {
		t.Errorf("old snapshot deleting keys 4 and 2: saw %v, err %v; want a write conflict on 2, reached first", seen, err)
	}

	seen = nil
	var olds, news []sqltypes.Row
	err = tbl.write(func(tx *mvcc.Txn) (err error) {
		olds, news, err = tbl.UpdateTxn(tx, keys(6, 6, 5), notFive,
			func(r sqltypes.Row) (sqltypes.Row, error) { return row(r[0].I, "z", 0), nil })
		return
	})
	if err != nil || fmt.Sprint(seen) != "[5 6]" || fmt.Sprint(olds) != "[6|x|6.0]" || fmt.Sprint(news) != "[6|z|0.0]" {
		t.Errorf("keyed update: saw %v, %v -> %v, err %v", seen, olds, news, err)
	}

	// An empty set visits nothing; nil, or keys of the wrong width, scan.
	for _, c := range []struct {
		keys []sqltypes.Value
		want int
	}{
		{[]sqltypes.Value{}, 0},
		{nil, 5},
	} {
		seen = nil
		tbl.write(func(tx *mvcc.Txn) error {
			_, err := tbl.DeleteTxn(tx, c.keys, func(r sqltypes.Row) (bool, error) { seen = append(seen, r[0].I); return false, nil })
			return err
		})
		if len(seen) != c.want {
			t.Errorf("keys %v: predicate saw %d rows, want %d", c.keys, len(seen), c.want)
		}
	}
	two, err := New().CreateTable("two", []Column{{Name: "a", Type: sqltypes.TypeInt}, {Name: "b", Type: sqltypes.TypeInt}}, []string{"a", "b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	pair := autoTable{two}
	for i := int64(0); i < 3; i++ {
		pair.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i)})
	}
	for _, c := range []struct {
		keys []sqltypes.Value
		want string
	}{
		{keys(2, 2, 0, 0, 1, 0), "[0 2]"},
		{keys(1, 1, 2), "[0 1 2]"}, // ragged: not a list of (a, b) keys
	} {
		seen = nil
		pair.write(func(tx *mvcc.Txn) error {
			_, err := two.DeleteTxn(tx, c.keys, func(r sqltypes.Row) (bool, error) { seen = append(seen, r[0].I); return false, nil })
			return err
		})
		if got := fmt.Sprint(seen); got != c.want {
			t.Errorf("composite keys %v: predicate saw %s, want %s", c.keys, got, c.want)
		}
	}
}

func TestRetractOneCopy(t *testing.T) {
	c := New()
	raw, _ := c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	tbl := autoTable{raw}
	tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	tbl.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	if !tbl.Retract(sqltypes.Row{sqltypes.NewInt(1)}) {
		t.Fatal("retraction failed")
	}
	if tbl.RowCount() != 2 {
		t.Errorf("count = %d; a retraction must remove exactly one copy", tbl.RowCount())
	}
	if tbl.Retract(sqltypes.Row{sqltypes.NewInt(9)}) {
		t.Error("retracted an absent row")
	}
}

func TestUpdate(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 5; i++ {
		tbl.Insert(row(int64(i), "x", 0))
	}
	old, new_, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return r[0].I >= 3, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) {
			n := r.Clone()
			n[1] = sqltypes.NewString("upd")
			return n, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 2 || len(new_) != 2 {
		t.Fatalf("old=%d new=%d", len(old), len(new_))
	}
	r, _ := tbl.LookupPK(sqltypes.NewInt(4))
	if r[1].S != "upd" {
		t.Errorf("row = %v", r)
	}
}

func TestUpdatePKMove(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 0))
	_, _, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return true, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) {
			n := r.Clone()
			n[0] = sqltypes.NewInt(99)
			return n, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupPK(sqltypes.NewInt(1)); ok {
		t.Error("old PK still present")
	}
	if _, ok := tbl.LookupPK(sqltypes.NewInt(99)); !ok {
		t.Error("new PK missing")
	}
}

func TestUpdatePKConflict(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 0))
	tbl.Insert(row(2, "b", 0))
	_, _, err := tbl.Update(
		func(r sqltypes.Row) (bool, error) { return r[0].I == 1, nil },
		func(r sqltypes.Row) (sqltypes.Row, error) {
			n := r.Clone()
			n[0] = sqltypes.NewInt(2)
			return n, nil
		})
	if err == nil {
		t.Error("PK conflict on update should fail")
	}
}

func TestTruncate(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", 0))
	}
	if rows := tbl.Truncate(); len(rows) != 10 || tbl.RowCount() != 0 {
		t.Errorf("truncate returned %d rows, left %d", len(rows), tbl.RowCount())
	}
	if len(tbl.rows) != 0 {
		t.Errorf("quiescent truncate kept %d slots", len(tbl.rows))
	}
	if err := tbl.Insert(row(1, "y", 0)); err != nil {
		t.Errorf("insert after truncate: %v", err)
	}
}

// The one truncate picks its own path: a physical reset only for an
// autocommit transaction nobody else can observe; otherwise versions are
// stamped, so an open snapshot keeps its rows and a rollback restores them.
func TestTruncateVersionedWhenObserved(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 10; i++ {
		tbl.Insert(row(int64(i), "x", 0))
	}
	sn, release := tbl.mv.AcquireSnapshot()
	if rows := tbl.Truncate(); len(rows) != 10 || tbl.RowCount() != 0 {
		t.Fatalf("truncate returned %d rows, left %d", len(rows), tbl.RowCount())
	}
	if got := len(tbl.scan(sn, nil)); got != 10 {
		t.Fatalf("snapshot opened before the truncate sees %d rows, want 10", got)
	}
	if got := len(tbl.Rows()); got != 0 {
		t.Fatalf("latest snapshot sees %d rows after the truncate", got)
	}
	release()

	tbl.Insert(row(1, "y", 0))
	tx := tbl.mv.Begin() // an explicit transaction: it may still roll back
	if _, n, err := tbl.TruncateTxn(tx, false); err != nil || n != 1 {
		t.Fatalf("TruncateTxn = %d rows, %v", n, err)
	}
	tbl.mv.Abort(tx)
	if _, ok := tbl.LookupPK(sqltypes.NewInt(1)); !ok || tbl.RowCount() != 1 {
		t.Fatalf("rolled-back truncate lost the row (count %d)", tbl.RowCount())
	}
}

// lookupName probes the secondary index on the name column for one value.
func lookupName(t *Table, sn mvcc.Snapshot, v sqltypes.Value) []sqltypes.Row {
	ki, _ := t.KeyIndexOn([]int{t.ColumnPos("name")})
	rows, _ := t.ProbeKeys(sn, ki, []sqltypes.Row{{v}}, []int{0}, nil)
	return rows
}

func TestSecondaryIndex(t *testing.T) {
	tbl := testTable(t)
	for i := 0; i < 100; i++ {
		tbl.Insert(row(int64(i), fmt.Sprint("g", i%10), float64(i)))
	}
	_, err := tbl.CreateIndex("idx_name", []string{"name"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	rows := lookupName(tbl.Table, mvcc.Snapshot{}, sqltypes.NewString("g3"))
	if len(rows) != 10 {
		t.Errorf("lookup = %d rows", len(rows))
	}
	// Index maintained on subsequent DML.
	tbl.Insert(row(1000, "g3", 1))
	rows = lookupName(tbl.Table, mvcc.Snapshot{}, sqltypes.NewString("g3"))
	if len(rows) != 11 {
		t.Errorf("after insert: %d rows", len(rows))
	}
	tbl.Delete(func(r sqltypes.Row) (bool, error) { return r[0].I == 1000, nil })
	rows = lookupName(tbl.Table, mvcc.Snapshot{}, sqltypes.NewString("g3"))
	if len(rows) != 10 {
		t.Errorf("after delete: %d rows", len(rows))
	}
}

// TestKeyProbesHonourSnapshot: a snapshot opened before an UPDATE, a DELETE
// and a re-INSERT of indexed rows still resolves the versions it saw, and
// only those, through the primary-key version chain and through the
// secondary index; the latest snapshot sees the new state through both.
func TestKeyProbesHonourSnapshot(t *testing.T) {
	tbl := testTable(t)
	for i := int64(1); i <= 3; i++ {
		tbl.Insert(row(i, "g", float64(i)))
	}
	_, err := tbl.CreateIndex("idx_name", []string{"name"}, false, false)
	if err != nil {
		t.Fatal(err)
	}
	old := tbl.mv.Begin() // pins the pre-write versions
	defer tbl.mv.Abort(old)

	isID := func(id int64) func(sqltypes.Row) (bool, error) {
		return func(r sqltypes.Row) (bool, error) { return r[0].I == id, nil }
	}
	tbl.Update(isID(1), func(r sqltypes.Row) (sqltypes.Row, error) { return row(1, "h", 10), nil })
	tbl.Delete(isID(2))
	tbl.Delete(isID(3))
	tbl.Insert(row(3, "h", 30))
	tbl.Insert(row(4, "g", 4))

	pk, ok := tbl.KeyIndexOn([]int{0})
	if !ok || pk.Name != "pk" {
		t.Fatalf("KeyIndexOn(id) = %+v, %v", pk, ok)
	}
	sec, ok := tbl.KeyIndexOn([]int{1})
	if !ok || sec.Name != "idx_name" {
		t.Fatalf("KeyIndexOn(name) = %+v, %v", sec, ok)
	}
	if _, ok := tbl.KeyIndexOn([]int{2}); ok {
		t.Fatal("score is not indexed")
	}
	ids := []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}, {sqltypes.NewInt(3)}, {sqltypes.NewInt(4)}, {sqltypes.Null}}
	names := []sqltypes.Row{{sqltypes.NewString("g")}, {sqltypes.NewString("h")}}
	for _, tc := range []struct {
		label          string
		sn             mvcc.Snapshot
		byID, byName   string
		idEnds, nmEnds []int
	}{
		{"old snapshot", old.Snapshot(),
			"[1|g|1.0 2|g|2.0 3|g|3.0]", "[1|g|1.0 2|g|2.0 3|g|3.0]",
			[]int{1, 2, 3, 3, 3}, []int{3, 3}},
		{"latest", mvcc.Snapshot{},
			"[1|h|10.0 3|h|30.0 4|g|4.0]", "[4|g|4.0 1|h|10.0 3|h|30.0]",
			[]int{1, 1, 2, 3, 3}, []int{1, 3}},
	} {
		rows, ends := tbl.ProbeKeys(tc.sn, pk, ids, []int{0}, nil)
		if got := fmt.Sprint(rows); got != tc.byID || fmt.Sprint(ends) != fmt.Sprint(tc.idEnds) {
			t.Errorf("%s, by primary key: %s ends %v, want %s ends %v", tc.label, got, ends, tc.byID, tc.idEnds)
		}
		rows, ends = tbl.ProbeKeys(tc.sn, sec, names, []int{0}, nil)
		if got := fmt.Sprint(rows); got != tc.byName || fmt.Sprint(ends) != fmt.Sprint(tc.nmEnds) {
			t.Errorf("%s, by secondary index: %s ends %v, want %s ends %v", tc.label, got, ends, tc.byName, tc.nmEnds)
		}
	}
	if got := fmt.Sprint(lookupName(tbl.Table, old.Snapshot(), sqltypes.NewString("h"))); got != "[]" {
		t.Errorf("the index probe under the old snapshot sees later commits: %s", got)
	}
}

// TestProbeKeysConcurrentWithWriters: readers probing both kinds of key
// index while a writer churns versions and vacuums see, per probe, only
// rows that carry the probed key — at most one through the primary key.
func TestProbeKeysConcurrentWithWriters(t *testing.T) {
	tbl := testTable(t)
	const keys = 64
	for i := int64(0); i < keys; i++ {
		tbl.Insert(row(i, fmt.Sprint("g", i%8), 0))
	}
	if _, err := tbl.CreateIndex("idx_name", []string{"name"}, false, false); err != nil {
		t.Fatal(err)
	}
	pk, _ := tbl.KeyIndexOn([]int{0})
	sec, _ := tbl.KeyIndexOn([]int{1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64((n*7 + g) % keys)
				rows, _ := tbl.ProbeKeys(mvcc.Snapshot{}, pk, []sqltypes.Row{{sqltypes.NewInt(id)}}, []int{0}, nil)
				if len(rows) > 1 || (len(rows) == 1 && rows[0][0].I != id) {
					t.Errorf("primary-key probe %d returned %v", id, rows)
					return
				}
				name := fmt.Sprint("g", id%8)
				rows, _ = tbl.ProbeKeys(mvcc.Snapshot{}, sec, []sqltypes.Row{{sqltypes.NewString(name)}}, []int{0}, nil)
				for _, r := range rows {
					if r[1].S != name {
						t.Errorf("secondary probe %q returned %v", name, r)
						return
					}
				}
			}
		}(g)
	}
	for n := 0; n < 400; n++ {
		id := int64(n % keys)
		isID := func(r sqltypes.Row) (bool, error) { return r[0].I == id, nil }
		switch n % 3 {
		case 0:
			tbl.Update(isID, func(r sqltypes.Row) (sqltypes.Row, error) {
				return row(id, fmt.Sprint("g", (id+int64(n))%8), float64(n)), nil
			})
		case 1:
			tbl.Delete(isID)
		case 2:
			tbl.Upsert(row(id, fmt.Sprint("g", id%8), float64(n)))
		}
		if n%50 == 49 {
			tbl.mv.Vacuum()
		}
	}
	close(stop)
	wg.Wait()
}

// TestCreateIndexCoversRetiredVersions: an index built while a delete is
// still uncommitted must contain the row the delete's rollback brings back.
func TestCreateIndexCoversRetiredVersions(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 0))
	tx := tbl.mv.Begin()
	if _, err := tbl.DeleteTxn(tx, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, err := tbl.CreateIndex("u", []string{"name"}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl.mv.Abort(tx)
	if got := lookupName(tbl.Table, mvcc.Snapshot{}, sqltypes.NewString("a")); len(got) != 1 {
		t.Fatalf("row restored by rollback is missing from the index: %v", got)
	}
}

func TestUniqueIndexViolation(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "same", 0))
	tbl.Insert(row(2, "same", 0))
	if _, err := tbl.CreateIndex("u", []string{"name"}, true, false); err == nil {
		t.Error("unique index over duplicates should fail")
	}
}

func TestIndexIfNotExists(t *testing.T) {
	tbl := testTable(t)
	if _, err := tbl.CreateIndex("i", []string{"name"}, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("i", []string{"name"}, false, false); err == nil {
		t.Error("duplicate index should fail")
	}
	if _, err := tbl.CreateIndex("i", []string{"name"}, false, true); err != nil {
		t.Errorf("IF NOT EXISTS: %v", err)
	}
}

func TestViews(t *testing.T) {
	c := New()
	if err := c.CreateView("v", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	v, ok := c.View("V")
	if !ok || v.SourceSQL != "SELECT 1" {
		t.Fatalf("view = %#v, %v", v, ok)
	}
	if err := c.CreateView("v", "SELECT 2"); err == nil {
		t.Error("duplicate view")
	}
	if _, err := c.DropView("v", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DropView("v", false); err == nil {
		t.Error("drop missing view")
	}
	if _, err := c.DropView("v", true); err != nil {
		t.Error("drop IF EXISTS")
	}
}

func TestIVMMetadata(t *testing.T) {
	c := New()
	c.PutIVM(&IVMMetadata{ViewName: "mv1", BaseTables: []string{"groups"}})
	c.PutIVM(&IVMMetadata{ViewName: "mv2", BaseTables: []string{"orders", "groups"}})
	m, ok := c.IVM("MV1")
	if !ok || m.ViewName != "mv1" {
		t.Fatalf("IVM = %#v, %v", m, ok)
	}
	deps := c.IVMForBaseTable("groups")
	if len(deps) != 2 || deps[0].ViewName != "mv1" {
		t.Fatalf("deps = %v", deps)
	}
	if got := c.IVMForBaseTable("none"); len(got) != 0 {
		t.Errorf("got %v", got)
	}
	c.DropIVM("mv1")
	if len(c.IVMViews()) != 1 {
		t.Error("drop failed")
	}
}

func TestDropTable(t *testing.T) {
	c := New()
	c.CreateTable("t", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	if !c.HasTable("t") {
		t.Fatal("HasTable")
	}
	if _, err := c.DropTable("t", false); err != nil {
		t.Fatal(err)
	}
	if c.HasTable("t") {
		t.Error("still present")
	}
	if _, err := c.DropTable("t", false); err == nil {
		t.Error("double drop")
	}
	if _, err := c.DropTable("t", true); err != nil {
		t.Error("IF EXISTS drop")
	}
}

func TestTableNames(t *testing.T) {
	c := New()
	c.CreateTable("zeta", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	c.CreateTable("alpha", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	names := c.TableNames()
	if len(names) != 2 || names[0] != "alpha" {
		t.Errorf("names = %v", names)
	}
}

func TestNameCollisionTableView(t *testing.T) {
	c := New()
	c.CreateTable("x", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false)
	if err := c.CreateView("x", "SELECT 1"); err == nil {
		t.Error("view colliding with table should fail")
	}
	c.CreateView("y", "SELECT 1")
	if _, err := c.CreateTable("y", []Column{{Name: "a", Type: sqltypes.TypeInt}}, nil, false); err == nil {
		t.Error("table colliding with view should fail")
	}
}

// IVMForBaseTable returns the materialized views that depend on table name.
func (c *Catalog) IVMForBaseTable(name string) []*IVMMetadata {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*IVMMetadata
	key := norm(name)
	for _, m := range c.ivm {
		for _, bt := range m.BaseTables {
			if norm(bt) == key {
				out = append(out, m)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ViewName < out[j].ViewName })
	return out
}
