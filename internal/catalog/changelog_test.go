package catalog

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// trackedTable returns a keyed table that keeps a change log, the delta
// table reading the log, and the log's entry counter.
func trackedTable(t *testing.T) (autoTable, *Table, *ChangeLog, *int64) {
	t.Helper()
	base := testTable(t)
	cols := append(append([]Column{}, base.Columns...), Column{Name: "mult", Type: sqltypes.TypeBool})
	c := &Catalog{tables: map[string]*Table{}, mv: base.mv}
	dt, err := c.CreateTable("delta_t", cols, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var appended, stall int64
	l := base.Track(&appended, &stall)
	dt.ReadChanges(l)
	return base, dt, l, &appended
}

// changes renders a delta table's rows as "+id:name" and "-id:name".
func changes(rows []sqltypes.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		sign := "-"
		if r[len(r)-1].Bool() {
			sign = "+"
		}
		out[i] = fmt.Sprintf("%s%d:%s", sign, r[0].I, r[1].S)
	}
	return strings.Join(out, " ")
}

// TestChangeLogInPlaceReplacements: an autocommit upsert that replaces
// rows in place — a committed row twice, and a row it inserted itself —
// logs each replacement as the deletion of the value the slot held then and
// the insertion of the value it held next.
func TestChangeLogInPlaceReplacements(t *testing.T) {
	base, dt, _, appended := trackedTable(t)
	if err := base.Insert(row(2, "x", 1)); err != nil {
		t.Fatal(err)
	}
	err := base.write(func(tx *mvcc.Txn) error {
		_, _, _, err := base.UpsertBatchTxn(tx, []sqltypes.Row{row(1, "a", 0), row(1, "b", 0), row(2, "y", 0), row(2, "z", 0)}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "+2:x +1:a -1:a +1:b -2:x +2:y -2:y +2:z"
	if got := changes(dt.Rows()); got != want {
		t.Fatalf("log reads %s, want %s", got, want)
	}
	if *appended != 8 || dt.RowCount() != 8 {
		t.Fatalf("appended %d, delta table counts %d; want 8", *appended, dt.RowCount())
	}
}

// TestChangeLogWindowAndTrim: a window returns the entries committed in
// it, a trim ends it and drops what every reader has passed, a truncate of
// a tracked table logs its deletions, and an untracked table logs nothing.
func TestChangeLogWindowAndTrim(t *testing.T) {
	base, dt, l, _ := trackedTable(t)
	var ts []uint64
	for i := int64(1); i <= 3; i++ {
		if err := base.Insert(row(i, fmt.Sprint("r", i), 0)); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, l.LastTS())
	}
	if n := l.SetWindow(ts[0], ts[2]); n != 2 || changes(dt.Rows()) != "+2:r2 +3:r3" || dt.RowCount() != 2 {
		t.Fatalf("window (%d, %d] holds %d entries: %s", ts[0], ts[2], n, changes(dt.Rows()))
	}
	l.Trim(ts[1])
	if got := changes(dt.Rows()); got != "+3:r3" {
		t.Fatalf("after the trim the log reads %s, want +3:r3", got)
	}
	if rows := base.Truncate(); len(rows) != 3 {
		t.Fatalf("truncate returned %d rows, want 3", len(rows))
	}
	if got := changes(dt.Rows()); got != "+3:r3 -1:r1 -2:r2 -3:r3" {
		t.Fatalf("after the truncate the log reads %s", got)
	}
	base.Untrack()
	if err := base.Insert(row(4, "r4", 0)); err != nil {
		t.Fatal(err)
	}
	if l.LastTS() == base.mv.LatestTS() {
		t.Fatal("an untracked table's commit reached the log")
	}
}
