// Package oltp implements the PostgreSQL stand-in of the paper's
// cross-system demo: a row-store SQL engine speaking the PostgreSQL
// dialect (ON CONFLICT upserts, TEXT/DOUBLE PRECISION types) with
// row-level triggers for update capture. Following the paper, the OLTP
// side carries no IVM logic of its own — "for PostgreSQL (or any
// alternative system), users are required to configure these triggers
// independently" — so this package provides exactly that configuration:
// a generic `ivm_capture` trigger handler that appends (row,
// multiplicity) pairs to delta tables, plus CaptureSQL, the statements
// that create the delta table and attach the trigger for a base table.
package oltp

import (
	"fmt"
	"strings"

	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqltypes"
)

// Store is a PostgreSQL-like transactional store.
type Store struct {
	DB *engine.DB
}

// New creates a store with the generic delta-capture trigger handler
// registered under the name "ivm_capture", so that plain SQL can attach
// capture to any table:
//
//	CREATE TRIGGER cap AFTER INSERT OR DELETE OR UPDATE ON orders
//	FOR EACH ROW EXECUTE 'ivm_capture'
func New(name string) *Store {
	db := engine.Open(name, engine.DialectPostgres)
	s := &Store{DB: db}
	db.RegisterTriggerHandler("ivm_capture", capture)
	return s
}

// deltaName derives the delta table fed by a capture trigger on table.
func deltaName(table string) string { return "delta_" + strings.ToLower(table) }

// capture is the trigger body: append the event's delta rows
// (ivm.DeltaRows) to delta_<table> in one batch, inside the writer's
// transaction — one commit record with the write it describes, so a crash
// keeps both or neither.
func capture(sess *engine.Session, table string, ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) error {
	dt, err := sess.DB().Catalog().Table(deltaName(table))
	if err != nil {
		return fmt.Errorf("oltp: capture on %s: %w (create the delta table first)", table, err)
	}
	if err := sess.InsertRows(dt, ivm.DeltaRows(ev, oldRows, newRows)); err != nil {
		return fmt.Errorf("oltp: capture on %s: %w", table, err)
	}
	return nil
}

// CaptureSQL returns the per-table configuration the paper leaves to the
// PostgreSQL user, as a two-statement script: the delta table of table,
// whose columns are cols ("name TYPE" each) and the multiplicity, and the
// capture trigger that feeds it.
func CaptureSQL(table string, cols []string) string {
	cols = append(cols[:len(cols):len(cols)], ivm.MultiplicityColumn+" BOOLEAN")
	return fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (%s);\n"+
		"CREATE TRIGGER ivm_capture_%s AFTER INSERT OR DELETE OR UPDATE ON %s FOR EACH ROW EXECUTE 'ivm_capture'",
		deltaName(table), strings.Join(cols, ", "), table, table)
}
