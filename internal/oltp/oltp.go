// Package oltp implements the PostgreSQL stand-in of the paper's
// cross-system demo: a row-store SQL engine speaking the PostgreSQL
// dialect (ON CONFLICT upserts, TEXT/DOUBLE PRECISION types) with
// row-level triggers for update capture. Following the paper, the OLTP
// side carries no IVM logic of its own — "for PostgreSQL (or any
// alternative system), users are required to configure these triggers
// independently" — so this package provides exactly that configuration:
// a generic `ivm_capture` trigger handler that appends (row,
// multiplicity) pairs to delta tables, plus a helper that creates the
// delta table and trigger for a base table in one call.
package oltp

import (
	"fmt"
	"strings"

	"openivm/internal/catalog"
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

// EnableCapture creates the delta table for a base table and attaches the
// capture trigger — the per-table configuration the paper leaves to the
// PostgreSQL user.
func (s *Store) EnableCapture(table string) error {
	tbl, err := s.DB.Catalog().Table(table)
	if err != nil {
		return err
	}
	var cols []string
	for _, c := range tbl.Columns {
		cols = append(cols, fmt.Sprintf("%s %s", c.Name, pgType(c.Type)))
	}
	cols = append(cols, ivm.MultiplicityColumn+" BOOLEAN")
	ddl := fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (%s)", deltaName(table), strings.Join(cols, ", "))
	if _, err := s.DB.Exec(ddl); err != nil {
		return err
	}
	trig := fmt.Sprintf(
		"CREATE TRIGGER ivm_capture_%s AFTER INSERT OR DELETE OR UPDATE ON %s FOR EACH ROW EXECUTE 'ivm_capture'",
		table, table)
	_, err = s.DB.Exec(trig)
	return err
}

// DrainDeltas removes and returns the buffered delta rows for a table
// (the pull step of cross-system propagation), atomically: a delta
// captured meanwhile is in this result or the next.
func (s *Store) DrainDeltas(table string) ([]sqltypes.Row, error) {
	sess := s.DB.NewSession()
	defer sess.Close()
	return sess.DrainTable(deltaName(table))
}

// PendingDeltas reports the number of buffered delta rows for a table.
func (s *Store) PendingDeltas(table string) int {
	dt, err := s.DB.Catalog().Table(deltaName(table))
	if err != nil {
		return 0
	}
	return dt.RowCount()
}

// TableColumns exposes a table's schema for remote mirroring.
func (s *Store) TableColumns(table string) ([]catalog.Column, error) {
	tbl, err := s.DB.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	return tbl.Columns, nil
}

func pgType(t sqltypes.Type) string {
	switch t {
	case sqltypes.TypeString:
		return "TEXT"
	case sqltypes.TypeFloat:
		return "DOUBLE PRECISION"
	case sqltypes.TypeBool:
		return "BOOLEAN"
	default:
		return "INTEGER"
	}
}
