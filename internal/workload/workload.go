// Package workload provides deterministic data and update-stream
// generators for the experiments: the paper's Listing 1 groups table and a
// customers/orders HTAP schema. All generators are seeded so experiment
// runs are reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"openivm/internal/engine"
	"openivm/internal/sqltypes"
)

// Groups generates the paper's demonstration table:
//
//	CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)
//
// with rows spread over numGroups distinct group_index values.
type Groups struct {
	Rows      int
	NumGroups int
	Seed      int64
}

// Schema returns the Listing 1 DDL.
func (Groups) Schema() string {
	return "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
}

// Load creates and fills the table on db (bypassing triggers: this is the
// base load, not part of the measured update stream).
func (g Groups) Load(db *engine.DB) error {
	if _, err := db.Exec(g.Schema()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(g.Seed))
	rows := make([]sqltypes.Row, g.Rows)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewString(GroupKey(rng.Intn(g.NumGroups))),
			sqltypes.NewInt(int64(rng.Intn(1000))),
		}
	}
	return load(db, "groups", rows)
}

// load fills a table as one committed catalog-level write, which fires no
// trigger.
func load(db *engine.DB, table string, rows []sqltypes.Row) error {
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	s := db.NewSession()
	defer s.Close()
	return s.InsertRows(tbl, rows)
}

// GroupKey formats the i-th group key.
func GroupKey(i int) string { return fmt.Sprintf("g%06d", i) }

// Update is one generated base-table change.
type Update struct {
	SQL string
}

// UpdateStream generates a deterministic stream of single-row INSERT,
// DELETE and UPDATE statements against the groups table. insertFrac and
// deleteFrac control the mix (the rest are updates); deletes and updates
// target previously inserted keys.
func (g Groups) UpdateStream(n int, insertFrac, deleteFrac float64, seed int64) []Update {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Update, 0, n)
	for i := 0; i < n; i++ {
		key := GroupKey(rng.Intn(g.NumGroups))
		r := rng.Float64()
		switch {
		case r < insertFrac:
			out = append(out, Update{SQL: fmt.Sprintf(
				"INSERT INTO groups VALUES ('%s', %d)", key, rng.Intn(1000))})
		case r < insertFrac+deleteFrac:
			out = append(out, Update{SQL: fmt.Sprintf(
				"DELETE FROM groups WHERE group_index = '%s' AND group_value < %d", key, rng.Intn(200))})
		default:
			out = append(out, Update{SQL: fmt.Sprintf(
				"UPDATE groups SET group_value = group_value + 1 WHERE group_index = '%s'", key)})
		}
	}
	return out
}

// InsertBatch generates a multi-row INSERT of n rows in one statement.
func (g Groups) InsertBatch(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	sql := "INSERT INTO groups VALUES "
	for i := 0; i < n; i++ {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("('%s', %d)", GroupKey(rng.Intn(g.NumGroups)), rng.Intn(1000))
	}
	return sql
}

// Sales is the HTAP schema for the cross-system experiments: a customers
// dimension and an orders fact stream.
type Sales struct {
	Customers int
	Orders    int
	Regions   int
	Seed      int64
}

// Schema returns the DDL for both tables (dialect-neutral subset).
func (Sales) Schema() []string {
	return []string{
		"CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)",
		"CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)",
	}
}

// Load creates and fills both tables on db. The rows go in as
// catalog-level writes, which fire no trigger: the base load is not part
// of the update stream.
func (s Sales) Load(db *engine.DB) error {
	for _, ddl := range s.Schema() {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	customers := make([]sqltypes.Row, s.Customers)
	for i := range customers {
		customers[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("r%03d", rng.Intn(s.Regions))),
		}
	}
	orders := make([]sqltypes.Row, s.Orders)
	for i := range orders {
		orders[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(rng.Intn(max(1, s.Customers)))),
			sqltypes.NewInt(int64(rng.Intn(500))),
		}
	}
	if err := load(db, "customers", customers); err != nil {
		return err
	}
	return load(db, "orders", orders)
}

// Fraction formats a float as a percentage label for experiment tables.
func Fraction(f float64) string {
	if f >= 0.01 {
		return fmt.Sprintf("%.0f%%", f*100)
	}
	return fmt.Sprintf("%.2g%%", f*100)
}
