// Package ivm implements the paper's primary contribution: the OpenIVM
// SQL-to-SQL compiler. Given a database schema and a materialized-view
// definition, it emits
//
//  1. DDL declaring the indexes its body probes the base tables by, the
//     delta tables ΔT (base columns plus a boolean multiplicity column),
//     and the table materializing V with the key index its upsert needs.
//     Every view is grouped: a projection or join view by its key, or all
//     its columns, with each row's weight (DBSP's Z-set) beside it;
//  2. a propagation script — plain SQL implementing the DBSP-style
//     incremental form of the view query: (2) fold the delta into V,
//     (3) delete invalidated rows from V, (4) truncate ΔT. It runs as one
//     transaction, whose snapshot every statement reads the bases at.
//
// Listing 2's step 1, which aggregates ΔT into a table ΔV for steps 2 and
// 3 to read back, is folded into the steps that read it: each aggregates
// ΔT (or a join view's product-rule terms over it) where it needs it, so
// no ΔV table exists.
//
// The script is the paper's, for any runtime that fills ΔT itself; the
// embedded runtime (internal/ivmext) runs the body of it (Compilation.Body)
// and does step 4 its own way, reading ΔT as a window of the base table's
// change log.
//
// All SQL is built as a DuckAST operator tree and rendered as one text that
// PostgreSQL 15 and the embedded engine both run, so the same compilation
// drives every system of the cross-system demo.
//
// The compiler links the embedded engine (internal/engine) the way OpenIVM
// links DuckDB: it uses the engine's parser, binder and planner to
// validate and type the view definition before rewriting it.
package ivm

import (
	"fmt"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// MultiplicityColumn is the boolean Z-set weight column appended to every
// delta table: TRUE marks an insertion, FALSE a deletion. The name follows
// the paper's generated SQL.
const MultiplicityColumn = "_duckdb_ivm_multiplicity"

// DeltaRows builds what one base-table DML event appends to the table's
// delta table: the affected rows with the multiplicity column appended.
// Insertions carry TRUE, deletions FALSE, and an update is its old rows
// (FALSE) followed by its new rows (TRUE), each in statement order. The
// OLTP store's capture trigger appends the result in one batch.
func DeltaRows(ev engine.TriggerEvent, oldRows, newRows []sqltypes.Row) []sqltypes.Row {
	if ev == engine.TrigInsert {
		oldRows = nil
	} else if ev == engine.TrigDelete {
		newRows = nil
	}
	rows := make([]sqltypes.Row, 0, len(oldRows)+len(newRows))
	add := func(src []sqltypes.Row, mult bool) {
		for _, r := range src {
			dr := make(sqltypes.Row, 0, len(r)+1)
			dr = append(dr, r...)
			rows = append(rows, append(dr, sqltypes.NewBool(mult)))
		}
	}
	add(oldRows, false)
	add(newRows, true)
	return rows
}

// HiddenCountColumn is the row count a grouped view keeps per group when it
// declares no COUNT(*) of its own — the Z-set weight of a projection or
// join view's row: step 3 deletes a group whose count reaches 0. It lives
// in the storage table, behind the plain view that exposes the declared
// columns.
const HiddenCountColumn = "_duckdb_ivm_count"

// Options are the compiler's settings. There are none: an aggregate view's
// delta is folded into V by one plan, an upsert of the delta grouped by V's
// key whose ON CONFLICT combines each group V holds (paper §2 names
// regrouping V ∪ ΔV and a full outer join as the other points of the
// design space), and the scripts are one text for every target. The type
// and DefaultOptions stay for the repository benchmark's callers until its
// next change drops them.
type Options struct{}

// DefaultOptions returns the (empty) compiler settings.
func DefaultOptions() Options { return Options{} }

// deltaPrefix prefixes generated delta-table names.
const deltaPrefix = "delta_"

// QueryClass classifies a view definition into the compiler's supported
// incremental forms.
type QueryClass int

// Query classes.
const (
	// ClassProjection is a single-table SELECT of scalar expressions with
	// an optional WHERE (σ/π: incremental form identical to the query).
	ClassProjection QueryClass = iota
	// ClassAggregate is a single-table GROUP BY with SUM/COUNT/MIN/MAX.
	ClassAggregate
	// ClassJoin is a two-table equi-join of scalar expressions (DBSP
	// product rule: ΔV = ΔA⋈B' + A'⋈ΔB − ΔA⋈ΔB).
	ClassJoin
	// ClassJoinAggregate composes ClassJoin with ClassAggregate: the
	// aggregate reads the product rule's terms.
	ClassJoinAggregate
)

// String names the class the way the metadata tables store it.
func (c QueryClass) String() string {
	switch c {
	case ClassProjection:
		return "projection"
	case ClassAggregate:
		return "aggregate"
	case ClassJoin:
		return "join"
	case ClassJoinAggregate:
		return "join_aggregate"
	}
	return "unknown"
}

// ViewColumn describes one output column of the compiled view.
type ViewColumn struct {
	Name string
	Type sqltypes.Type
	// IsGroupKey marks a column of V's key: an aggregate's GROUP BY column,
	// a projection or join view's Key column, or any of its columns when it
	// has no Key.
	IsGroupKey bool
	// Agg is set for aggregate result columns.
	Agg expr.AggKind
	// HasAgg distinguishes Agg's zero value from "no aggregate".
	HasAgg bool
	// SourceSQL is the defining expression rendered as SQL (projection of
	// the base/delta table columns).
	SourceSQL string
	// ArgIdx is the column's index within the view's aggregate columns
	// (used to name intermediate aggregate-argument columns consistently).
	ArgIdx int
}

// BaseTable captures one base table referenced by the view.
type BaseTable struct {
	Name  string
	Alias string // binding alias inside the view query
	// Delta is the delta table ΔT the propagation script reads: what the
	// base's writes changed since the last refresh.
	Delta   string
	Columns []duckast.ColumnDef
	// Key names the base's primary-key columns when every one of them is
	// NOT NULL (nil otherwise): they identify a row of the base.
	Key []string
}

// BaseIndex is a secondary index a view's setup creates on a base table.
type BaseIndex struct {
	Name    string
	Table   string
	Columns []string
}

// as renders table, the base or its delta, under the base's alias: a
// column the view's query qualifies by it reads either one.
func (b BaseTable) as(table string) string {
	if table == b.Alias {
		return table
	}
	return table + " AS " + b.Alias
}

// Compilation is the full compiler output for one materialized view.
type Compilation struct {
	ViewName string
	Class    QueryClass

	Bases []BaseTable
	// Storage is the table that physically materializes the view. It
	// equals ViewName unless the view keeps hidden columns (a SUM's or
	// AVG's SUM and COUNT parts, or the hidden row count): then a storage
	// table holds them and ViewName is a plain SQL view over it, created by
	// the setup.
	Storage string

	Columns []ViewColumn
	// Key names the view columns that identify a row of a projection or
	// join view (see viewKey): its group key, the other columns following
	// from it. Nil for the other classes and for views whose rows have no
	// key, which are grouped by all their columns.
	Key []string
	// Indexes are the secondary indexes the setup creates on the bases
	// (see probeIndexes): without them a body statement would scan a base.
	Indexes []BaseIndex
	// storageCols caches the physical column layout (see StorageColumns).
	storageCols []ViewColumn

	// Setup holds the DDL script; Propagate the maintenance script (what
	// PropagateSQL renders and the metadata tables store).
	Setup     *duckast.Script
	Propagate *duckast.Script
	// Body is Propagate without step 4 — the same statement nodes, not a
	// copy: steps 2–3. It is what a runtime executes when it performs step
	// 4 itself, reading ΔT as a window it drops once applied. The runtime
	// runs it in one transaction at the window's end, as the script must
	// run: a failure anywhere keeps nothing of it, and the window stays for
	// the retry.
	Body *duckast.Script
	// PopulateSQL fills V from the current base-table contents (initial
	// materialization).
	Populate *duckast.Script

	// Select is the parsed view definition.
	Select *sqlparser.SelectStmt
	// SourceSQL is the original view definition text.
	SourceSQL string
}

// SetupSQL renders the DDL script.
func (c *Compilation) SetupSQL() string { return c.Setup.SQL() }

// PropagateSQL renders the propagation script.
func (c *Compilation) PropagateSQL() string { return c.Propagate.SQL() }

// PopulateSQLText renders the initial-materialization script.
func (c *Compilation) PopulateSQLText() string { return c.Populate.SQL() }

// BaseTableNames lists the referenced base tables.
func (c *Compilation) BaseTableNames() []string {
	out := make([]string, len(c.Bases))
	for i, b := range c.Bases {
		out[i] = b.Name
	}
	return out
}

// GroupColumns returns the group-key view columns.
func (c *Compilation) GroupColumns() []ViewColumn {
	var out []ViewColumn
	for _, col := range c.Columns {
		if col.IsGroupKey {
			out = append(out, col)
		}
	}
	return out
}

// AggColumns returns the aggregate view columns.
func (c *Compilation) AggColumns() []ViewColumn {
	var out []ViewColumn
	for _, col := range c.Columns {
		if col.HasAgg {
			out = append(out, col)
		}
	}
	return out
}

// StorageColumns returns the physical layout of the storage table: the
// view columns with every SUM and AVG expanded into a SUM part and a COUNT
// part, the count of its non-NULL arguments, and, for a grouped view that
// declares no COUNT(*), the hidden row count — a projection or join row's
// weight. A grouped view's storage thus holds one COUNT(*) column: its
// first, which step 3 tests (emptyGroupColumn). A view without GROUP BY is
// one row that no statement deletes, so it keeps no hidden count.
func (c *Compilation) StorageColumns() []ViewColumn {
	if c.storageCols != nil {
		return c.storageCols
	}
	counted := false
	for _, col := range c.Columns {
		if col.HasAgg && (col.Agg == expr.AggSum || col.Agg == expr.AggAvg) {
			c.storageCols = append(c.storageCols,
				ViewColumn{Name: col.Name + "_ivm_sum", Type: col.Type,
					Agg: expr.AggSum, HasAgg: true, SourceSQL: col.SourceSQL, ArgIdx: col.ArgIdx},
				ViewColumn{Name: col.Name + "_ivm_cnt", Type: sqltypes.TypeInt,
					Agg: expr.AggCount, HasAgg: true, SourceSQL: col.SourceSQL, ArgIdx: col.ArgIdx})
			continue
		}
		counted = counted || col.HasAgg && col.Agg == expr.AggCountStar
		c.storageCols = append(c.storageCols, col)
	}
	if !counted && len(c.GroupColumns()) > 0 {
		c.storageCols = append(c.storageCols, ViewColumn{
			Name: HiddenCountColumn, Type: sqltypes.TypeInt, Agg: expr.AggCountStar, HasAgg: true})
	}
	return c.storageCols
}

// exposedView returns the CREATE VIEW statement exposing the declared view
// columns over the storage table. A SUM or AVG whose arguments are all
// NULL has a count of 0 and reads NULL, as the query's does (its sum part
// holds 0 or NULL; PostgreSQL fails the AVG's division by zero). A keyless
// projection or join view reads each stored row as many times as its
// weight; a keyed one holds each row at weight 1 (storageQuery) and reads
// its rows as stored.
func (c *Compilation) exposedView() *duckast.Raw {
	var items []string
	for _, col := range c.Columns {
		item := col.Name
		if col.HasAgg && (col.Agg == expr.AggSum || col.Agg == expr.AggAvg) {
			item = col.Name + "_ivm_sum"
			if col.Agg == expr.AggAvg {
				item = "CAST(" + item + " AS DOUBLE PRECISION) / " + col.Name + "_ivm_cnt"
			}
			item = fmt.Sprintf("CASE WHEN %[1]s_ivm_cnt = 0 THEN NULL ELSE %[2]s END AS %[1]s", col.Name, item)
		}
		items = append(items, item)
	}
	from := c.Storage
	if (c.Class == ClassProjection || c.Class == ClassJoin) && c.Key == nil {
		from += ", generate_series(1, " + HiddenCountColumn + ")"
	}
	return &duckast.Raw{Text: fmt.Sprintf("CREATE VIEW %s AS SELECT %s FROM %s",
		c.ViewName, strings.Join(items, ", "), from)}
}

// Compiler compiles view definitions against a schema held by an embedded
// engine instance (the "DuckDB inside OpenIVM" of Figure 1).
type Compiler struct {
	DB *engine.DB
}

// NewCompiler returns a compiler over db. Options holds no setting.
func NewCompiler(db *engine.DB, _ Options) *Compiler {
	return &Compiler{DB: db}
}

// CompileSQL parses a CREATE MATERIALIZED VIEW statement and compiles it.
func (c *Compiler) CompileSQL(sql string) (*Compilation, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	cv, ok := stmt.(*sqlparser.CreateViewStmt)
	if !ok {
		return nil, fmt.Errorf("ivm: expected CREATE MATERIALIZED VIEW, got %T", stmt)
	}
	if !cv.Materialized {
		return nil, fmt.Errorf("ivm: view %q is not MATERIALIZED", cv.Name)
	}
	return c.Compile(cv.Name, cv.Select, cv.SourceSQL)
}
