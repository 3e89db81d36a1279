// Package ivm implements the paper's primary contribution: the OpenIVM
// SQL-to-SQL compiler. Given a database schema and a materialized-view
// definition, it emits
//
//  1. DDL creating the delta tables ΔT (base columns plus a boolean
//     multiplicity column), the table materializing the view V, the
//     delta-view table ΔV, any intermediate tables (for join views) and
//     the index structures aggregate maintenance needs;
//  2. a propagation script — plain SQL implementing the DBSP-style
//     incremental form of the view query, in four post-processing steps:
//     (1) insert Q*(ΔT) into ΔV, (2) fold ΔV into V, (3) delete
//     invalidated rows from V, (4) truncate ΔV and ΔT.
//
// All SQL is built as a DuckAST operator tree and rendered in the dialect
// selected by a compiler flag, so the same compilation drives both the
// DuckDB-style engine and the PostgreSQL-style engine (cross-system IVM).
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
// (FALSE) followed by its new rows (TRUE), each in statement order. Both
// capture sides — the extension's and the OLTP store's trigger — append
// the result with a single InsertBatch.
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

// HiddenCountColumn is the hidden per-group cardinality column maintained
// under EmptyHiddenCount empty-group detection.
const HiddenCountColumn = "_duckdb_ivm_count"

// Strategy selects how ΔV is folded into V (paper §2: "replacing the
// materialized table with a UNION and regrouping, or through a
// full-outer-join, or maintaining it with a left-join with an UPSERT").
type Strategy int

// Combine strategies.
const (
	// StrategyUpsertLeftJoin is the paper's Listing 2 plan: LEFT JOIN the
	// (pre-aggregated) ΔV against V and INSERT OR REPLACE the combined
	// rows. Requires an index (primary key) on the group columns.
	StrategyUpsertLeftJoin Strategy = iota
	// StrategyUnionRegroup recomputes the view as V ∪ ΔV regrouped —
	// no index required, cost proportional to |V|.
	StrategyUnionRegroup
	// StrategyFullOuterJoin folds via V FULL OUTER JOIN ΔV, rebuilding the
	// table from the join result.
	StrategyFullOuterJoin
)

// ParseStrategy maps a flag string to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "", "upsert", "upsert_left_join", "left_join":
		return StrategyUpsertLeftJoin, nil
	case "union", "union_regroup", "regroup":
		return StrategyUnionRegroup, nil
	case "full_outer_join", "outer_join", "foj":
		return StrategyFullOuterJoin, nil
	}
	return StrategyUpsertLeftJoin, fmt.Errorf("ivm: unknown strategy %q", s)
}

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyUnionRegroup:
		return "union_regroup"
	case StrategyFullOuterJoin:
		return "full_outer_join"
	}
	return "upsert_left_join"
}

// EmptyDetection selects how step 3 recognizes groups that became empty.
type EmptyDetection int

// Empty-group detection modes.
const (
	// EmptySumZero is the paper's Listing 2 behaviour: delete rows whose
	// COUNT aggregate is 0, or — lacking a COUNT — whose SUM is 0. Faithful
	// to the paper but unsound for views whose SUM legitimately reaches 0;
	// see EmptyHiddenCount.
	EmptySumZero EmptyDetection = iota
	// EmptyHiddenCount appends a hidden COUNT(*) column to the view table
	// and deletes rows where it reaches 0 — sound for all inputs.
	EmptyHiddenCount
)

// ParseEmptyDetection maps a flag string.
func ParseEmptyDetection(s string) (EmptyDetection, error) {
	switch strings.ToLower(s) {
	case "", "sum_zero", "paper":
		return EmptySumZero, nil
	case "hidden_count", "count":
		return EmptyHiddenCount, nil
	}
	return EmptySumZero, fmt.Errorf("ivm: unknown empty-group detection %q", s)
}

// Options are the compiler switches (paper Figure 1: "users can specify
// the expected optimization strategies through flags").
type Options struct {
	// Dialect selects the SQL dialect of the emitted scripts.
	Dialect duckast.Dialect
	// Strategy selects the ΔV→V combine plan for aggregate views.
	Strategy Strategy
	// Empty selects empty-group detection for step 3.
	Empty EmptyDetection
	// CreateIndex controls whether the setup script creates the group-key
	// index (the view table's primary key on its group columns) that upsert
	// maintenance needs.
	// Disabled automatically for strategies that do not upsert.
	CreateIndex bool
	// DeltaPrefix prefixes generated delta-table names (default "delta_").
	DeltaPrefix string
}

// DefaultOptions returns the paper-faithful defaults.
func DefaultOptions() Options {
	return Options{
		Dialect:     duckast.DialectDuckDB,
		Strategy:    StrategyUpsertLeftJoin,
		Empty:       EmptySumZero,
		CreateIndex: true,
		DeltaPrefix: "delta_",
	}
}

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
	// ClassJoinAggregate composes ClassJoin with ClassAggregate through an
	// intermediate join-delta table.
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
	Name       string
	Type       sqltypes.Type
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
	// Delta is the generated delta table ΔT: capture appends to it, the
	// propagation script reads it and step 4 truncates it.
	Delta   string
	Columns []duckast.ColumnDef
	// Key names the base's primary-key columns when every one of them is
	// NOT NULL (nil otherwise): they identify a row of the base.
	Key []string
}

// Compilation is the full compiler output for one materialized view.
type Compilation struct {
	ViewName string
	Class    QueryClass
	Options  Options

	Bases     []BaseTable
	DeltaView string // delta table of the view itself
	// JoinDelta is the intermediate join-delta table (join classes only).
	JoinDelta string
	// Storage is the table that physically materializes the view. It
	// equals ViewName except when AVG decomposition is in play, in which
	// case a hidden storage table holds the decomposed SUM/COUNT columns
	// and ViewName becomes a plain SQL view over it.
	Storage string

	Columns []ViewColumn
	// Key names the view columns that identify a row of a projection or
	// join view (see viewKey): V's primary key when the setup creates
	// indexes, and what the keyed combine deletes by. Nil for the other
	// classes and for views whose rows have no key.
	Key []string
	// storageCols caches the physical column layout (AVG columns expanded
	// into their SUM and COUNT parts).
	storageCols []ViewColumn

	// Setup holds the DDL script; Propagate the 4-step maintenance script
	// (what PropagateSQL renders and the metadata tables store).
	Setup     *duckast.Script
	Propagate *duckast.Script
	// Body is steps 1–3 of Propagate — the same statement nodes, not a
	// copy. It is what a runtime executes when it performs step 4 itself
	// (truncating ΔV and ΔT through the catalog cannot fail halfway, so a
	// script error never leaves scratch rows a retry would read twice).
	Body *duckast.Script
	// AltBodies holds steps 1–3 under each valid combine strategy
	// (aggregate classes only), enabling the runtime's cost-based choice —
	// the paper's envisioned cost-based optimization over the IVM plan
	// space. The entry for Options.Strategy is Body itself.
	AltBodies map[Strategy]*duckast.Script
	// PopulateSQL fills V from the current base-table contents (initial
	// materialization).
	Populate *duckast.Script

	// Select is the parsed view definition.
	Select *sqlparser.SelectStmt
	// SourceSQL is the original view definition text.
	SourceSQL string
}

// SetupSQL renders the DDL script in the compilation's dialect.
func (c *Compilation) SetupSQL() string { return c.Setup.SQL(c.Options.Dialect) }

// PropagateSQL renders the propagation script in the compilation's dialect.
func (c *Compilation) PropagateSQL() string { return c.Propagate.SQL(c.Options.Dialect) }

// PopulateSQLText renders the initial-materialization script.
func (c *Compilation) PopulateSQLText() string { return c.Populate.SQL(c.Options.Dialect) }

// BaseTableNames lists the referenced base tables.
func (c *Compilation) BaseTableNames() []string {
	out := make([]string, len(c.Bases))
	for i, b := range c.Bases {
		out[i] = b.Name
	}
	return out
}

// DeltaFor returns the delta-table name for a base table ("" if the table
// is not referenced).
func (c *Compilation) DeltaFor(base string) string {
	for _, b := range c.Bases {
		if strings.EqualFold(b.Name, base) {
			return b.Delta
		}
	}
	return ""
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

// HasAvg reports whether any view column is an AVG (decomposed into hidden
// SUM and COUNT storage columns).
func (c *Compilation) HasAvg() bool {
	for _, col := range c.Columns {
		if col.HasAgg && col.Agg == expr.AggAvg {
			return true
		}
	}
	return false
}

// StorageColumns returns the physical layout of the storage table: the
// view columns with every AVG expanded into a SUM part and a COUNT part.
func (c *Compilation) StorageColumns() []ViewColumn {
	if c.storageCols != nil {
		return c.storageCols
	}
	for _, col := range c.Columns {
		if col.HasAgg && col.Agg == expr.AggAvg {
			c.storageCols = append(c.storageCols,
				ViewColumn{Name: col.Name + "_ivm_sum", Type: sqltypes.TypeFloat,
					Agg: expr.AggSum, HasAgg: true, SourceSQL: col.SourceSQL, ArgIdx: col.ArgIdx},
				ViewColumn{Name: col.Name + "_ivm_cnt", Type: sqltypes.TypeInt,
					Agg: expr.AggCount, HasAgg: true, SourceSQL: col.SourceSQL, ArgIdx: col.ArgIdx})
			continue
		}
		c.storageCols = append(c.storageCols, col)
	}
	return c.storageCols
}

// ExposedViewSQL returns the CREATE VIEW statement exposing the declared
// view columns over the storage table, or "" when the storage table *is*
// the view (no AVG decomposition).
func (c *Compilation) ExposedViewSQL() string {
	if !c.HasAvg() {
		return ""
	}
	var items []string
	for _, col := range c.Columns {
		if col.HasAgg && col.Agg == expr.AggAvg {
			items = append(items, fmt.Sprintf(
				"CAST(%s_ivm_sum AS DOUBLE) / %s_ivm_cnt AS %s", col.Name, col.Name, col.Name))
			continue
		}
		items = append(items, col.Name)
	}
	return fmt.Sprintf("CREATE VIEW %s AS SELECT %s FROM %s",
		c.ViewName, strings.Join(items, ", "), c.Storage)
}

// Compiler compiles view definitions against a schema held by an embedded
// engine instance (the "DuckDB inside OpenIVM" of Figure 1).
type Compiler struct {
	DB   *engine.DB
	Opts Options
}

// NewCompiler returns a compiler over db with the given options.
func NewCompiler(db *engine.DB, opts Options) *Compiler {
	if opts.DeltaPrefix == "" {
		opts.DeltaPrefix = "delta_"
	}
	return &Compiler{DB: db, Opts: opts}
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
