// Package plan defines the logical query plan and the binder that resolves
// parser ASTs against the catalog — the planner stage of the embedded
// engine, mirroring the role the DuckDB planner plays inside OpenIVM.
package plan

import (
	"fmt"
	"strings"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// ColumnInfo describes one output column of a plan node.
type ColumnInfo struct {
	Table string // binding alias ("" for computed columns)
	Name  string
	Type  sqltypes.Type
}

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output columns.
	Schema() []ColumnInfo
	// Children returns input operators (for rewrites and display).
	Children() []Node
	// Describe returns a one-line operator description for EXPLAIN.
	Describe() string
}

// Scan reads a base table.
type Scan struct {
	Table *catalog.Table
	Alias string
	// Projection is the set of column positions to emit (nil = all); filled
	// by the projection-pruning optimizer rule.
	Projection []int
	// Filter is a pushed-down predicate evaluated against the full table
	// row (before Projection); nil when absent.
	Filter expr.Expr
	schema []ColumnInfo
}

// NewScan builds a scan node over a catalog table.
func NewScan(t *catalog.Table, alias string) *Scan {
	if alias == "" {
		alias = t.Name
	}
	s := &Scan{Table: t, Alias: alias}
	for _, c := range t.Columns {
		s.schema = append(s.schema, ColumnInfo{Table: alias, Name: c.Name, Type: c.Type})
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema() []ColumnInfo {
	if s.Projection == nil {
		return s.schema
	}
	out := make([]ColumnInfo, len(s.Projection))
	for i, p := range s.Projection {
		out[i] = s.schema[p]
	}
	return out
}

// FullSchema returns the schema before projection pruning.
func (s *Scan) FullSchema() []ColumnInfo { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Describe implements Node. How the scan finds its rows is asked of the
// function the executor asks at open (PinnedKeys), with the parameters
// bound now: an unbound `$1` pins nothing.
func (s *Scan) Describe() string {
	d := "Scan " + s.Table.Name
	keys := PinnedKeys(s.Table, s.Filter)
	if keys != nil {
		d = "KeyedScan " + s.Table.Name + "[pk]"
	}
	if s.Alias != s.Table.Name {
		d += " AS " + s.Alias
	}
	if keys != nil {
		d += " " + keys.String()
	}
	if s.Filter != nil {
		d += " [filter: " + s.Filter.String() + "]"
	}
	return d
}

// Values produces literal rows (VALUES lists, SELECT without FROM): Rows,
// or, for a list the lexer lifted out of the text, the Lifted-th (1-based)
// list of rows in Params, read per execution.
type Values struct {
	Rows    [][]expr.Expr
	Lifted  int
	Params  *expr.ParamBinding
	Columns []ColumnInfo
}

// Schema implements Node.
func (v *Values) Schema() []ColumnInfo { return v.Columns }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// LiftedRows returns the rows of a lifted list as bound now (nil when the
// list is not lifted or not bound).
func (v *Values) LiftedRows() []sqltypes.Row {
	if v.Lifted < 1 || v.Lifted > len(v.Params.Rows) {
		return nil
	}
	return v.Params.Rows[v.Lifted-1]
}

// Describe implements Node.
func (v *Values) Describe() string {
	if v.Lifted > 0 {
		return fmt.Sprintf("Values ($%d rows)", v.Lifted)
	}
	return fmt.Sprintf("Values (%d rows)", len(v.Rows))
}

// Filter keeps rows where Pred evaluates to TRUE.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() []ColumnInfo { return f.Input.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Project computes output expressions.
type Project struct {
	Input Node
	Exprs []expr.Expr
	Cols  []ColumnInfo
}

// Schema implements Node.
func (p *Project) Schema() []ColumnInfo { return p.Cols }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Aggregate groups by GroupBy and computes Aggs. Output schema: group
// columns first, aggregate results after.
type Aggregate struct {
	Input   Node
	GroupBy []expr.Expr
	Aggs    []*expr.Aggregate
	Cols    []ColumnInfo
}

// Schema implements Node.
func (a *Aggregate) Schema() []ColumnInfo { return a.Cols }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, ag := range a.Aggs {
		parts = append(parts, ag.String())
	}
	return "HashAggregate " + strings.Join(parts, ", ")
}

// Join combines two inputs. On is evaluated over the concatenation of the
// left and right schemas. EquiLeft/EquiRight hold the positions of
// equality key pairs extracted from On (enabling the hash and index joins);
// the residual non-equi condition remains in On.
type Join struct {
	Kind        sqlparser.JoinKind
	Left, Right Node
	On          expr.Expr // residual predicate (may be nil)
	EquiLeft    []int     // key positions in Left schema
	EquiRight   []int     // key positions in Right schema
}

// Schema implements Node.
func (j *Join) Schema() []ColumnInfo {
	l, r := j.Left.Schema(), j.Right.Schema()
	out := make([]ColumnInfo, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node. It names the build side and the algorithm the
// executor would run the join as right now: BuildSide and ChooseJoin, the
// executor's own deciders, fed the build side's SourceRows. A build side
// whose count is known only once drained (a join, a set operation) may run
// either way, and says so.
func (j *Join) Describe() string {
	buildLeft, rows, known := j.BuildSide()
	side := "right"
	if buildLeft {
		side = "left"
	}
	var d string
	switch s := ChooseJoin(j, buildLeft, rows); s.Algo {
	case IndexJoin:
		d = fmt.Sprintf("IndexJoin %s[%s]", s.Probe.Table.Name, s.Index.Name)
		if !known {
			d = "HashJoin or " + d
		}
	case HashJoin:
		d = "HashJoin"
	default:
		d = "NestedLoop"
	}
	d += " build=" + side + " " + j.Kind.String()
	if len(j.EquiLeft) > 0 {
		d += fmt.Sprintf(" (keys: %v=%v)", j.EquiLeft, j.EquiRight)
	}
	if j.On != nil {
		d += " [residual: " + j.On.String() + "]"
	}
	return d
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Node }

// Schema implements Node.
func (d *Distinct) Schema() []ColumnInfo { return d.Input.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *Distinct) Describe() string { return "Distinct" }

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() []ColumnInfo { return s.Input.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit truncates the row stream.
type Limit struct {
	Input  Node
	Limit  int64 // -1 = unlimited
	Offset int64
}

// Schema implements Node.
func (l *Limit) Schema() []ColumnInfo { return l.Input.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d OFFSET %d", l.Limit, l.Offset) }

// SetOp applies UNION/EXCEPT/INTERSECT.
type SetOp struct {
	Op          sqlparser.SetOp
	Left, Right Node
}

// Schema implements Node.
func (s *SetOp) Schema() []ColumnInfo { return s.Left.Schema() }

// Children implements Node.
func (s *SetOp) Children() []Node { return []Node{s.Left, s.Right} }

// Describe implements Node.
func (s *SetOp) Describe() string {
	switch s.Op {
	case sqlparser.SetUnion:
		return "Union"
	case sqlparser.SetUnionAll:
		return "UnionAll"
	case sqlparser.SetExcept:
		return "Except"
	case sqlparser.SetExceptAll:
		return "ExceptAll"
	case sqlparser.SetIntersect:
		return "Intersect"
	}
	return "SetOp"
}

// ScanPipeline matches the fusible Project? → Filter* → Scan chain at the
// root of a plan subtree. When ok, scan is the base table access, filters
// holds the predicates of any Filter nodes stacked above it (bottom-up,
// bound against the scan's output schema — the scan's own pushed-down
// Filter is not included since it is bound against the full row), and proj
// is the optional projection on top. The executor uses the match to
// collapse the chain into a single fused pass over each batch.
//
// A bare Scan (no stacked Filter, no Project) is not reported as a
// pipeline: there is nothing to fuse.
func ScanPipeline(n Node) (scan *Scan, filters []expr.Expr, proj *Project, ok bool) {
	if p, isProj := n.(*Project); isProj {
		proj = p
		n = p.Input
	}
	for {
		f, isFilter := n.(*Filter)
		if !isFilter {
			break
		}
		filters = append(filters, f.Pred)
		n = f.Input
	}
	scan, isScan := n.(*Scan)
	if !isScan {
		return nil, nil, nil, false
	}
	if proj == nil && len(filters) == 0 && scan.Filter == nil {
		return nil, nil, nil, false
	}
	return scan, filters, proj, true
}

// Explain renders a plan tree as an indented string.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Describe())
	sb.WriteByte('\n')
	for _, c := range n.Children() {
		explain(sb, c, depth+1)
	}
}

// Walk visits the plan tree depth-first, parents before children.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}
