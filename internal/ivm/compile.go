package ivm

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/enginerr"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// Compile classifies the view query, validates it against the schema using
// the embedded engine's planner, and generates the setup DDL, initial
// population script and propagation script.
func (c *Compiler) Compile(viewName string, sel *sqlparser.SelectStmt, sourceSQL string) (*Compilation, error) {
	if err := checkViewShape(sel); err != nil {
		return nil, fmt.Errorf("ivm: view %q: %w", viewName, err)
	}

	// Validate and type the query with the engine's planner ("DuckDB
	// inside OpenIVM"): binding errors surface here, and the plan's output
	// schema supplies the view column types.
	s := c.DB.NewSession()
	node, err := s.PlanSelect(sel)
	s.Close()
	if err != nil {
		return nil, fmt.Errorf("ivm: view %q: %w", viewName, err)
	}
	outSchema := node.Schema()

	comp := &Compilation{
		ViewName:  viewName,
		Select:    sel,
		SourceSQL: sourceSQL,
	}

	// Base tables.
	if err := c.resolveBases(comp, sel.From); err != nil {
		return nil, fmt.Errorf("ivm: view %q: %w", viewName, err)
	}

	// Classify and extract view columns.
	if err := c.classify(comp, sel, outSchema); err != nil {
		return nil, fmt.Errorf("ivm: view %q: %w", viewName, err)
	}
	if comp.Class == ClassProjection || comp.Class == ClassJoin {
		// A projection or join view is the GROUP BY of its key, or of all
		// its columns, with the hidden row count as each row's weight.
		comp.Key = viewKey(comp, sel)
		for i, col := range comp.Columns {
			comp.Columns[i].IsGroupKey = comp.Key == nil || slices.Contains(comp.Key, col.Name)
		}
	}

	// Hidden columns (AVG's SUM and COUNT parts, the hidden row count) live
	// in a storage table; a plain SQL view exposes the declared columns.
	comp.Storage = comp.ViewName
	if len(comp.StorageColumns()) != len(comp.Columns) {
		comp.Storage = comp.ViewName + "_ivm_storage"
	}

	// Generate scripts.
	c.genSetup(comp)
	c.genPopulate(comp)
	c.genPropagate(comp)
	return comp, nil
}

// checkViewShape rejects constructs outside the compiler's supported class.
func checkViewShape(sel *sqlparser.SelectStmt) error {
	switch {
	case sel.Values != nil:
		return fmt.Errorf("VALUES cannot be materialized incrementally")
	case len(sel.CTEs) > 0:
		return fmt.Errorf("WITH clauses are not supported in materialized views")
	case sel.Next != nil:
		return fmt.Errorf("set operations are not supported in materialized views")
	case sel.Distinct:
		return fmt.Errorf("DISTINCT is not supported in materialized views")
	case sel.Having != nil:
		return fmt.Errorf("HAVING is not supported (groups could enter and leave the result non-incrementally)")
	case len(sel.OrderBy) > 0 || sel.Limit != nil || sel.Offset != nil:
		return fmt.Errorf("ORDER BY/LIMIT are not supported in materialized views")
	case sel.From == nil:
		return fmt.Errorf("materialized views require a FROM clause")
	}
	return nil
}

// resolveBases fills comp.Bases from the FROM clause: one named table, or
// an inner equi-join of exactly two named tables. A view is no base: no
// delta table follows its rows.
func (c *Compiler) resolveBases(comp *Compilation, from sqlparser.TableRef) error {
	add := func(nt *sqlparser.NamedTable) error {
		if _, isView := c.DB.Catalog().View(nt.Name); isView {
			return enginerr.Newf(enginerr.CodeFeatureNotSupported, "materialized views over the view %s are not supported", nt.Name)
		}
		tbl, err := c.DB.Catalog().Table(nt.Name)
		if err != nil {
			return err
		}
		alias := nt.Alias
		if alias == "" {
			alias = nt.Name
		}
		bt := BaseTable{Name: tbl.Name, Alias: alias, Delta: deltaPrefix + tbl.Name}
		for _, col := range tbl.Columns {
			bt.Columns = append(bt.Columns, duckast.ColumnDef{Name: col.Name, Type: col.Type.String()})
		}
		// A table-level PRIMARY KEY admits a NULL, which `k IN (…)` never
		// selects: such a key cannot key the view.
		if tbl.HasPrimaryKey() {
			bt.Key = tbl.PrimaryKeyColumnNames()
		}
		for _, p := range tbl.PrimaryKeyColumns() {
			if !tbl.Columns[p].NotNull {
				bt.Key = nil
			}
		}
		comp.Bases = append(comp.Bases, bt)
		return nil
	}
	switch f := from.(type) {
	case *sqlparser.NamedTable:
		return add(f)
	case *sqlparser.JoinTable:
		if f.Kind != sqlparser.JoinInner {
			return fmt.Errorf("only INNER equi-joins are supported in materialized views (got %s)", f.Kind)
		}
		lt, lok := f.Left.(*sqlparser.NamedTable)
		rt, rok := f.Right.(*sqlparser.NamedTable)
		if !lok || !rok {
			return fmt.Errorf("joins of more than two tables are not yet supported in materialized views")
		}
		if f.On == nil && len(f.Using) == 0 {
			return fmt.Errorf("join views require an ON or USING clause")
		}
		if err := add(lt); err != nil {
			return err
		}
		return add(rt)
	case *sqlparser.SubqueryTable:
		return fmt.Errorf("derived tables are not supported in materialized views")
	}
	return fmt.Errorf("unsupported FROM clause")
}

// classify determines the query class and extracts the view columns.
func (c *Compiler) classify(comp *Compilation, sel *sqlparser.SelectStmt, outSchema []plan.ColumnInfo) error {
	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if f, ok := it.Expr.(*sqlparser.FuncExpr); ok && expr.IsAggregateName(f.Name) {
			hasAgg = true
		}
	}
	isJoin := len(comp.Bases) == 2
	if isJoin {
		comp.JoinDelta = deltaPrefix + "join_" + comp.ViewName
	}

	switch {
	case hasAgg && isJoin:
		comp.Class = ClassJoinAggregate
	case hasAgg:
		comp.Class = ClassAggregate
	case isJoin:
		comp.Class = ClassJoin
	default:
		comp.Class = ClassProjection
	}

	if !hasAgg {
		for i, it := range sel.Items {
			comp.Columns = append(comp.Columns, ViewColumn{
				Name:      outSchema[i].Name,
				Type:      outSchema[i].Type,
				SourceSQL: sqlparser.ExprString(it.Expr),
			})
		}
		return nil
	}

	// Aggregate classes: every select item is either a group key (matching
	// a GROUP BY expression) or a supported aggregate call.
	groupKeys := map[string]bool{}
	for _, g := range sel.GroupBy {
		if _, ok := g.(*sqlparser.ColumnRef); !ok {
			return fmt.Errorf("GROUP BY expressions must be plain columns (got %s)", sqlparser.ExprString(g))
		}
		groupKeys[strings.ToLower(sqlparser.ExprString(g))] = true
	}
	seenGroups := 0
	for i, it := range sel.Items {
		key := strings.ToLower(sqlparser.ExprString(it.Expr))
		if groupKeys[key] {
			comp.Columns = append(comp.Columns, ViewColumn{
				Name:       outSchema[i].Name,
				Type:       outSchema[i].Type,
				IsGroupKey: true,
				SourceSQL:  sqlparser.ExprString(it.Expr),
			})
			seenGroups++
			continue
		}
		f, ok := it.Expr.(*sqlparser.FuncExpr)
		if !ok || !expr.IsAggregateName(f.Name) {
			return fmt.Errorf("select item %q must be a GROUP BY column or an aggregate", sqlparser.ExprString(it.Expr))
		}
		if f.Distinct {
			return fmt.Errorf("DISTINCT aggregates are not supported in materialized views")
		}
		if f.Star && f.Name != "COUNT" {
			return fmt.Errorf("%s(*) is not valid", f.Name)
		}
		// AVG is not directly maintainable (as the paper notes); it is
		// decomposed into hidden SUM and COUNT storage columns and exposed
		// through a plain view — see Compilation.StorageColumns.
		kind, _ := expr.ParseAggKind(f.Name, f.Star)
		vc := ViewColumn{
			Name:   outSchema[i].Name,
			Type:   outSchema[i].Type,
			Agg:    kind,
			HasAgg: true,
			ArgIdx: len(comp.AggColumns()),
		}
		if !f.Star {
			if containsAgg(f.Args[0]) {
				return fmt.Errorf("nested aggregates are not supported")
			}
			vc.SourceSQL = sqlparser.ExprString(f.Args[0])
		}
		comp.Columns = append(comp.Columns, vc)
	}
	if seenGroups != len(sel.GroupBy) {
		return fmt.Errorf("every GROUP BY column must appear in the select list (found %d of %d)", seenGroups, len(sel.GroupBy))
	}
	if len(comp.AggColumns()) == 0 {
		return fmt.Errorf("aggregate views require at least one aggregate column")
	}
	return nil
}

func containsAgg(e sqlparser.Expr) bool {
	found := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if f, ok := x.(*sqlparser.FuncExpr); ok && expr.IsAggregateName(f.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// baseCol is one column of one of the view's bases: its position in
// Compilation.Bases and its name in lower case.
type baseCol struct {
	base int
	name string
}

// viewKey names the view columns that identify a row of a projection or
// join view, or returns nil when its rows have no key.
//
// A projection view is keyed when its select list names every column of
// its base's key by a plain reference. A join view starts from both bases'
// keys. A base whose whole key ON equates to columns of the other base is
// left out: each row of the other side matches at most one of its rows
// (the FK→PK case). Each remaining key column must be named by a plain
// reference to itself or to a column ON equates it with. Base keys are NOT
// NULL (BaseTable.Key) and inner-join columns never are, so no column of
// V's key ever holds a NULL.
func viewKey(comp *Compilation, sel *sqlparser.SelectStmt) []string {
	colType := func(c baseCol) string {
		for _, col := range comp.Bases[c.base].Columns {
			if strings.EqualFold(col.Name, c.name) {
				return col.Type
			}
		}
		return ""
	}
	// resolve finds the base column a plain reference names.
	resolve := func(e sqlparser.Expr) (baseCol, bool) {
		ref, ok := e.(*sqlparser.ColumnRef)
		if !ok || ref.Star {
			return baseCol{}, false
		}
		var found baseCol
		n := 0
		for i, b := range comp.Bases {
			c := baseCol{i, strings.ToLower(ref.Column)}
			if (ref.Table == "" || strings.EqualFold(ref.Table, b.Alias)) && colType(c) != "" {
				found, n = c, n+1
			}
		}
		return found, n == 1
	}

	// same[c] lists the columns of the other base that ON equates c with.
	same := map[baseCol][]baseCol{}
	equate := func(l, r sqlparser.Expr) {
		a, aok := resolve(l)
		b, bok := resolve(r)
		if aok && bok && a.base != b.base && colType(a) == colType(b) {
			same[a] = append(same[a], b)
			same[b] = append(same[b], a)
		}
	}
	if jt, ok := sel.From.(*sqlparser.JoinTable); ok {
		for _, u := range jt.Using {
			equate(&sqlparser.ColumnRef{Table: comp.Bases[0].Alias, Column: u},
				&sqlparser.ColumnRef{Table: comp.Bases[1].Alias, Column: u})
		}
		for _, c := range sqlparser.Conjuncts(jt.On) {
			if x, ok := c.(*sqlparser.BinaryExpr); ok && x.Op == "=" {
				equate(x.Left, x.Right)
			}
		}
	}

	// nameOf is the view column a plain reference to c, or to a column ON
	// equates c with, names ("" when none does).
	nameOf := func(c baseCol) string {
		for i, it := range sel.Items {
			if r, ok := resolve(it.Expr); ok && (r == c || slices.Contains(same[c], r)) {
				return comp.Columns[i].Name
			}
		}
		return ""
	}
	// keyOf is the view columns naming the keys of bases, or nil. Two key
	// columns named by one view column are equal in every row: one suffices.
	keyOf := func(bases ...int) []string {
		var key []string
		for _, b := range bases {
			if comp.Bases[b].Key == nil {
				return nil
			}
			for _, k := range comp.Bases[b].Key {
				n := nameOf(baseCol{b, strings.ToLower(k)})
				if n == "" {
					return nil
				}
				if !slices.Contains(key, n) {
					key = append(key, n)
				}
			}
		}
		return key
	}
	if len(comp.Bases) == 1 {
		return keyOf(0)
	}
	for b := 1; b >= 0; b-- {
		determined := comp.Bases[b].Key != nil
		for _, k := range comp.Bases[b].Key {
			determined = determined && len(same[baseCol{b, strings.ToLower(k)}]) > 0
		}
		if key := keyOf(1 - b); determined && key != nil {
			return key
		}
	}
	return keyOf(0, 1)
}

// hasMinMax reports whether any aggregate column is MIN or MAX.
func (c *Compilation) hasMinMax() bool {
	for _, col := range c.AggColumns() {
		if col.Agg == expr.AggMin || col.Agg == expr.AggMax {
			return true
		}
	}
	return false
}

// genSetup builds the DDL script: ΔT per base table, V with its key index,
// and the join delta of a two-table view.
func (c *Compiler) genSetup(comp *Compilation) {
	s := &duckast.Script{}

	// Delta tables for the base tables.
	for _, b := range comp.Bases {
		cols := append([]duckast.ColumnDef{}, b.Columns...)
		cols = append(cols, duckast.ColumnDef{Name: MultiplicityColumn, Type: "BOOLEAN"})
		s.Add(&duckast.CreateTable{Name: b.Delta, IfNotExists: true, Columns: cols})
	}

	// The table materializing the view (the storage table when the view
	// keeps hidden columns).
	var viewCols []duckast.ColumnDef
	for _, col := range comp.StorageColumns() {
		viewCols = append(viewCols, duckast.ColumnDef{Name: col.Name, Type: col.Type.String()})
	}
	// The index on the group columns is the table's key: step 2's ON
	// CONFLICT resolves conflicts through it, as DuckDB's does through its
	// ART (paper §2: upserts need an index). UNIQUE NULLS NOT DISTINCT, not
	// PRIMARY KEY, which makes its columns NOT NULL: V holds one NULL group.
	s.Add(&duckast.CreateTable{Name: comp.Storage, IfNotExists: true, Columns: viewCols,
		Key: viewColNames(comp.GroupColumns())})
	if comp.Storage != comp.ViewName {
		s.Add(comp.exposedView())
	}

	// The join delta of a two-table view: the values of the view columns
	// it holds (joinDeltaColumns) and the multiplicity.
	if comp.JoinDelta != "" {
		var jd []duckast.ColumnDef
		for _, col := range joinDeltaColumns(comp) {
			jd = append(jd, duckast.ColumnDef{Name: joinDeltaColumn(col), Type: col.Type.String()})
		}
		jd = append(jd, duckast.ColumnDef{Name: MultiplicityColumn, Type: "BOOLEAN"})
		s.Add(&duckast.CreateTable{Name: comp.JoinDelta, IfNotExists: true, Columns: jd})
	}

	comp.Setup = s
}

// fromSQL reconstructs the view's FROM clause (with aliases) as SQL.
func fromSQL(comp *Compilation) string {
	l := comp.Bases[0]
	if len(comp.Bases) == 1 {
		return l.as(l.Name)
	}
	r := comp.Bases[1]
	return l.as(l.Name) + " JOIN " + r.as(r.Name) + " ON " + joinOnSQL(comp.Select.From.(*sqlparser.JoinTable), l.Alias, r.Alias)
}

// joinOnSQL renders the join predicate (expanding USING).
func joinOnSQL(jt *sqlparser.JoinTable, lAlias, rAlias string) string {
	if len(jt.Using) > 0 {
		parts := make([]string, len(jt.Using))
		for i, col := range jt.Using {
			parts[i] = fmt.Sprintf("%s.%s = %s.%s", lAlias, col, rAlias, col)
		}
		return strings.Join(parts, " AND ")
	}
	return sqlparser.ExprString(jt.On)
}

// genPopulate builds the initial-materialization script: V := Q(T).
func (c *Compiler) genPopulate(comp *Compilation) {
	s := &duckast.Script{}
	s.Add(&duckast.Insert{Table: comp.Storage, Select: storageQuery(comp, fromSQL(comp))})
	comp.Populate = s
}

// storageQuery is the view's query over from, selecting the storage
// columns: what V holds for the rows from yields. A keyless projection or
// join view groups the query's rows by all its columns, named over
// viewRows: each distinct row once, with its copies counted as its weight.
// A keyed one holds one row per key, each of weight 1, and groups nothing.
func storageQuery(comp *Compilation, from string) *duckast.Select {
	src, where, grouped := func(col ViewColumn) string { return col.SourceSQL }, whereSQL(comp), comp.Key == nil
	if grouped && (comp.Class == ClassProjection || comp.Class == ClassJoin) {
		from, where = viewRows(comp, from), ""
		src = func(col ViewColumn) string { return col.Name }
	}
	sel := &duckast.Select{From: &duckast.Raw{Text: from}}
	for _, col := range comp.StorageColumns() {
		item := src(col)
		switch {
		case col.HasAgg && !grouped:
			item = "1"
		case col.HasAgg:
			item = fmt.Sprintf("%s(%s)", col.Agg, cmp.Or(col.SourceSQL, "*")) // COUNT(*) has no argument
		case grouped:
			sel.GroupBy = append(sel.GroupBy, &duckast.Raw{Text: item})
		}
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: item}, Alias: col.Name})
	}
	if where != "" {
		sel.Where = &duckast.Raw{Text: where}
	}
	return sel
}

// viewRows renders the view's query over from, a projection of its rows
// with the extra columns appended, as a derived table whose columns are the
// view's, by name: GROUP BY reads a constant column as a position, a name
// never.
func viewRows(comp *Compilation, from string, extra ...string) string {
	srcs := make([]string, len(comp.Columns))
	for i, col := range comp.Columns {
		srcs[i] = col.SourceSQL
	}
	sel := &duckast.Select{Items: aliased(srcs, comp.Columns), From: &duckast.Raw{Text: from}}
	for _, e := range extra {
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: e}})
	}
	if w := whereSQL(comp); w != "" {
		sel.Where = &duckast.Raw{Text: w}
	}
	return "(" + sel.SQL() + ") AS ivm_rows"
}
