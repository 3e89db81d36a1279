package ivm

import (
	"fmt"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
)

// genPropagate builds the 4-step propagation script for the compiled view.
//
// Step 1  insert Q*(ΔT) into ΔV (the DBSP-rewritten query over the deltas);
// Step 2  fold ΔV into V (aggregates: Listing 2's upsert);
// Step 3  delete invalidated rows from V (empty groups / deleted tuples);
// Step 4  truncate ΔV and every ΔT.
//
// A keyed projection or join view does steps 2–3 as one combine whose
// delete comes first (emitKeyedCombine).
func (c *Compiler) genPropagate(comp *Compilation) {
	body := &duckast.Script{}
	switch comp.Class {
	case ClassProjection:
		c.propProjection(comp, body)
	case ClassAggregate:
		c.propAggregate(comp, body)
	case ClassJoin:
		c.propJoin(comp, body)
	case ClassJoinAggregate:
		c.propJoinAggregate(comp, body)
	}
	comp.Body = body
	// Propagate is Body's statement nodes followed by step 4: truncate the
	// view-local delta tables, then every ΔT.
	full := &duckast.Script{}
	full.Add(body.Stmts...)
	full.Add(&duckast.Delete{Table: comp.DeltaView})
	if comp.JoinDelta != "" {
		full.Add(&duckast.Delete{Table: comp.JoinDelta})
	}
	for _, b := range comp.Bases {
		full.Add(&duckast.Delete{Table: b.Delta})
	}
	comp.Propagate = full
}

// mcol returns the multiplicity column reference, optionally qualified.
func mcol(qual string) string {
	if qual == "" {
		return MultiplicityColumn
	}
	return qual + "." + MultiplicityColumn
}

// rowIn renders "this row of a projection or join view over cols is one of
// the rows `SELECT cols FROM from` yields", NULL-safely. A row without a
// NULL is compared as a row value. IN never selects a row holding a NULL,
// so such a row is compared through rowKey instead — per row of the view
// that costs one IS NULL test per column, the key is built only for the
// rows that need it.
func rowIn(cols []string, from string) string {
	list, key := strings.Join(cols, ", "), rowKey(cols)
	return fmt.Sprintf("%s IN (SELECT %s FROM %s) OR ((%s IS NULL) AND %s IN (SELECT %s FROM %s))",
		groupKey(cols), list, from, strings.Join(cols, " IS NULL OR "), key, key, from)
}

// rowKey builds a row-identity string over column names that is never
// NULL: each column becomes a tagged part — 'N' for NULL, otherwise the
// value prefixed with its length, which keeps ('a|', 'b') and ('a', '|b')
// apart — and the parts are concatenated (the portable-SQL stand-in for
// IS NOT DISTINCT FROM over a row).
func rowKey(cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("COALESCE(LENGTH(CAST(%s AS VARCHAR)) || ':' || %s, 'N')", c, c)
	}
	return strings.Join(parts, " || ")
}

// groupKey renders a group key for IN: the column itself, or the row
// value (g1, g2) for a composite key.
func groupKey(cols []string) string {
	if len(cols) == 1 {
		return cols[0]
	}
	return "(" + strings.Join(cols, ", ") + ")"
}

func viewColNames(cols []ViewColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

func groupSrcSQL(cols []ViewColumn) []string {
	var out []string
	for _, c := range cols {
		if c.IsGroupKey {
			out = append(out, c.SourceSQL)
		}
	}
	return out
}

// whereSQL renders the view's WHERE predicate ("" when absent).
func whereSQL(comp *Compilation) string {
	if comp.Select.Where == nil {
		return ""
	}
	return sqlparser.ExprString(comp.Select.Where)
}

// deltaSourceSQL returns the single-table FROM clause with the base table
// replaced by its delta, keeping the original alias so that the view's
// expressions still resolve.
func deltaSourceSQL(b BaseTable) string {
	if b.Alias != b.Name {
		return b.Delta + " AS " + b.Alias
	}
	return b.Delta
}

// --- projection / filter views -------------------------------------------

// propProjection emits the σ/π incremental form: identical query over ΔT,
// multiplicity carried through (DBSP: σ* = σ, π* = π).
func (c *Compiler) propProjection(comp *Compilation, s *duckast.Script) {
	b := comp.Bases[0]

	// Step 1: ΔV := π(σ(ΔT)).
	sel := &duckast.Select{From: &duckast.Raw{Text: deltaSourceSQL(b)}}
	for _, col := range comp.Columns {
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
	}
	sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: MultiplicityColumn}})
	if w := whereSQL(comp); w != "" {
		sel.Where = &duckast.Raw{Text: w}
	}
	s.Add(&duckast.Insert{Table: comp.DeltaView, Select: sel})
	if comp.Key != nil {
		emitKeyedCombine(comp, s)
		return
	}

	// Step 2: insert the insertions (multiplicity TRUE), dropping the
	// multiplicity column.
	names := viewColNames(comp.Columns)
	ins := &duckast.Select{From: &duckast.Raw{Text: comp.DeltaView}, Where: &duckast.Raw{Text: mcol("") + " = TRUE"}}
	for _, n := range names {
		ins.Items = append(ins.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: n}})
	}
	s.Add(&duckast.Insert{Table: comp.ViewName, Select: ins})

	// Step 3: delete rows invalidated by FALSE multiplicity.
	s.Add(&duckast.Delete{
		Table: comp.ViewName,
		Where: &duckast.Raw{Text: rowIn(names,
			fmt.Sprintf("%s WHERE %s = FALSE", comp.DeltaView, MultiplicityColumn))},
	})
}

// --- aggregate views -------------------------------------------------------

// signedDeltaSQL renders the per-group signed combination of one ΔV column
// inside the ivm_cte (paper Listing 2 line 8): additive aggregates negate
// under FALSE multiplicity; MIN/MAX keep only insertions (deletions are
// handled by the rescan-repair steps).
func signedDeltaSQL(col ViewColumn) string {
	switch col.Agg {
	case expr.AggMin:
		return fmt.Sprintf("MIN(CASE WHEN %s = TRUE THEN %s END)", MultiplicityColumn, col.Name)
	case expr.AggMax:
		return fmt.Sprintf("MAX(CASE WHEN %s = TRUE THEN %s END)", MultiplicityColumn, col.Name)
	default: // SUM, COUNT, COUNT(*), hidden count
		return fmt.Sprintf("SUM(CASE WHEN %s = FALSE THEN -%s ELSE %s END)",
			MultiplicityColumn, col.Name, col.Name)
	}
}

// combineSQL renders the V ⊕ ΔV combination for one aggregate column,
// given the column's value in V (vc) and its signed ΔV total (dc).
func combineSQL(col ViewColumn, vc, dc string) string {
	switch col.Agg {
	case expr.AggMin:
		return fmt.Sprintf("LEAST(COALESCE(%s, %s), COALESCE(%s, %s))", vc, dc, dc, vc)
	case expr.AggMax:
		return fmt.Sprintf("GREATEST(COALESCE(%s, %s), COALESCE(%s, %s))", vc, dc, dc, vc)
	default:
		return fmt.Sprintf("COALESCE(%s, 0) + COALESCE(%s, 0)", vc, dc)
	}
}

// propAggregate emits the GROUP BY incremental form (paper Listing 2).
func (c *Compiler) propAggregate(comp *Compilation, s *duckast.Script) {
	b := comp.Bases[0]

	// Step 1: ΔV := γ(ΔT) grouped by (keys, multiplicity).
	step1 := &duckast.Select{From: &duckast.Raw{Text: deltaSourceSQL(b)}}
	for _, col := range comp.StorageColumns() {
		switch {
		case col.IsGroupKey:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
		default:
			step1.Items = append(step1.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: aggCallSQL(col.Agg, col.SourceSQL)}, Alias: col.Name})
		}
	}
	step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: MultiplicityColumn}})
	if w := whereSQL(comp); w != "" {
		step1.Where = &duckast.Raw{Text: w}
	}
	for _, g := range groupSrcSQL(comp.Columns) {
		step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: g})
	}
	step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: MultiplicityColumn})
	s.Add(&duckast.Insert{Table: comp.DeltaView, Select: step1})

	// Step 2: combine ΔV into V.
	c.emitCombine(comp, s)

	// Steps 2b/2c: MIN/MAX deletions cannot be combined incrementally —
	// rescan-repair the affected groups from the base table.
	if comp.hasMinMax() {
		c.emitMinMaxRepair(comp, s, fromSQL(comp, comp.Select))
	}

	// Step 3: delete invalidated rows.
	c.emitEmptyGroupDelete(comp, s)
}

// emitCombine emits step 2, Listing 2's plan: aggregate ΔV per group with
// its signs applied (ivm_cte), LEFT JOIN it to V on the group key and
// INSERT OR REPLACE the combined rows — through V's key index, so the fold
// costs what ΔV costs. The join compares keys with IS NOT DISTINCT FROM,
// so a group whose key holds a NULL finds its row of V too.
func (c *Compiler) emitCombine(comp *Compilation, s *duckast.Script) {
	const dAlias = "ivm_delta"
	vName := comp.Storage
	groupNames := viewColNames(comp.GroupColumns())
	if len(groupNames) == 0 {
		emitGlobalCombine(comp, s)
		return
	}

	// The CTE: per-group signed aggregation of ΔV (Listing 2 lines 6-10).
	cte := &duckast.Select{From: &duckast.Raw{Text: comp.DeltaView}}
	for _, g := range groupNames {
		cte.Items = append(cte.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: g}})
		cte.GroupBy = append(cte.GroupBy, &duckast.Raw{Text: g})
	}
	var onParts []string
	for _, g := range groupNames {
		onParts = append(onParts, fmt.Sprintf("%s.%s IS NOT DISTINCT FROM %s.%s", vName, g, dAlias, g))
	}
	sel := &duckast.Select{
		CTEs: []duckast.CTE{{Name: "ivm_cte", Select: cte}},
		From: &duckast.Raw{Text: fmt.Sprintf("ivm_cte AS %s LEFT JOIN %s ON %s",
			dAlias, vName, strings.Join(onParts, " AND "))},
	}
	for _, g := range groupNames {
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Col{Table: dAlias, Name: g}})
	}
	for _, col := range comp.StorageColumns() {
		if col.IsGroupKey {
			continue
		}
		cte.Items = append(cte.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: signedDeltaSQL(col)}, Alias: col.Name})
		sel.Items = append(sel.Items, duckast.SelectItem{
			Expr: &duckast.Raw{Text: combineSQL(col, vName+"."+col.Name, dAlias+"."+col.Name)}, Alias: col.Name})
	}
	s.Add(&duckast.Insert{
		Table: vName, Columns: viewColNames(comp.StorageColumns()), Select: sel,
		Upsert: true, KeyColumns: groupNames,
	})
}

// emitGlobalCombine is step 2 of a view without GROUP BY. Such a view is
// one row whatever its base holds (an aggregate over no rows is a row too),
// so ΔV folds into that row in place: each column adds its signed ΔV total,
// a scalar subquery over ΔV.
func emitGlobalCombine(comp *Compilation, s *duckast.Script) {
	up := &duckast.Update{Table: comp.Storage}
	for _, col := range comp.StorageColumns() {
		d := fmt.Sprintf("(SELECT %s FROM %s)", signedDeltaSQL(col), comp.DeltaView)
		up.Set = append(up.Set, col.Name+" = "+combineSQL(col, col.Name, d))
	}
	s.Add(up)
}

// emitMinMaxRepair emits the rescan-repair for MIN/MAX deletions: the
// groups a deletion touched leave V and are recomputed from the base
// relation, so a group whose last row was deleted stays out. V's rows are
// found through rowIn, which matches a NULL-keyed group too, and the base's
// through a join on IS NOT DISTINCT FROM. A view without GROUP BY is
// recomputed whole when ΔV holds a deletion; an aggregate over no rows is a
// row too, so that recompute is filtered from outside.
func (c *Compiler) emitMinMaxRepair(comp *Compilation, s *duckast.Script, from string) {
	groupNames := viewColNames(comp.GroupColumns())
	deleted := fmt.Sprintf("%s WHERE %s = FALSE", comp.DeltaView, MultiplicityColumn)
	recompute := &duckast.Select{From: &duckast.Raw{Text: from}}
	var touched duckast.Node
	if len(groupNames) == 0 {
		touched = &duckast.Raw{Text: fmt.Sprintf("(SELECT COUNT(*) FROM %s) > 0", deleted)}
		s.Add(&duckast.Delete{Table: comp.Storage, Where: touched})
	} else {
		s.Add(&duckast.Delete{Table: comp.Storage, Where: &duckast.Raw{Text: rowIn(groupNames, deleted)}})
		// ΔV holds at most one row per group and multiplicity, so the join
		// repeats no base row.
		del := &duckast.Select{From: &duckast.Raw{Text: deleted}}
		var on []string
		for i, src := range groupSrcSQL(comp.Columns) {
			alias := fmt.Sprintf("ivm_g%d", i)
			del.Items = append(del.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: groupNames[i]}, Alias: alias})
			on = append(on, fmt.Sprintf("%s IS NOT DISTINCT FROM ivm_deleted.%s", src, alias))
		}
		recompute.From = &duckast.Raw{Text: fmt.Sprintf("%s JOIN (%s) AS ivm_deleted ON %s",
			from, del.SQL(comp.Options.Dialect), strings.Join(on, " AND "))}
	}
	for _, col := range comp.StorageColumns() {
		switch {
		case col.IsGroupKey:
			recompute.Items = append(recompute.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
		default:
			recompute.Items = append(recompute.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: aggCallSQL(col.Agg, col.SourceSQL)}, Alias: col.Name})
		}
	}
	if w := whereSQL(comp); w != "" {
		recompute.Where = &duckast.Raw{Text: w}
	}
	for _, g := range groupSrcSQL(comp.Columns) {
		recompute.GroupBy = append(recompute.GroupBy, &duckast.Raw{Text: g})
	}
	if touched != nil {
		recompute = &duckast.Select{Items: []duckast.SelectItem{{Expr: &duckast.Raw{Text: "*"}}},
			From:  &duckast.Raw{Text: "(" + recompute.SQL(comp.Options.Dialect) + ") AS ivm_all"},
			Where: touched}
	}
	s.Add(&duckast.Insert{Table: comp.Storage, Columns: viewColNames(comp.StorageColumns()), Select: recompute})
}

// emitEmptyGroupDelete emits step 3: delete the groups whose row count
// reached zero. The count is the view's COUNT(*), declared or hidden
// (StorageColumns), and no other column is tested: a SUM or a COUNT(col)
// reaches zero in a group that still has rows. This departs on purpose
// from Listing 2's `WHERE total_value = 0`, which drops a group whose SUM
// nets to 0. Only a group ΔV touched can have changed its count, so the
// paper's unkeyed delete is stated over those keys alone — the same rows,
// found through V's key index in O(|ΔV|) instead of by scanning V. IN
// never selects a group with a NULL in its key, so those stay under the
// unkeyed test (`OR g IS NULL`). A view without group columns keeps its
// one row: emptied, it reads what the query reads over no rows, NULL in
// every column but a count.
func (c *Compiler) emitEmptyGroupDelete(comp *Compilation, s *duckast.Script) {
	col := emptyGroupColumn(comp)
	groups := viewColNames(comp.GroupColumns())
	if len(groups) == 0 {
		up := &duckast.Update{Table: comp.Storage, Where: &duckast.Raw{Text: col + " = 0"}}
		for _, a := range comp.StorageColumns() {
			if a.Agg != expr.AggCount && a.Agg != expr.AggCountStar {
				up.Set = append(up.Set, a.Name+" = NULL")
			}
		}
		if len(up.Set) > 0 {
			s.Add(up)
		}
		return
	}
	s.Add(&duckast.Delete{Table: comp.Storage, Where: &duckast.Raw{Text: fmt.Sprintf(
		"(%s IN (SELECT %s FROM %s) OR %s IS NULL) AND %s = 0",
		groupKey(groups), strings.Join(groups, ", "), comp.DeltaView,
		strings.Join(groups, " IS NULL OR "), col)}})
}

// emptyGroupColumn names the view's row count: its first COUNT(*) storage
// column, the declared one or the hidden one.
func emptyGroupColumn(comp *Compilation) string {
	for _, a := range comp.StorageColumns() {
		if a.Agg == expr.AggCountStar {
			return a.Name
		}
	}
	panic("ivm: aggregate view without a row count")
}

// --- join views -------------------------------------------------------------

// joinDeltaTerms emits the DBSP product-rule terms as three SELECTs over
// (ΔA ⋈ B'), (A' ⋈ ΔB) and (ΔA ⋈ ΔB), with multiplicity expressions
// ΔA.m, ΔB.m and (ΔA.m <> ΔB.m) respectively — the last term compensates
// for the deltas already being applied to the (post-state) base tables.
// items(selector) produces the projection for each term.
func joinDeltaTerms(comp *Compilation, items func(sel *duckast.Select)) []*duckast.Select {
	jt := comp.Select.From.(*sqlparser.JoinTable)
	a, b := comp.Bases[0], comp.Bases[1]
	on := joinOnSQL(jt, a.Alias, b.Alias)
	w := whereSQL(comp)

	mk := func(left, right, multExpr string) *duckast.Select {
		sel := &duckast.Select{From: &duckast.Raw{Text: left + " JOIN " + right + " ON " + on}}
		items(sel)
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: multExpr}, Alias: MultiplicityColumn})
		if w != "" {
			sel.Where = &duckast.Raw{Text: w}
		}
		return sel
	}
	aliased := func(table, alias string) string {
		if alias != table {
			return table + " AS " + alias
		}
		return table
	}
	return []*duckast.Select{
		mk(a.Delta+" AS "+a.Alias, aliased(b.Name, b.Alias), mcol(a.Alias)),
		mk(aliased(a.Name, a.Alias), b.Delta+" AS "+b.Alias, mcol(b.Alias)),
		mk(a.Delta+" AS "+a.Alias, b.Delta+" AS "+b.Alias,
			fmt.Sprintf("%s <> %s", mcol(a.Alias), mcol(b.Alias))),
	}
}

// propJoin emits the incremental form of a two-table equi-join view.
func (c *Compiler) propJoin(comp *Compilation, s *duckast.Script) {
	// Step 1: the three product-rule terms feed ΔV.
	terms := joinDeltaTerms(comp, func(sel *duckast.Select) {
		for _, col := range comp.Columns {
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
		}
	})
	for _, t := range terms {
		s.Add(&duckast.Insert{Table: comp.DeltaView, Select: t})
	}
	if comp.Key != nil {
		emitKeyedCombine(comp, s)
		return
	}

	// Step 2: net ΔV per row (the compensation term produces cancelling
	// pairs even for insert-only workloads) and apply insertions.
	names := viewColNames(comp.Columns)
	s.Add(&duckast.Insert{Table: comp.ViewName, Select: netRows(comp, names, "> 0")})

	// Step 3: apply net deletions.
	s.Add(&duckast.Delete{
		Table: comp.ViewName,
		Where: &duckast.Raw{Text: rowIn(names, fmt.Sprintf("%s GROUP BY %s HAVING %s < 0",
			comp.DeltaView, strings.Join(names, ", "), netCount))},
	})
}

// netCount is a row's net multiplicity over ΔV grouped by the view columns.
const netCount = "SUM(CASE WHEN " + MultiplicityColumn + " = TRUE THEN 1 ELSE -1 END)"

// netRows selects cols of the ΔV rows whose net multiplicity satisfies cmp
// ("> 0": inserted, "< 0": retracted).
func netRows(comp *Compilation, cols []string, cmp string) *duckast.Select {
	sel := &duckast.Select{From: &duckast.Raw{Text: comp.DeltaView},
		Having: &duckast.Raw{Text: netCount + " " + cmp}}
	for _, n := range cols {
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: n}})
	}
	for _, col := range comp.Columns {
		sel.GroupBy = append(sel.GroupBy, &duckast.Raw{Text: col.Name})
	}
	return sel
}

// emitKeyedCombine emits steps 2–3 of a keyed projection or join view:
// delete, through V's key, every key whose row nets below zero in ΔV, then
// insert the rows that net above zero. Rows are unique per key, so a key
// nets to at most one retracted and one inserted row; a row retracted and
// re-inserted unchanged nets to nothing, and deleting first keeps the
// INSERT free of key conflicts.
func emitKeyedCombine(comp *Compilation, s *duckast.Script) {
	s.Add(&duckast.Delete{
		Table: comp.ViewName,
		Where: &duckast.Raw{Text: fmt.Sprintf("%s IN (%s)",
			groupKey(comp.Key), netRows(comp, comp.Key, "< 0").SQL(comp.Options.Dialect))},
	})
	s.Add(&duckast.Insert{Table: comp.ViewName, Select: netRows(comp, viewColNames(comp.Columns), "> 0")})
}

// propJoinAggregate composes the join product rule with aggregation through
// the intermediate join-delta table.
func (c *Compiler) propJoinAggregate(comp *Compilation, s *duckast.Script) {
	// Step 1a-c: fill the join-delta intermediate.
	aggCols := comp.AggColumns()
	terms := joinDeltaTerms(comp, func(sel *duckast.Select) {
		for _, col := range comp.Columns {
			if col.IsGroupKey {
				sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
			}
		}
		for _, col := range aggCols {
			if col.SourceSQL == "" {
				continue // COUNT(*) needs no argument column
			}
			sel.Items = append(sel.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: fmt.Sprintf("ivm_arg_%d", col.ArgIdx)})
		}
	})
	for _, t := range terms {
		s.Add(&duckast.Insert{Table: comp.JoinDelta, Select: t})
	}

	// Step 1d: aggregate the join-delta into ΔV, grouped by (keys, m).
	// Aggregate argument columns are named ivm_arg_<i> where i indexes the
	// view's aggregate columns (matching joinDeltaTerms and genSetup).
	step1 := &duckast.Select{From: &duckast.Raw{Text: comp.JoinDelta}}
	for _, col := range comp.StorageColumns() {
		switch {
		case col.IsGroupKey:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.Name}})
			step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: col.Name})
		default: // COUNT(*) has no argument column: aggCallSQL ignores it
			step1.Items = append(step1.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: aggCallSQL(col.Agg, fmt.Sprintf("ivm_arg_%d", col.ArgIdx))}, Alias: col.Name})
		}
	}
	step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: MultiplicityColumn}})
	step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: MultiplicityColumn})
	s.Add(&duckast.Insert{Table: comp.DeltaView, Select: step1})

	// Step 2: combine, with MIN/MAX repair recomputing from the full join.
	c.emitCombine(comp, s)
	if comp.hasMinMax() {
		c.emitMinMaxRepair(comp, s, fromSQL(comp, comp.Select))
	}
	c.emitEmptyGroupDelete(comp, s)
}
