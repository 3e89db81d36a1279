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
// Step 2  fold ΔV into V using the selected combine strategy;
// Step 3  delete invalidated rows from V (empty groups / deleted tuples);
// Step 4  truncate ΔV and every ΔT.
//
// A keyed projection or join view does steps 2–3 as one combine whose
// delete comes first (emitKeyedCombine).
func (c *Compiler) genPropagate(comp *Compilation) error {
	body, err := c.buildBody(comp, comp.Options.Strategy)
	if err != nil {
		return err
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

	// Alternative combine plans for the runtime's cost-based choice. The
	// upsert plan is only valid when the setup created the group-key index
	// (primary key); the rebuild plans work either way.
	if comp.Class == ClassAggregate || comp.Class == ClassJoinAggregate {
		comp.AltBodies = map[Strategy]*duckast.Script{}
		for _, strat := range []Strategy{StrategyUpsertLeftJoin, StrategyUnionRegroup, StrategyFullOuterJoin} {
			if strat == StrategyUpsertLeftJoin && !(comp.needsIndex() && comp.Options.CreateIndex) {
				continue
			}
			alt := body
			if strat != comp.Options.Strategy {
				if alt, err = c.buildBody(comp, strat); err != nil {
					return err
				}
			}
			comp.AltBodies[strat] = alt
		}
	}
	return nil
}

// buildBody assembles steps 1–3 under the given combine strategy.
func (c *Compiler) buildBody(comp *Compilation, strat Strategy) (*duckast.Script, error) {
	s := &duckast.Script{}
	var err error
	switch comp.Class {
	case ClassProjection:
		err = c.propProjection(comp, s)
	case ClassAggregate:
		err = c.propAggregate(comp, s, strat)
	case ClassJoin:
		err = c.propJoin(comp, s)
	case ClassJoinAggregate:
		err = c.propJoinAggregate(comp, s, strat)
	default:
		err = fmt.Errorf("unsupported query class %v", comp.Class)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
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
func (c *Compiler) propProjection(comp *Compilation, s *duckast.Script) error {
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
		return nil
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
	return nil
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
// given the view alias v and delta alias d.
func combineSQL(col ViewColumn, v, d string) string {
	vc := v + "." + col.Name
	dc := d + "." + col.Name
	switch col.Agg {
	case expr.AggMin:
		return fmt.Sprintf("LEAST(COALESCE(%s, %s), COALESCE(%s, %s))", vc, dc, dc, vc)
	case expr.AggMax:
		return fmt.Sprintf("GREATEST(COALESCE(%s, %s), COALESCE(%s, %s))", vc, dc, dc, vc)
	default:
		return fmt.Sprintf("COALESCE(%s, 0) + COALESCE(%s, 0)", vc, dc)
	}
}

// aggDeltaColumns returns the ΔV columns in table order: view columns,
// then the hidden count when enabled.
func aggDeltaColumns(comp *Compilation) []ViewColumn {
	cols := append([]ViewColumn{}, comp.StorageColumns()...)
	if comp.usesHiddenCount() {
		cols = append(cols, ViewColumn{
			Name: HiddenCountColumn, Agg: expr.AggCountStar, HasAgg: true,
		})
	}
	return cols
}

// propAggregate emits the GROUP BY incremental form (paper Listing 2).
func (c *Compiler) propAggregate(comp *Compilation, s *duckast.Script, strat Strategy) error {
	b := comp.Bases[0]

	// Step 1: ΔV := γ(ΔT) grouped by (keys, multiplicity).
	step1 := &duckast.Select{From: &duckast.Raw{Text: deltaSourceSQL(b)}}
	for _, col := range aggDeltaColumns(comp) {
		switch {
		case col.IsGroupKey:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
		case col.Name == HiddenCountColumn:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: "COUNT(*)"}, Alias: HiddenCountColumn})
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

	// Step 2: combine ΔV into V under the selected strategy.
	c.emitCombine(comp, s, comp.DeltaView, strat)

	// Steps 2b/2c: MIN/MAX deletions cannot be combined incrementally —
	// rescan-repair the affected groups from the base table.
	if comp.hasMinMax() {
		c.emitMinMaxRepair(comp, s, fromSQL(comp, comp.Select))
	}

	// Step 3: delete invalidated rows.
	c.emitEmptyGroupDelete(comp, s)
	return nil
}

// emitCombine emits the strategy-selected step 2, reading ΔV from dvName.
func (c *Compiler) emitCombine(comp *Compilation, s *duckast.Script, dvName string, strat Strategy) {
	groups := comp.GroupColumns()
	dAlias := "ivm_delta"
	vName := comp.Storage

	// The shared CTE: per-group signed aggregation of ΔV (Listing 2 lines 6-10).
	cte := &duckast.Select{From: &duckast.Raw{Text: dvName}}
	for _, g := range groups {
		cte.Items = append(cte.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: g.Name}})
		cte.GroupBy = append(cte.GroupBy, &duckast.Raw{Text: g.Name})
	}
	for _, col := range aggDeltaColumns(comp) {
		if col.IsGroupKey {
			continue
		}
		cte.Items = append(cte.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: signedDeltaSQL(col)}, Alias: col.Name})
	}

	allCols := viewColNames(aggDeltaColumns(comp))
	groupNames := viewColNames(groups)

	switch strat {
	case StrategyUpsertLeftJoin:
		// Listing 2: INSERT OR REPLACE ... ivm_cte LEFT JOIN view.
		var onParts []string
		for _, g := range groupNames {
			onParts = append(onParts, fmt.Sprintf("%s.%s = %s.%s", vName, g, dAlias, g))
		}
		sel := &duckast.Select{
			CTEs: []duckast.CTE{{Name: "ivm_cte", Select: cte}},
			From: &duckast.Raw{Text: fmt.Sprintf("ivm_cte AS %s LEFT JOIN %s ON %s",
				dAlias, vName, strings.Join(onParts, " AND "))},
		}
		for _, g := range groupNames {
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Col{Table: dAlias, Name: g}})
		}
		for _, col := range aggDeltaColumns(comp) {
			if col.IsGroupKey {
				continue
			}
			sel.Items = append(sel.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: combineSQL(col, vName, dAlias)}, Alias: col.Name})
		}
		s.Add(&duckast.Insert{
			Table: vName, Columns: allCols, Select: sel,
			Upsert: true, KeyColumns: groupNames,
		})

	case StrategyUnionRegroup:
		// V_new := γ(V ∪ signed ΔV); rebuild the table.
		union := &duckast.Select{From: &duckast.Raw{Text: vName}}
		for _, col := range aggDeltaColumns(comp) {
			union.Items = append(union.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.Name}})
		}
		deltaPart := &duckast.Select{From: &duckast.Raw{Text: dvName}}
		for _, col := range aggDeltaColumns(comp) {
			switch {
			case col.IsGroupKey:
				deltaPart.Items = append(deltaPart.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.Name}})
			case col.Agg == expr.AggMin || col.Agg == expr.AggMax:
				deltaPart.Items = append(deltaPart.Items, duckast.SelectItem{
					Expr: &duckast.Raw{Text: fmt.Sprintf("CASE WHEN %s = TRUE THEN %s END", MultiplicityColumn, col.Name)}})
			default:
				deltaPart.Items = append(deltaPart.Items, duckast.SelectItem{
					Expr: &duckast.Raw{Text: fmt.Sprintf("CASE WHEN %s = FALSE THEN -%s ELSE %s END",
						MultiplicityColumn, col.Name, col.Name)}})
			}
		}
		union.SetOp = "UNION ALL"
		union.Next = deltaPart

		regroup := &duckast.Select{From: &duckast.SubSelect{Select: union, Alias: "ivm_union"}}
		for _, g := range groupNames {
			regroup.Items = append(regroup.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: g}})
			regroup.GroupBy = append(regroup.GroupBy, &duckast.Raw{Text: g})
		}
		for _, col := range aggDeltaColumns(comp) {
			if col.IsGroupKey {
				continue
			}
			fn := "SUM"
			if col.Agg == expr.AggMin {
				fn = "MIN"
			} else if col.Agg == expr.AggMax {
				fn = "MAX"
			}
			regroup.Items = append(regroup.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: fmt.Sprintf("%s(%s)", fn, col.Name)}, Alias: col.Name})
		}
		tmp := vName + "_ivm_new"
		s.Add(&duckast.CreateTableAs{Name: tmp, Select: regroup})
		s.Add(&duckast.Delete{Table: vName})
		refill := &duckast.Select{From: &duckast.Raw{Text: tmp}}
		for _, n := range allCols {
			refill.Items = append(refill.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: n}})
		}
		s.Add(&duckast.Insert{Table: vName, Columns: allCols, Select: refill})
		s.Add(&duckast.DropTable{Name: tmp})

	case StrategyFullOuterJoin:
		// V_new := V ⟗ ivm_cte on the group keys.
		var onParts []string
		for _, g := range groupNames {
			onParts = append(onParts, fmt.Sprintf("ivm_v.%s = %s.%s", g, dAlias, g))
		}
		sel := &duckast.Select{
			CTEs: []duckast.CTE{{Name: "ivm_cte", Select: cte}},
			From: &duckast.Raw{Text: fmt.Sprintf("%s AS ivm_v FULL OUTER JOIN ivm_cte AS %s ON %s",
				vName, dAlias, strings.Join(onParts, " AND "))},
		}
		for _, g := range groupNames {
			sel.Items = append(sel.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: fmt.Sprintf("COALESCE(ivm_v.%s, %s.%s)", g, dAlias, g)}, Alias: g})
		}
		for _, col := range aggDeltaColumns(comp) {
			if col.IsGroupKey {
				continue
			}
			var e string
			switch col.Agg {
			case expr.AggMin:
				e = fmt.Sprintf("LEAST(COALESCE(ivm_v.%s, %s.%s), COALESCE(%s.%s, ivm_v.%s))",
					col.Name, dAlias, col.Name, dAlias, col.Name, col.Name)
			case expr.AggMax:
				e = fmt.Sprintf("GREATEST(COALESCE(ivm_v.%s, %s.%s), COALESCE(%s.%s, ivm_v.%s))",
					col.Name, dAlias, col.Name, dAlias, col.Name, col.Name)
			default:
				e = fmt.Sprintf("COALESCE(ivm_v.%s, 0) + COALESCE(%s.%s, 0)", col.Name, dAlias, col.Name)
			}
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: e}, Alias: col.Name})
		}
		tmp := vName + "_ivm_new"
		s.Add(&duckast.CreateTableAs{Name: tmp, Select: sel})
		s.Add(&duckast.Delete{Table: vName})
		refill := &duckast.Select{From: &duckast.Raw{Text: tmp}}
		for _, n := range allCols {
			refill.Items = append(refill.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: n}})
		}
		s.Add(&duckast.Insert{Table: vName, Columns: allCols, Select: refill})
		s.Add(&duckast.DropTable{Name: tmp})
	}
}

// emitMinMaxRepair emits the rescan-repair for MIN/MAX deletions: groups
// touched by a deletion are recomputed from the base relation, and groups
// that vanished entirely are removed.
func (c *Compiler) emitMinMaxRepair(comp *Compilation, s *duckast.Script, from string) {
	groups := comp.GroupColumns()
	groupNames := viewColNames(groups)
	srcKey := groupKey(groupSrcSQL(comp.Columns))
	dvKey := groupKey(groupNames)
	allCols := viewColNames(aggDeltaColumns(comp))

	deletedGroups := fmt.Sprintf("SELECT DISTINCT %s FROM %s WHERE %s = FALSE",
		strings.Join(groupNames, ", "), comp.DeltaView, MultiplicityColumn)

	// Recompute affected groups from the base relation.
	recompute := &duckast.Select{From: &duckast.Raw{Text: from}}
	for _, col := range aggDeltaColumns(comp) {
		switch {
		case col.IsGroupKey:
			recompute.Items = append(recompute.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: col.Name})
		case col.Name == HiddenCountColumn:
			recompute.Items = append(recompute.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: "COUNT(*)"}, Alias: col.Name})
		default:
			recompute.Items = append(recompute.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: aggCallSQL(col.Agg, col.SourceSQL)}, Alias: col.Name})
		}
	}
	cond := fmt.Sprintf("%s IN (%s)", srcKey, deletedGroups)
	if w := whereSQL(comp); w != "" {
		cond = "(" + w + ") AND " + cond
	}
	recompute.Where = &duckast.Raw{Text: cond}
	for _, g := range groupSrcSQL(comp.Columns) {
		recompute.GroupBy = append(recompute.GroupBy, &duckast.Raw{Text: g})
	}
	s.Add(&duckast.Insert{
		Table: comp.Storage, Columns: allCols, Select: recompute,
		Upsert: true, KeyColumns: groupNames,
	})

	// Remove groups whose last row was deleted.
	baseKeys := fmt.Sprintf("SELECT %s FROM %s", strings.Join(groupSrcSQL(comp.Columns), ", "), from)
	if w := whereSQL(comp); w != "" {
		baseKeys += " WHERE " + w
	}
	s.Add(&duckast.Delete{
		Table: comp.Storage,
		Where: &duckast.Raw{Text: fmt.Sprintf("%s IN (%s) AND %s NOT IN (%s)",
			dvKey, deletedGroups, dvKey, baseKeys)},
	})
}

// emitEmptyGroupDelete emits step 3: delete the groups whose count reached
// zero. Only a group ΔV touched can have changed its count, so the paper's
// `DELETE FROM V WHERE n = 0` is stated over those keys alone — the same
// rows, found through V's key index in O(|ΔV|) instead of by scanning V.
// IN never selects a group with a NULL in its key, so those stay under the
// paper's unkeyed test (`OR g IS NULL`). A view without group columns is
// one row and keeps the bare form.
func (c *Compiler) emitEmptyGroupDelete(comp *Compilation, s *duckast.Script) {
	col := emptyGroupColumn(comp)
	if col == "" {
		return
	}
	where := col + " = 0"
	if groups := viewColNames(comp.GroupColumns()); len(groups) > 0 {
		where = fmt.Sprintf("(%s IN (SELECT %s FROM %s) OR %s IS NULL) AND %s",
			groupKey(groups), strings.Join(groups, ", "), comp.DeltaView,
			strings.Join(groups, " IS NULL OR "), where)
	}
	s.Add(&duckast.Delete{Table: comp.Storage, Where: &duckast.Raw{Text: where}})
}

// emptyGroupColumn names the column whose zero marks an emptied group
// under the configured detection mode ("" when no column does).
func emptyGroupColumn(comp *Compilation) string {
	if comp.usesHiddenCount() {
		return HiddenCountColumn
	}
	// Paper behaviour: prefer a COUNT column, else a SUM column — over the
	// physical storage layout, so AVG's decomposed COUNT part qualifies.
	// Views with only MIN/MAX aggregates are fully handled by the repair
	// steps.
	sum := ""
	for _, a := range comp.StorageColumns() {
		if !a.HasAgg {
			continue
		}
		switch a.Agg {
		case expr.AggCount, expr.AggCountStar:
			return a.Name
		case expr.AggSum:
			if sum == "" {
				sum = a.Name
			}
		}
	}
	return sum
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
func (c *Compiler) propJoin(comp *Compilation, s *duckast.Script) error {
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
		return nil
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
	return nil
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
func (c *Compiler) propJoinAggregate(comp *Compilation, s *duckast.Script, strat Strategy) error {
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
	for _, col := range aggDeltaColumns(comp) {
		switch {
		case col.IsGroupKey:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.Name}})
			step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: col.Name})
		case col.Name == HiddenCountColumn, col.Agg == expr.AggCountStar:
			step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: "COUNT(*)"}, Alias: col.Name})
		default:
			step1.Items = append(step1.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: aggCallSQL(col.Agg, fmt.Sprintf("ivm_arg_%d", col.ArgIdx))}, Alias: col.Name})
		}
	}
	step1.Items = append(step1.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: MultiplicityColumn}})
	step1.GroupBy = append(step1.GroupBy, &duckast.Raw{Text: MultiplicityColumn})
	s.Add(&duckast.Insert{Table: comp.DeltaView, Select: step1})

	// Step 2: combine, with MIN/MAX repair recomputing from the full join.
	c.emitCombine(comp, s, comp.DeltaView, strat)
	if comp.hasMinMax() {
		c.emitMinMaxRepair(comp, s, fromSQL(comp, comp.Select))
	}
	c.emitEmptyGroupDelete(comp, s)
	return nil
}
