package ivm

import (
	"fmt"
	"slices"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
)

// genPropagate builds the propagation script for the compiled view. There
// is no step 1 (Listing 2's fill of ΔV): each statement reads its delta
// where it uses it (deltaSource) — ΔT, or the join delta a two-table
// view's script fills first from the product rule's three terms.
//
// Step 2  fold the delta into V (Listing 2's upsert, for every class);
// Step 3  delete the groups whose row count reached zero;
// Step 4  truncate the join delta and every ΔT.
//
// A projection or join view is a grouped view too: its group key is its
// Key, or all its columns, and its row count is each row's weight (DBSP's
// Z-set), so one combine and one emptiness rule serve every class.
func (c *Compiler) genPropagate(comp *Compilation) {
	body := &duckast.Script{}
	if comp.JoinDelta != "" {
		fillJoinDelta(comp, body)
	}
	d := deltaOf(comp)
	emitCombine(comp, body, d)
	// MIN/MAX deletions cannot be combined incrementally: rescan-repair
	// the affected groups from the base relation.
	if comp.hasMinMax() {
		emitMinMaxRepair(comp, body, d)
	}
	emitEmptyGroupDelete(comp, body, d)
	comp.Body = body
	// Propagate is Body's statement nodes followed by step 4: truncate the
	// join delta, then every ΔT.
	full := &duckast.Script{}
	full.Add(body.Stmts...)
	if comp.JoinDelta != "" {
		full.Add(&duckast.Delete{Table: comp.JoinDelta})
	}
	for _, b := range comp.Bases {
		full.Add(&duckast.Delete{Table: b.Delta})
	}
	comp.Propagate = full
}

// deltaSource is what a view's body reads its changes from: ΔT of a
// single-table view through the view's WHERE (a projection view's rows
// named as its columns, viewRows), or the join delta of a two-table view,
// whose rows passed the WHERE when it was filled.
type deltaSource struct {
	from, where string
	// expr is a view column's value over a row of from: a group key's or a
	// projected column's, or an aggregate's argument.
	expr func(ViewColumn) string
}

// deltaOf returns the view's delta source.
func deltaOf(comp *Compilation) deltaSource {
	if comp.JoinDelta != "" {
		return deltaSource{from: comp.JoinDelta, expr: joinDeltaColumn}
	}
	b := comp.Bases[0]
	from := b.Delta
	if b.Alias != b.Name {
		from += " AS " + b.Alias
	}
	if comp.Class == ClassProjection {
		return deltaSource{from: viewRows(comp, from, MultiplicityColumn),
			expr: func(col ViewColumn) string { return col.Name }}
	}
	return deltaSource{from: from, where: whereSQL(comp),
		expr: func(col ViewColumn) string { return col.SourceSQL }}
}

// rows renders the FROM clause of the source's rows that also satisfy cond
// ("" for all of them).
func (d deltaSource) rows(cond string) string {
	conds := slices.DeleteFunc([]string{d.where, cond}, func(c string) bool { return c == "" })
	if len(conds) == 0 {
		return d.from
	}
	return d.from + " WHERE " + strings.Join(conds, " AND ")
}

// exprs maps expr over cols.
func (d deltaSource) exprs(cols []ViewColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = d.expr(c)
	}
	return out
}

// keyedDelete renders a delete from V of the groups the delta retracts a
// row of, that also satisfy conds. It finds V's rows by the retractions'
// keys through one NULL-safe spelling, DELETE … USING … IS NOT DISTINCT
// FROM, which reaches a NULL-keyed group too through V's key index.
func keyedDelete(comp *Compilation, d deltaSource, conds ...string) *duckast.Delete {
	groups := comp.GroupColumns()
	keys := &duckast.Select{Items: aliased(d.exprs(groups), groups), From: &duckast.Raw{Text: d.rows(MultiplicityColumn + " = FALSE")}}
	var on []string
	for _, g := range viewColNames(groups) {
		on = append(on, fmt.Sprintf("%s.%s IS NOT DISTINCT FROM ivm_del.%s", comp.Storage, g, g))
	}
	return &duckast.Delete{Table: comp.Storage, Using: &duckast.Raw{Text: "(" + keys.SQL() + ") AS ivm_del"},
		Where: &duckast.Raw{Text: strings.Join(append(on, conds...), " AND ")}}
}

func viewColNames(cols []ViewColumn) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// aliased renders the select items exprs AS the names of cols.
func aliased(exprs []string, cols []ViewColumn) []duckast.SelectItem {
	items := make([]duckast.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = duckast.SelectItem{Expr: &duckast.Raw{Text: exprs[i]}, Alias: c.Name}
	}
	return items
}

// whereSQL renders the view's WHERE predicate ("" when absent).
func whereSQL(comp *Compilation) string {
	if comp.Select.Where == nil {
		return ""
	}
	return sqlparser.ExprString(comp.Select.Where)
}

// --- steps 2 and 3, every class ------------------------------------------

// signedDeltaSQL renders the per-group signed total of one storage column
// over the delta, whose rows give the aggregate's argument as arg (paper
// Listing 2 line 8, applied to ΔT itself): additive aggregates negate under
// FALSE multiplicity, a COUNT adds ±1 per row (per non-NULL argument for
// COUNT(e)); MIN/MAX keep only insertions (deletions are handled by the
// rescan-repair steps).
func signedDeltaSQL(col ViewColumn, arg string) string {
	switch col.Agg {
	case expr.AggMin, expr.AggMax:
		return fmt.Sprintf("%s(CASE WHEN %s = TRUE THEN %s END)", col.Agg, MultiplicityColumn, arg)
	case expr.AggCountStar:
		return fmt.Sprintf("SUM(CASE WHEN %s = FALSE THEN -1 ELSE 1 END)", MultiplicityColumn)
	case expr.AggCount:
		return fmt.Sprintf("SUM(CASE WHEN %s IS NULL THEN 0 WHEN %s = FALSE THEN -1 ELSE 1 END)", arg, MultiplicityColumn)
	}
	neg := "-" + arg
	if strings.HasPrefix(arg, "-") { // "--" would open a comment
		neg = "-(" + arg + ")"
	}
	return fmt.Sprintf("SUM(CASE WHEN %s = FALSE THEN %s ELSE %s END)", MultiplicityColumn, neg, arg)
}

// combineSQL renders the V ⊕ ΔV combination for one aggregate column,
// given the column's value in V (vc) and its signed delta total (dc).
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

// emitCombine emits step 2: aggregate the delta per group with its signs
// applied (ivm_cte, Listing 2 lines 6-10) and upsert the groups into V.
// Listing 2 LEFT JOINs ivm_cte to V and INSERT OR REPLACEs the combined
// rows, which finds each group's row of V twice, once in the join and once
// in the upsert. Here the upsert's own key probe is the only one: a new
// group is inserted as combineSQL over no row of V, and a group V holds
// folds its delta in through ON CONFLICT DO UPDATE — so the fold costs
// what the delta costs.
//
// A keyed projection or join view's other columns are carried: they take
// the values of the key's surviving row, the delta row that nets above
// zero (netRows; a key has at most one, and one row per key reaches the
// upsert, as ON CONFLICT needs). A key whose rows all net to zero changes
// nothing, and is left out.
func emitCombine(comp *Compilation, s *duckast.Script, d deltaSource) {
	vName := comp.Storage
	groups := comp.GroupColumns()
	if len(groups) == 0 {
		emitGlobalCombine(comp, s, d)
		return
	}
	groupNames := viewColNames(groups)

	cte := &duckast.Select{Items: aliased(d.exprs(groups), groups), From: &duckast.Raw{Text: d.rows("")}}
	for _, g := range d.exprs(groups) {
		cte.GroupBy = append(cte.GroupBy, &duckast.Raw{Text: g})
	}
	sel := &duckast.Select{CTEs: []duckast.CTE{{Name: "ivm_cte", Select: cte}}, From: &duckast.Raw{Text: "ivm_cte"}}
	ins := &duckast.Insert{Table: vName, Columns: viewColNames(comp.StorageColumns()), Select: sel, ConflictKeys: groupNames}
	carried := false
	for _, col := range comp.StorageColumns() {
		switch {
		case col.IsGroupKey:
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Col{Table: "ivm_cte", Name: col.Name}})
		case !col.HasAgg:
			carried = true
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Col{Table: "ivm_new", Name: col.Name}})
			ins.Set = append(ins.Set, col.Name+" = EXCLUDED."+col.Name)
		default:
			cte.Items = append(cte.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: signedDeltaSQL(col, d.expr(col))}, Alias: col.Name})
			sel.Items = append(sel.Items, duckast.SelectItem{
				Expr: &duckast.Raw{Text: combineSQL(col, "NULL", "ivm_cte."+col.Name)}, Alias: col.Name})
			ins.Set = append(ins.Set, col.Name+" = "+combineSQL(col, vName+"."+col.Name, "EXCLUDED."+col.Name))
		}
	}
	if carried {
		on := make([]string, len(groupNames))
		for i, g := range groupNames {
			on[i] = fmt.Sprintf("ivm_new.%s = ivm_cte.%s", g, g)
		}
		sel.From = &duckast.Raw{Text: fmt.Sprintf("ivm_cte LEFT JOIN (%s) AS ivm_new ON %s",
			netRows(comp, d.rows("")).SQL(), strings.Join(on, " AND "))}
		sel.Where = &duckast.Raw{Text: fmt.Sprintf("ivm_cte.%s <> 0 OR ivm_new.%s IS NOT NULL", emptyGroupColumn(comp), groupNames[0])}
	}
	s.Add(ins)
}

// netCount is a row's net multiplicity over a delta grouped by the view
// columns.
const netCount = "SUM(CASE WHEN " + MultiplicityColumn + " = TRUE THEN 1 ELSE -1 END)"

// netRows is the per-row netting step of a keyed view's combine: the rows
// of from, a delta over the view's columns, whose net multiplicity is above
// zero — the rows the delta leaves in the view.
func netRows(comp *Compilation, from string) *duckast.Select {
	sel := &duckast.Select{From: &duckast.Raw{Text: from}, Having: &duckast.Raw{Text: netCount + " > 0"}}
	for _, col := range comp.Columns {
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.Name}})
		sel.GroupBy = append(sel.GroupBy, &duckast.Raw{Text: col.Name})
	}
	return sel
}

// emitGlobalCombine is step 2 of a view without GROUP BY. Such a view is
// one row whatever its base holds (an aggregate over no rows is a row too),
// so the delta folds into that row in place: each column adds its signed
// delta total, a scalar subquery over the delta.
func emitGlobalCombine(comp *Compilation, s *duckast.Script, d deltaSource) {
	up := &duckast.Update{Table: comp.Storage}
	for _, col := range comp.StorageColumns() {
		dc := fmt.Sprintf("(SELECT %s FROM %s)", signedDeltaSQL(col, d.expr(col)), d.rows(""))
		up.Set = append(up.Set, col.Name+" = "+combineSQL(col, col.Name, dc))
	}
	s.Add(up)
}

// emitMinMaxRepair emits the rescan-repair for MIN/MAX deletions: the
// groups a deletion touched leave V and are recomputed from the base
// relation, so a group whose last row was deleted stays out. V's rows are
// found through keyedDelete, and the base's through a join on IS NOT
// DISTINCT FROM. A view without GROUP BY is recomputed whole when the
// delta holds a deletion; an aggregate over no rows is a row too, so that
// recompute is filtered from outside.
func emitMinMaxRepair(comp *Compilation, s *duckast.Script, d deltaSource) {
	groups := comp.GroupColumns()
	deleted := d.rows(MultiplicityColumn + " = FALSE")
	from := fromSQL(comp, comp.Select)
	cols := viewColNames(comp.StorageColumns())
	if len(groups) == 0 {
		touched := &duckast.Raw{Text: fmt.Sprintf("(SELECT COUNT(*) FROM %s) > 0", deleted)}
		s.Add(&duckast.Delete{Table: comp.Storage, Where: touched})
		s.Add(&duckast.Insert{Table: comp.Storage, Columns: cols, Select: &duckast.Select{
			Items: []duckast.SelectItem{{Expr: &duckast.Raw{Text: "*"}}},
			From:  &duckast.Raw{Text: "(" + storageQuery(comp, from).SQL() + ") AS ivm_all"},
			Where: touched}})
		return
	}
	s.Add(keyedDelete(comp, d))
	srcs := d.exprs(groups)
	// The delta may delete several rows of one group: one row per group
	// keeps the join from repeating base rows.
	del := &duckast.Select{From: &duckast.Raw{Text: deleted}}
	var on []string
	for i, col := range groups {
		alias := fmt.Sprintf("ivm_g%d", i)
		del.Items = append(del.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: srcs[i]}, Alias: alias})
		del.GroupBy = append(del.GroupBy, &duckast.Raw{Text: srcs[i]})
		on = append(on, fmt.Sprintf("%s IS NOT DISTINCT FROM ivm_deleted.%s", col.SourceSQL, alias))
	}
	s.Add(&duckast.Insert{Table: comp.Storage, Columns: cols, Select: storageQuery(comp, fmt.Sprintf(
		"%s JOIN (%s) AS ivm_deleted ON %s", from, del.SQL(), strings.Join(on, " AND ")))})
}

// emitEmptyGroupDelete emits step 3: delete the groups whose row count —
// for a projection or join view, a row's weight — reached zero. The count is the view's COUNT(*), declared or hidden
// (StorageColumns), and no other column is tested: a SUM or a COUNT(col)
// reaches zero in a group that still has rows. This departs on purpose
// from Listing 2's `WHERE total_value = 0`, which drops a group whose SUM
// nets to 0. A group's count changes only by its signed delta rows, so
// only a group the delta retracts a row of can reach zero (DBSP): the
// paper's unkeyed delete is stated over those keys alone (keyedDelete) —
// the same rows, a NULL-keyed group among them, found through V's key
// index in O(|retractions|) instead of by scanning V, and none at all in
// an insert-only window. A view without group columns keeps its one row:
// emptied, it reads what the query reads over no rows, NULL in every
// column but a count.
func emitEmptyGroupDelete(comp *Compilation, s *duckast.Script, d deltaSource) {
	col := emptyGroupColumn(comp)
	groups := comp.GroupColumns()
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
	s.Add(keyedDelete(comp, d, col+" = 0"))
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

// joinDeltaColumn names the join-delta column that holds a view column's
// value: the column's own name, or ivm_arg_<i> for the argument of the
// view's i-th aggregate (no column for COUNT(*)).
func joinDeltaColumn(col ViewColumn) string {
	if col.HasAgg {
		return fmt.Sprintf("ivm_arg_%d", col.ArgIdx)
	}
	return col.Name
}

// joinDeltaColumns lists the view columns whose values the join delta
// holds: every column of a join view; the group keys and the aggregate
// arguments of a join-aggregate view.
func joinDeltaColumns(comp *Compilation) []ViewColumn {
	if comp.Class == ClassJoin {
		return comp.Columns
	}
	var out []ViewColumn
	for _, col := range comp.Columns {
		if !col.HasAgg || col.SourceSQL != "" {
			out = append(out, col)
		}
	}
	return out
}

// fillJoinDelta fills the join delta once per refresh with the DBSP
// product-rule terms (ΔA ⋈ B'), (A' ⋈ ΔB) and (ΔA ⋈ ΔB), whose
// multiplicities are ΔA.m, ΔB.m and (ΔA.m <> ΔB.m) — the last term
// compensates for the deltas already being applied to the (post-state)
// base tables. Steps 2 and 3 read the table rather than each re-deriving
// the terms, so both see the same join delta whatever commits between
// them.
func fillJoinDelta(comp *Compilation, s *duckast.Script) {
	jt := comp.Select.From.(*sqlparser.JoinTable)
	a, b := comp.Bases[0], comp.Bases[1]
	on := joinOnSQL(jt, a.Alias, b.Alias)
	w := whereSQL(comp)
	cols := joinDeltaColumns(comp)
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = joinDeltaColumn(col)
	}
	term := func(left, right, multExpr string) {
		sel := &duckast.Select{From: &duckast.Raw{Text: left + " JOIN " + right + " ON " + on}}
		for i, col := range cols {
			sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: col.SourceSQL}, Alias: names[i]})
		}
		sel.Items = append(sel.Items, duckast.SelectItem{Expr: &duckast.Raw{Text: multExpr}, Alias: MultiplicityColumn})
		if w != "" {
			sel.Where = &duckast.Raw{Text: w}
		}
		s.Add(&duckast.Insert{Table: comp.JoinDelta, Select: sel})
	}
	named := func(t BaseTable) string {
		if t.Alias != t.Name {
			return t.Name + " AS " + t.Alias
		}
		return t.Name
	}
	ma, mb := a.Alias+"."+MultiplicityColumn, b.Alias+"."+MultiplicityColumn
	term(a.Delta+" AS "+a.Alias, named(b), ma)
	term(named(a), b.Delta+" AS "+b.Alias, mb)
	term(a.Delta+" AS "+a.Alias, b.Delta+" AS "+b.Alias, ma+" <> "+mb)
}
