package plan

import (
	"fmt"
	"strings"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// Binder resolves parsed statements against a catalog, producing logical
// plans with bound (position-resolved) expressions.
type Binder struct {
	Catalog *catalog.Catalog
	// SubqueryFn turns an uncorrelated scalar subquery into a bound
	// expression (typically: plan + execute lazily, caching the result).
	// nil disables subquery support.
	SubqueryFn func(sel *sqlparser.SelectStmt) (expr.Expr, error)
	// SubqueryRowsFn turns an uncorrelated subquery into a lazy, cached
	// fetch of its rows, used for IN (SELECT ...). nil disables.
	SubqueryRowsFn func(sel *sqlparser.SelectStmt) (func() ([]sqltypes.Row, error), error)
	// Params is the binding parameters resolve against — $N and lifted
	// literals, and lifted VALUES lists (the engine wires in the binding of
	// the statement being planned). nil rejects parameters.
	Params *expr.ParamBinding

	ctes map[string]Node // CTEs currently in scope
}

// NewBinder returns a binder over cat.
func NewBinder(cat *catalog.Catalog) *Binder {
	return &Binder{Catalog: cat}
}

// BindSelect binds a full SELECT statement (CTEs, set ops, ORDER BY/LIMIT).
func (b *Binder) BindSelect(sel *sqlparser.SelectStmt) (Node, error) {
	// Push CTEs into scope (shadowing outer ones of the same name).
	saved := b.ctes
	if len(sel.CTEs) > 0 {
		b.ctes = make(map[string]Node, len(saved)+len(sel.CTEs))
		for k, v := range saved {
			b.ctes[k] = v
		}
		for _, cte := range sel.CTEs {
			n, err := b.BindSelect(cte.Select)
			if err != nil {
				return nil, fmt.Errorf("binding CTE %q: %w", cte.Name, err)
			}
			b.ctes[strings.ToLower(cte.Name)] = renameBinding(n, cte.Name)
		}
		defer func() { b.ctes = saved }()
	}

	node, err := b.bindSelectBody(sel)
	if err != nil {
		return nil, err
	}

	// Set-operation chain.
	for cur := sel; cur.Next != nil; cur = cur.Next {
		rhs, err := b.bindSelectBody(cur.Next)
		if err != nil {
			return nil, err
		}
		if len(rhs.Schema()) != len(node.Schema()) {
			return nil, fmt.Errorf("plan: set operation arms have different column counts (%d vs %d)",
				len(node.Schema()), len(rhs.Schema()))
		}
		node = &SetOp{Op: cur.NextOp, Left: node, Right: rhs}
	}

	// ORDER BY / LIMIT attach to the whole chain.
	node, err = b.bindOrderLimit(node, sel)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// bindSelectBody binds one SELECT term without its ORDER BY/LIMIT (those are
// bound by BindSelect so they apply after set operations).
func (b *Binder) bindSelectBody(sel *sqlparser.SelectStmt) (Node, error) {
	if sel.Values != nil || sel.ValuesParam != nil {
		return b.bindValues(sel)
	}

	// FROM
	var input Node
	if sel.From != nil {
		n, err := b.bindTableRef(sel.From)
		if err != nil {
			return nil, err
		}
		input = n
	} else {
		// SELECT without FROM: a single empty row.
		input = &Values{Rows: [][]expr.Expr{{}}, Columns: nil}
	}

	inSchema := input.Schema()

	// WHERE
	if sel.Where != nil {
		pred, err := b.bindExpr(sel.Where, inSchema, false)
		if err != nil {
			return nil, err
		}
		input = &Filter{Input: input, Pred: pred}
	}

	// Expand stars in the select list.
	items, err := expandStars(sel.Items, inSchema)
	if err != nil {
		return nil, err
	}

	// Aggregate context?
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range items {
		if containsAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}

	var node Node
	if hasAgg {
		node, err = b.bindAggregate(input, items, sel)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]expr.Expr, len(items))
		cols := make([]ColumnInfo, len(items))
		for i, it := range items {
			e, err := b.bindExpr(it.Expr, inSchema, false)
			if err != nil {
				return nil, err
			}
			exprs[i] = e
			cols[i] = ColumnInfo{Name: itemName(it), Type: e.Type()}
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok && it.Alias == "" {
				cols[i].Table = cr.Table
			}
		}
		node = &Project{Input: input, Exprs: exprs, Cols: cols}
	}

	if sel.Distinct {
		node = &Distinct{Input: node}
	}
	return node, nil
}

func itemName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return sqlparser.DisplayName(it.Expr)
}

func expandStars(items []sqlparser.SelectItem, schema []ColumnInfo) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, it := range items {
		cr, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok || !cr.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range schema {
			if cr.Table == "" || strings.EqualFold(cr.Table, c.Table) {
				out = append(out, sqlparser.SelectItem{
					Expr: &sqlparser.ColumnRef{Table: c.Table, Column: c.Name},
				})
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("plan: %s.* matches no columns", cr.Table)
		}
	}
	return out, nil
}

func containsAggregate(e sqlparser.Expr) bool {
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

// bindValues binds a VALUES list: its expressions, or the lifted list its
// rows are read from at execution.
func (b *Binder) bindValues(sel *sqlparser.SelectStmt) (Node, error) {
	if vp := sel.ValuesParam; vp != nil {
		if b.Params == nil {
			return nil, fmt.Errorf("plan: statement parameters not supported in this context")
		}
		v := &Values{Lifted: vp.Index, Params: b.Params}
		for i, t := range vp.Types {
			v.Columns = append(v.Columns, ColumnInfo{Name: fmt.Sprintf("col%d", i), Type: t})
		}
		return v, nil
	}
	v := &Values{}
	width := -1
	for _, prow := range sel.Values {
		if width == -1 {
			width = len(prow)
		} else if len(prow) != width {
			return nil, fmt.Errorf("plan: VALUES rows have varying widths")
		}
		row := make([]expr.Expr, len(prow))
		for i, pe := range prow {
			e, err := b.bindExpr(pe, nil, false)
			if err != nil {
				return nil, err
			}
			row[i] = e
		}
		v.Rows = append(v.Rows, row)
	}
	for i := 0; i < width; i++ {
		t := sqltypes.TypeAny
		if len(v.Rows) > 0 {
			t = v.Rows[0][i].Type()
		}
		v.Columns = append(v.Columns, ColumnInfo{Name: fmt.Sprintf("col%d", i), Type: t})
	}
	return v, nil
}

// bindTableRef binds a FROM element.
func (b *Binder) bindTableRef(tr sqlparser.TableRef) (Node, error) {
	switch t := tr.(type) {
	case *sqlparser.NamedTable:
		return b.bindNamedTable(t)
	case *sqlparser.SubqueryTable:
		n, err := b.BindSelect(t.Select)
		if err != nil {
			return nil, err
		}
		alias := t.Alias
		if alias == "" {
			alias = "subquery"
		}
		return renameBinding(n, alias), nil
	case *sqlparser.JoinTable:
		return b.bindJoin(t)
	case *sqlparser.SeriesTable:
		return b.bindSeries(&Values{Rows: [][]expr.Expr{{}}}, t)
	}
	return nil, fmt.Errorf("plan: unsupported table reference %T", tr)
}

// bindSeries binds generate_series(lo, hi) as the FROM item to the right of
// input: its bounds read input's columns. Its one column is named by its
// alias, else generate_series, as PostgreSQL names it.
func (b *Binder) bindSeries(input Node, t *sqlparser.SeriesTable) (Node, error) {
	name := t.Alias
	if name == "" {
		name = "generate_series"
	}
	bound := func(e sqlparser.Expr) (expr.Expr, error) {
		x, err := b.bindExpr(e, input.Schema(), false)
		if err != nil {
			return nil, err
		}
		if typ := x.Type(); typ != sqltypes.TypeInt && typ != sqltypes.TypeNull && typ != sqltypes.TypeAny {
			return nil, fmt.Errorf("plan: generate_series bound %s is %s, not INTEGER", x, typ)
		}
		return x, nil
	}
	s := &Series{Input: input, Col: ColumnInfo{Table: name, Name: name, Type: sqltypes.TypeInt}}
	var err error
	if s.Lo, err = bound(t.Lo); err != nil {
		return nil, err
	}
	if s.Hi, err = bound(t.Hi); err != nil {
		return nil, err
	}
	return s, nil
}

func (b *Binder) bindNamedTable(t *sqlparser.NamedTable) (Node, error) {
	key := strings.ToLower(t.Name)
	// CTE in scope?
	if b.ctes != nil {
		if n, ok := b.ctes[key]; ok {
			if t.Alias != "" {
				return renameBinding(n, t.Alias), nil
			}
			return n, nil
		}
	}
	// Plain view?
	if v, ok := b.Catalog.View(t.Name); ok {
		sel, err := sqlparser.Parse(v.SourceSQL)
		if err != nil {
			return nil, fmt.Errorf("plan: view %q: %w", t.Name, err)
		}
		ss, ok := sel.(*sqlparser.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("plan: view %q is not a SELECT", t.Name)
		}
		n, err := b.BindSelect(ss)
		if err != nil {
			return nil, err
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		return renameBinding(n, alias), nil
	}
	tbl, err := b.Catalog.Table(t.Name)
	if err != nil {
		return nil, err
	}
	return NewScan(tbl, t.Alias), nil
}

func (b *Binder) bindJoin(jt *sqlparser.JoinTable) (Node, error) {
	left, err := b.bindTableRef(jt.Left)
	if err != nil {
		return nil, err
	}
	if st, ok := jt.Right.(*sqlparser.SeriesTable); ok {
		if jt.Kind != sqlparser.JoinCross {
			return nil, fmt.Errorf("plan: generate_series joins only by a comma or CROSS JOIN")
		}
		return b.bindSeries(left, st)
	}
	right, err := b.bindTableRef(jt.Right)
	if err != nil {
		return nil, err
	}
	j := &Join{Kind: jt.Kind, Left: left, Right: right}
	combined := j.Schema()
	if len(jt.Using) > 0 {
		// USING(a, b) => l.a = r.a AND l.b = r.b
		for _, col := range jt.Using {
			li, err := resolveIn(left.Schema(), "", col)
			if err != nil {
				return nil, fmt.Errorf("plan: USING column %q: %w", col, err)
			}
			ri, err := resolveIn(right.Schema(), "", col)
			if err != nil {
				return nil, fmt.Errorf("plan: USING column %q: %w", col, err)
			}
			j.EquiLeft = append(j.EquiLeft, li)
			j.EquiRight = append(j.EquiRight, ri)
			j.EquiNullSafe = append(j.EquiNullSafe, false)
		}
		return j, nil
	}
	if jt.On != nil {
		pred, err := b.bindExpr(jt.On, combined, false)
		if err != nil {
			return nil, err
		}
		ExtractEquiKeys(j, pred, len(left.Schema()))
	}
	return j, nil
}

// ExtractEquiKeys pulls top-level AND-ed column equalities between the two
// sides out of pred — `=`, and the NULL-safe IS NOT DISTINCT FROM —
// appending them to j's hash-join keys, and leaves the rest in j.On. The
// binder runs it on an ON condition, the optimizer on what predicate
// placement leaves at an inner join.
func ExtractEquiKeys(j *Join, pred expr.Expr, leftWidth int) {
	var residual []expr.Expr
	var visit func(e expr.Expr)
	visit = func(e expr.Expr) {
		if bin, ok := e.(*expr.Binary); ok {
			if bin.Op == "AND" {
				visit(bin.Left)
				visit(bin.Right)
				return
			}
			if nullSafe := bin.Op == "IS NOT DISTINCT FROM"; nullSafe || bin.Op == "=" {
				lc, lok := bin.Left.(*expr.Column)
				rc, rok := bin.Right.(*expr.Column)
				if lok && rok && rc.Idx < leftWidth && lc.Idx >= leftWidth {
					lc, rc = rc, lc
				}
				if lok && rok && lc.Idx < leftWidth && rc.Idx >= leftWidth {
					j.EquiLeft = append(j.EquiLeft, lc.Idx)
					j.EquiRight = append(j.EquiRight, rc.Idx-leftWidth)
					j.EquiNullSafe = append(j.EquiNullSafe, nullSafe)
					return
				}
			}
		}
		residual = append(residual, e)
	}
	visit(pred)
	var on expr.Expr
	for _, r := range residual {
		if on == nil {
			on = r
		} else {
			on = &expr.Binary{Op: "AND", Left: on, Right: r}
		}
	}
	j.On = on
}

// renameBinding relabels the schema's table alias (wrapping in an identity
// Project so downstream positional references are unaffected).
func renameBinding(n Node, alias string) Node {
	in := n.Schema()
	exprs := make([]expr.Expr, len(in))
	cols := make([]ColumnInfo, len(in))
	for i, c := range in {
		exprs[i] = &expr.Column{Idx: i, Name: c.Name, Typ: c.Type}
		cols[i] = ColumnInfo{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &Project{Input: n, Exprs: exprs, Cols: cols}
}

// --- aggregate binding ---

func (b *Binder) bindAggregate(input Node, items []sqlparser.SelectItem, sel *sqlparser.SelectStmt) (Node, error) {
	inSchema := input.Schema()

	// Resolve GROUP BY expressions: ordinals and aliases refer to items.
	var groups []groupExpr
	for _, g := range sel.GroupBy {
		pe := g
		// Ordinal: GROUP BY 1.
		if lit, ok := g.(*sqlparser.Literal); ok && lit.Value.T == sqltypes.TypeInt {
			idx := int(lit.Value.I)
			if idx < 1 || idx > len(items) {
				return nil, fmt.Errorf("plan: GROUP BY ordinal %d out of range", idx)
			}
			pe = items[idx-1].Expr
		}
		// Alias: GROUP BY total — matches a select-item alias.
		if cr, ok := pe.(*sqlparser.ColumnRef); ok && cr.Table == "" && !cr.Star {
			if _, err := resolveIn(inSchema, "", cr.Column); err != nil {
				for _, it := range items {
					if strings.EqualFold(it.Alias, cr.Column) {
						pe = it.Expr
						break
					}
				}
			}
		}
		be, err := b.bindExpr(pe, inSchema, false)
		if err != nil {
			return nil, err
		}
		ge := groupExpr{parser: pe, bound: be, name: sqlparser.DisplayName(pe)}
		if cr, ok := pe.(*sqlparser.ColumnRef); ok {
			ge.table = cr.Table
		}
		groups = append(groups, ge)
	}

	// Collect aggregates from select items and HAVING, dedup by rendering.
	aggKeys := map[string]int{}
	var aggs []*expr.Aggregate
	var parserAggs []*sqlparser.FuncExpr
	collect := func(e sqlparser.Expr) error {
		var werr error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			f, ok := x.(*sqlparser.FuncExpr)
			if !ok || !expr.IsAggregateName(f.Name) {
				return true
			}
			key := sqlparser.ExprString(f)
			if _, seen := aggKeys[key]; seen {
				return false
			}
			kind, _ := expr.ParseAggKind(f.Name, f.Star)
			ag := &expr.Aggregate{Kind: kind, Distinct: f.Distinct}
			if !f.Star {
				if len(f.Args) != 1 {
					werr = fmt.Errorf("plan: aggregate %s takes one argument", f.Name)
					return false
				}
				arg, err := b.bindExpr(f.Args[0], inSchema, false)
				if err != nil {
					werr = err
					return false
				}
				ag.Arg = arg
			}
			aggKeys[key] = len(aggs)
			aggs = append(aggs, ag)
			parserAggs = append(parserAggs, f)
			return false // don't descend into aggregate args
		})
		return werr
	}
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, err
		}
	}

	// Aggregate node output schema: groups then aggregates.
	agg := &Aggregate{Input: input}
	for _, g := range groups {
		agg.GroupBy = append(agg.GroupBy, g.bound)
		agg.Cols = append(agg.Cols, ColumnInfo{Table: g.table, Name: g.name, Type: g.bound.Type()})
	}
	for i, a := range aggs {
		agg.Cols = append(agg.Cols, ColumnInfo{
			Name: strings.ToLower(sqlparser.ExprString(parserAggs[i])),
			Type: a.ResultType(),
		})
	}
	agg.Aggs = aggs

	// Rebind an expression over the aggregate's output: aggregate calls and
	// group expressions become column references.
	rebind := func(e sqlparser.Expr) (expr.Expr, error) {
		return b.bindPostAgg(e, groupsAsPost(groups), aggKeys, agg.Cols, len(groups))
	}

	var node Node = agg

	// HAVING.
	if sel.Having != nil {
		pred, err := rebind(sel.Having)
		if err != nil {
			return nil, err
		}
		node = &Filter{Input: node, Pred: pred}
	}

	// Final projection.
	exprs := make([]expr.Expr, len(items))
	cols := make([]ColumnInfo, len(items))
	for i, it := range items {
		e, err := rebind(it.Expr)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		cols[i] = ColumnInfo{Name: itemName(it), Type: e.Type()}
		if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok && it.Alias == "" {
			cols[i].Table = cr.Table
		}
	}
	return &Project{Input: node, Exprs: exprs, Cols: cols}, nil
}

// groupExpr carries one resolved GROUP BY expression through aggregate
// binding.
type groupExpr struct {
	parser sqlparser.Expr
	bound  expr.Expr
	name   string
	table  string
}

type postGroup struct {
	key   string // ExprString of the group's parser expression
	table string
	name  string
}

func groupsAsPost(groups []groupExpr) []postGroup {
	out := make([]postGroup, len(groups))
	for i, g := range groups {
		out[i] = postGroup{key: sqlparser.ExprString(g.parser), table: g.table, name: g.name}
	}
	return out
}

// bindPostAgg binds an expression over the aggregate output schema:
// aggregate function calls resolve to their output column, group expressions
// (matched syntactically) resolve to the group column, and anything else
// containing a raw column reference is rejected.
func (b *Binder) bindPostAgg(e sqlparser.Expr, groups []postGroup, aggKeys map[string]int, cols []ColumnInfo, nGroups int) (expr.Expr, error) {
	// Exact group-expression match?
	key := sqlparser.ExprString(e)
	for i, g := range groups {
		if g.key == key {
			return &expr.Column{Idx: i, Name: g.name, Typ: cols[i].Type}, nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.FuncExpr:
		if expr.IsAggregateName(x.Name) {
			if idx, ok := aggKeys[key]; ok {
				return &expr.Column{Idx: nGroups + idx, Name: cols[nGroups+idx].Name, Typ: cols[nGroups+idx].Type}, nil
			}
			return nil, fmt.Errorf("plan: aggregate %s not collected", key)
		}
		// Scalar function over post-aggregate values.
		args := make([]expr.Expr, len(x.Args))
		types := make([]sqltypes.Type, len(x.Args))
		for i, a := range x.Args {
			ba, err := b.bindPostAgg(a, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
			args[i] = ba
			types[i] = ba.Type()
		}
		mk, ok := expr.ScalarFuncs[x.Name]
		if !ok {
			return nil, fmt.Errorf("plan: unknown function %s", x.Name)
		}
		fn, typ, err := mk(types)
		if err != nil {
			return nil, err
		}
		return &expr.ScalarFunc{Name: x.Name, Args: args, Fn: fn, Typ: typ}, nil
	case *sqlparser.ColumnRef:
		// Group column referenced by bare name or alias.
		for i, g := range groups {
			if strings.EqualFold(g.name, x.Column) && (x.Table == "" || strings.EqualFold(g.table, x.Table)) {
				return &expr.Column{Idx: i, Name: g.name, Typ: cols[i].Type}, nil
			}
		}
		return nil, fmt.Errorf("plan: column %q must appear in GROUP BY or be used in an aggregate", sqlparser.ExprString(x))
	case *sqlparser.Literal:
		return &expr.Literal{Val: x.Value}, nil
	case *sqlparser.BinaryExpr:
		l, err := b.bindPostAgg(x.Left, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		r, err := b.bindPostAgg(x.Right, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: x.Op, Left: l, Right: r}, nil
	case *sqlparser.UnaryExpr:
		o, err := b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: x.Op, Operand: o}, nil
	case *sqlparser.IsNullExpr:
		o, err := b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Operand: o, Negate: x.Negate}, nil
	case *sqlparser.CaseExpr:
		ce := &expr.Case{}
		var err error
		if x.Operand != nil {
			ce.Operand, err = b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
		}
		for _, w := range x.Whens {
			wb, err := b.bindPostAgg(w.When, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
			tb, err := b.bindPostAgg(w.Then, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
			ce.Whens = append(ce.Whens, expr.CaseWhen{When: wb, Then: tb})
		}
		if x.Else != nil {
			ce.Else, err = b.bindPostAgg(x.Else, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
		}
		return ce, nil
	case *sqlparser.CastExpr:
		o, err := b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		t, err := sqltypes.ParseType(x.TypeName)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{Operand: o, Target: t}, nil
	case *sqlparser.BetweenExpr:
		o, err := b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindPostAgg(x.Lo, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindPostAgg(x.Hi, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		return &expr.Between{Operand: o, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case *sqlparser.InExpr:
		o, err := b.bindPostAgg(x.Operand, groups, aggKeys, cols, nGroups)
		if err != nil {
			return nil, err
		}
		ie := &expr.In{Operand: o, Negate: x.Negate}
		for _, item := range x.List {
			bi, err := b.bindPostAgg(item, groups, aggKeys, cols, nGroups)
			if err != nil {
				return nil, err
			}
			ie.List = append(ie.List, bi)
		}
		return ie, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T after aggregation", e)
}

// --- ORDER BY / LIMIT ---

func (b *Binder) bindOrderLimit(node Node, sel *sqlparser.SelectStmt) (Node, error) {
	schema := node.Schema()
	if len(sel.OrderBy) > 0 {
		var keys []SortKey
		// Hidden sort columns: ORDER BY may reference input columns that are
		// not projected (SELECT v FROM t ORDER BY k). When direct binding
		// fails and the plan root is a simple projection, bind against the
		// projection's input and append the key as a hidden column, removed
		// again after the sort.
		proj, _ := node.(*Project)
		var hidden []expr.Expr
		visibleWidth := len(schema)
		for _, oi := range sel.OrderBy {
			var e expr.Expr
			// Ordinal.
			if lit, ok := oi.Expr.(*sqlparser.Literal); ok && lit.Value.T == sqltypes.TypeInt {
				idx := int(lit.Value.I)
				if idx < 1 || idx > visibleWidth {
					return nil, fmt.Errorf("plan: ORDER BY ordinal %d out of range", idx)
				}
				e = &expr.Column{Idx: idx - 1, Name: schema[idx-1].Name, Typ: schema[idx-1].Type}
			} else {
				be, err := b.bindExpr(oi.Expr, schema, false)
				if err != nil {
					if proj == nil {
						return nil, err
					}
					inner, ierr := b.bindExpr(oi.Expr, proj.Input.Schema(), false)
					if ierr != nil {
						return nil, err // report the original error
					}
					e = &expr.Column{Idx: visibleWidth + len(hidden), Typ: inner.Type()}
					hidden = append(hidden, inner)
				} else {
					e = be
				}
			}
			keys = append(keys, SortKey{Expr: e, Desc: oi.Desc})
		}
		if len(hidden) > 0 {
			wide := &Project{Input: proj.Input}
			wide.Exprs = append(append([]expr.Expr{}, proj.Exprs...), hidden...)
			wide.Cols = append([]ColumnInfo{}, proj.Cols...)
			for i, h := range hidden {
				wide.Cols = append(wide.Cols, ColumnInfo{Name: fmt.Sprintf("__sort%d", i), Type: h.Type()})
			}
			var narrowExprs []expr.Expr
			for i, c := range proj.Cols {
				narrowExprs = append(narrowExprs, &expr.Column{Idx: i, Name: c.Name, Typ: c.Type})
			}
			node = &Project{
				Input: &Sort{Input: wide, Keys: keys},
				Exprs: narrowExprs,
				Cols:  proj.Cols,
			}
		} else {
			node = &Sort{Input: node, Keys: keys}
		}
	}
	if sel.Limit != nil || sel.Offset != nil {
		lim := &Limit{Input: node, Limit: -1}
		if sel.Limit != nil {
			v, err := constInt(sel.Limit)
			if err != nil {
				return nil, fmt.Errorf("plan: LIMIT: %w", err)
			}
			lim.Limit = v
		}
		if sel.Offset != nil {
			v, err := constInt(sel.Offset)
			if err != nil {
				return nil, fmt.Errorf("plan: OFFSET: %w", err)
			}
			lim.Offset = v
		}
		node = lim
	}
	return node, nil
}

func constInt(e sqlparser.Expr) (int64, error) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok || lit.Value.T != sqltypes.TypeInt {
		return 0, fmt.Errorf("expected integer constant")
	}
	return lit.Value.I, nil
}

// BindExprSchema binds a scalar expression against an explicit schema
// (used by the engine's DML paths, which evaluate predicates against base
// table rows directly).
func (b *Binder) BindExprSchema(e sqlparser.Expr, schema []ColumnInfo) (expr.Expr, error) {
	return b.bindExpr(e, schema, false)
}

// BindExprNoInput binds an expression with no input columns (constants,
// e.g. DEFAULT clauses).
func (b *Binder) BindExprNoInput(e sqlparser.Expr) (expr.Expr, error) {
	return b.bindExpr(e, nil, false)
}

// --- scalar expression binding ---

// resolveIn finds (table, name) in schema; table may be empty. Errors on
// ambiguity or absence.
func resolveIn(schema []ColumnInfo, table, name string) (int, error) {
	found := -1
	for i, c := range schema {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		q := name
		if table != "" {
			q = table + "." + name
		}
		return 0, fmt.Errorf("column %q not found", q)
	}
	return found, nil
}

// bindExpr binds a parser expression against a schema. allowAgg permits
// aggregate function calls to bind as plain scalar errors (false rejects).
func (b *Binder) bindExpr(e sqlparser.Expr, schema []ColumnInfo, allowAgg bool) (expr.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &expr.Literal{Val: x.Value}, nil
	case *sqlparser.ColumnRef:
		if x.Star {
			return nil, fmt.Errorf("plan: * not allowed in this context")
		}
		idx, err := resolveIn(schema, x.Table, x.Column)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		return &expr.Column{Idx: idx, Name: x.Column, Typ: schema[idx].Type}, nil
	case *sqlparser.BinaryExpr:
		l, err := b.bindExpr(x.Left, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.Right, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: x.Op, Left: l, Right: r}, nil
	case *sqlparser.UnaryExpr:
		o, err := b.bindExpr(x.Operand, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: x.Op, Operand: o}, nil
	case *sqlparser.IsNullExpr:
		o, err := b.bindExpr(x.Operand, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{Operand: o, Negate: x.Negate}, nil
	case *sqlparser.InExpr:
		// IN (SELECT ...) binds to a lazy subquery fetch; its left operand
		// may be a row value.
		if len(x.List) == 1 {
			if sq, ok := x.List[0].(*sqlparser.SubqueryExpr); ok {
				if b.SubqueryRowsFn == nil {
					return nil, fmt.Errorf("plan: IN subqueries not supported in this context")
				}
				items := []sqlparser.Expr{x.Operand}
				if row, ok := x.Operand.(*sqlparser.RowExpr); ok {
					items = row.Items
				}
				q := &expr.InQuery{Negate: x.Negate, NullSafe: x.NullSafe}
				for _, item := range items {
					o, err := b.bindExpr(item, schema, allowAgg)
					if err != nil {
						return nil, err
					}
					q.Operands = append(q.Operands, o)
				}
				var err error
				if q.Fetch, err = b.SubqueryRowsFn(sq.Select); err != nil {
					return nil, err
				}
				return q, nil
			}
		}
		o, err := b.bindExpr(x.Operand, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		ie := &expr.In{Operand: o, Negate: x.Negate}
		for _, item := range x.List {
			bi, err := b.bindExpr(item, schema, allowAgg)
			if err != nil {
				return nil, err
			}
			ie.List = append(ie.List, bi)
		}
		return ie, nil
	case *sqlparser.BetweenExpr:
		o, err := b.bindExpr(x.Operand, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(x.Lo, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(x.Hi, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		return &expr.Between{Operand: o, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case *sqlparser.CaseExpr:
		ce := &expr.Case{}
		var err error
		if x.Operand != nil {
			ce.Operand, err = b.bindExpr(x.Operand, schema, allowAgg)
			if err != nil {
				return nil, err
			}
		}
		for _, w := range x.Whens {
			wb, err := b.bindExpr(w.When, schema, allowAgg)
			if err != nil {
				return nil, err
			}
			tb, err := b.bindExpr(w.Then, schema, allowAgg)
			if err != nil {
				return nil, err
			}
			ce.Whens = append(ce.Whens, expr.CaseWhen{When: wb, Then: tb})
		}
		if x.Else != nil {
			ce.Else, err = b.bindExpr(x.Else, schema, allowAgg)
			if err != nil {
				return nil, err
			}
		}
		return ce, nil
	case *sqlparser.CastExpr:
		o, err := b.bindExpr(x.Operand, schema, allowAgg)
		if err != nil {
			return nil, err
		}
		t, err := sqltypes.ParseType(x.TypeName)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		return &expr.Cast{Operand: o, Target: t}, nil
	case *sqlparser.FuncExpr:
		if expr.IsAggregateName(x.Name) {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", x.Name)
		}
		args := make([]expr.Expr, len(x.Args))
		types := make([]sqltypes.Type, len(x.Args))
		for i, a := range x.Args {
			ba, err := b.bindExpr(a, schema, allowAgg)
			if err != nil {
				return nil, err
			}
			args[i] = ba
			types[i] = ba.Type()
		}
		mk, ok := expr.ScalarFuncs[x.Name]
		if !ok {
			return nil, fmt.Errorf("plan: unknown function %s", x.Name)
		}
		fn, typ, err := mk(types)
		if err != nil {
			return nil, err
		}
		return &expr.ScalarFunc{Name: x.Name, Args: args, Fn: fn, Typ: typ}, nil
	case *sqlparser.SubqueryExpr:
		if b.SubqueryFn == nil {
			return nil, fmt.Errorf("plan: scalar subqueries not supported in this context")
		}
		return b.SubqueryFn(x.Select)
	case *sqlparser.RowExpr:
		return nil, fmt.Errorf("plan: a row value (a, b, ...) is supported only as the left operand of IN (SELECT ...)")
	case *sqlparser.ParamExpr:
		if b.Params == nil {
			return nil, fmt.Errorf("plan: statement parameters ($%d) not supported in this context", x.Index)
		}
		return &expr.Param{Index: x.Index, Typ: x.Type, Binding: b.Params}, nil
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}
