// Package optimizer rewrites bound logical plans before execution: it folds
// constant sub-expressions, places each predicate conjunct as far down the
// plan as it may legally go (through joins and column-renaming projections
// to the scans), drops column-identity projections below the root, turns
// an inner join chain (A ⋈ B) ⋈ C into A ⋈ (B ⋈ C) where C is found by
// its primary key and B is the smaller of A and B (RotateKeyedJoin; not
// when A's filter pins its keys or either join is outer), folds a
// column-selecting projection into the one below it, drops the integer of
// a generate_series nothing reads, and narrows the columns a scan emits.
package optimizer

import (
	"slices"

	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// Optimize rewrites a bound plan. A rule may swap a node's child for an
// equivalent one in place, but what it changes the meaning of — a scan
// given a filter, a Project or join that conjuncts move through, an
// expression bound anew — it copies: a subtree the binder shares between
// references (a CTE read twice) must keep its meaning under each of them.
func Optimize(n plan.Node) plan.Node {
	n = rewrite(n, FoldConstants)
	n = place(n, nil, true)
	n = rewrite(n, RotateKeyedJoin)
	n = rewrite(n, func(n plan.Node) plan.Node { return PruneSeriesColumn(MergeProjects(n)) })
	return rewrite(n, PruneScanColumns)
}

// rewrite applies rule to n's children first, then to n.
func rewrite(n plan.Node, rule func(plan.Node) plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		x.Input = rewrite(x.Input, rule)
	case *plan.Project:
		x.Input = rewrite(x.Input, rule)
	case *plan.Aggregate:
		x.Input = rewrite(x.Input, rule)
	case *plan.Join:
		x.Left = rewrite(x.Left, rule)
		x.Right = rewrite(x.Right, rule)
	case *plan.Distinct:
		x.Input = rewrite(x.Input, rule)
	case *plan.Series:
		x.Input = rewrite(x.Input, rule)
	case *plan.Sort:
		x.Input = rewrite(x.Input, rule)
	case *plan.Limit:
		x.Input = rewrite(x.Input, rule)
	case *plan.SetOp:
		x.Left = rewrite(x.Left, rule)
		x.Right = rewrite(x.Right, rule)
	}
	return rule(n)
}

// FoldConstants evaluates constant sub-expressions in filters and
// projections at plan time.
func FoldConstants(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		x.Pred = foldExpr(x.Pred)
		// WHERE TRUE disappears.
		if lit, ok := x.Pred.(*expr.Literal); ok && lit.Val.IsTrue() {
			return x.Input
		}
	case *plan.Project:
		for i, e := range x.Exprs {
			x.Exprs[i] = foldExpr(e)
		}
	}
	return n
}

// foldExpr folds constant subtrees: if every leaf of a deterministic
// expression is a literal, evaluate it now.
func foldExpr(e expr.Expr) expr.Expr {
	switch x := e.(type) {
	case *expr.Binary:
		x.Left = foldExpr(x.Left)
		x.Right = foldExpr(x.Right)
		if isLit(x.Left) && isLit(x.Right) {
			if v, err := x.Eval(nil); err == nil {
				return &expr.Literal{Val: v}
			}
		}
	case *expr.Unary:
		x.Operand = foldExpr(x.Operand)
		if isLit(x.Operand) {
			if v, err := x.Eval(nil); err == nil {
				return &expr.Literal{Val: v}
			}
		}
	case *expr.Cast:
		x.Operand = foldExpr(x.Operand)
		if isLit(x.Operand) {
			if v, err := x.Eval(nil); err == nil {
				return &expr.Literal{Val: v}
			}
		}
	}
	return e
}

func isLit(e expr.Expr) bool {
	_, ok := e.(*expr.Literal)
	return ok
}

// place is predicate placement: it returns n with the conjuncts conj, bound
// against n's output, applied as far down as each may go, and every Filter
// and join condition below n placed the same way. A conjunct moves only if
// it is built from columns, literals, parameters and scalar operators
// (expr.Stateless): a subquery stays in the Filter it was written in,
// except that a Filter right on a scan becomes the scan's filter whole.
// Where a conjunct may go:
//
//   - through a Project, when every column it reads is a plain column there;
//   - through an inner or cross join, to the side it reads; a conjunct
//     reading both sides becomes the join's condition, and its column
//     equalities the join's hash keys;
//   - through a LEFT (RIGHT) join, a conjunct from above only into the left
//     (right), preserved side, and a conjunct of the ON condition only into
//     the other, null-supplying side;
//   - through a FULL join, nowhere;
//   - through generate_series, to its input when it does not read the
//     series' column;
//   - into a scan, as its filter — evaluated on every row the scan reads,
//     a key pin (plan.PinnedKeys), or the filter an index join applies to
//     what it fetches.
//
// What stops above a node is a Filter there. root is set while n is
// reached from the plan root through nodes that keep their input's schema:
// the Project there names the result's columns and stays; below it, a
// Project that passes its input through unchanged is dropped.
func place(n plan.Node, conj []expr.Expr, root bool) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		var moving, kept []expr.Expr
		if _, onScan := x.Input.(*plan.Scan); onScan {
			moving = conjuncts(x.Pred, nil)
		} else {
			for _, c := range conjuncts(x.Pred, nil) {
				if expr.Stateless(c) {
					moving = append(moving, c)
				} else {
					kept = append(kept, c)
				}
			}
		}
		return filter(place(x.Input, append(moving, conj...), root), kept)
	case *plan.Project:
		if !root && passesThrough(x) {
			return place(x.Input, conj, false)
		}
		var moving, kept []expr.Expr
		for _, c := range conj {
			if m := mapColumns(c, func(col *expr.Column) *expr.Column {
				in, _ := x.Exprs[col.Idx].(*expr.Column)
				return in
			}); m != nil {
				moving = append(moving, m)
			} else {
				kept = append(kept, c)
			}
		}
		if in := place(x.Input, moving, false); in != x.Input {
			p := *x
			p.Input = in
			n = &p
		}
		return filter(n, kept)
	case *plan.Join:
		return filter(placeJoin(x, conj))
	case *plan.Series:
		// A conjunct that does not read the series' column goes to the
		// input, whose row each of the series' rows repeats.
		w := len(x.Input.Schema())
		var moving, kept []expr.Expr
		for _, c := range conj {
			if readsFrom(c, w) {
				kept = append(kept, c)
			} else {
				moving = append(moving, c)
			}
		}
		s := *x
		s.Input = place(x.Input, moving, false)
		return filter(&s, kept)
	case *plan.Scan:
		// A scan's filter reads the full row: one already narrowed keeps
		// the conjuncts above it.
		if len(conj) == 0 || x.Projection != nil {
			return filter(x, conj)
		}
		s := *x
		if x.Filter != nil {
			conj = append([]expr.Expr{x.Filter}, conj...)
		}
		s.Filter = and(conj)
		return &s
	// Nothing moves through the rest; what is below them is placed on its
	// own, into the node itself: the result means what the input did.
	case *plan.Aggregate:
		x.Input = place(x.Input, nil, false)
	case *plan.Distinct:
		x.Input = place(x.Input, nil, root)
	case *plan.Sort:
		x.Input = place(x.Input, nil, root)
	case *plan.Limit:
		x.Input = place(x.Input, nil, root)
	case *plan.SetOp:
		x.Left, x.Right = place(x.Left, nil, root), place(x.Right, nil, root)
	}
	return filter(n, conj)
}

// placeJoin places the conjuncts conj from above j and those of j's own
// condition (see place), returning the new join and the conjuncts that stay
// above it.
func placeJoin(j *plan.Join, conj []expr.Expr) (plan.Node, []expr.Expr) {
	lw := len(j.Left.Schema())
	kind := j.Kind
	inner := kind == sqlparser.JoinInner || kind == sqlparser.JoinCross
	// reads reports whether c reads a column of the left side and of the
	// right one: a conjunct reading neither may go to either.
	reads := func(c expr.Expr) (l, r bool) {
		expr.Walk(c, func(x expr.Expr) {
			if col, ok := x.(*expr.Column); ok {
				l = l || col.Idx < lw
				r = r || col.Idx >= lw
			}
		})
		return l, r
	}
	var left, right, on, above []expr.Expr
	for _, c := range conj {
		switch l, r := reads(c); {
		case !r && (inner || kind == sqlparser.JoinLeft):
			left = append(left, c)
		case !l && (inner || kind == sqlparser.JoinRight):
			right = append(right, c)
		case inner:
			on = append(on, c)
		default:
			above = append(above, c)
		}
	}
	for _, c := range conjuncts(j.On, nil) {
		switch l, r := reads(c); {
		case !expr.Stateless(c):
			on = append(on, c)
		case !r && (inner || kind == sqlparser.JoinRight):
			left = append(left, c)
		case !l && (inner || kind == sqlparser.JoinLeft):
			right = append(right, c)
		default:
			on = append(on, c)
		}
	}
	for i, c := range right {
		right[i] = mapColumns(c, func(col *expr.Column) *expr.Column {
			return &expr.Column{Idx: col.Idx - lw, Name: col.Name, Typ: col.Typ}
		})
	}
	out := &plan.Join{
		Kind:         kind,
		Left:         place(j.Left, left, false),
		Right:        place(j.Right, right, false),
		On:           and(on),
		EquiLeft:     slices.Clip(j.EquiLeft),
		EquiRight:    slices.Clip(j.EquiRight),
		EquiNullSafe: slices.Clip(j.EquiNullSafe),
	}
	if inner && out.On != nil {
		plan.ExtractEquiKeys(out, out.On, lw)
	}
	if kind == sqlparser.JoinCross && (out.On != nil || len(out.EquiLeft) > 0) {
		out.Kind = sqlparser.JoinInner
	}
	return out, above
}

// RotateKeyedJoin rewrites the inner join (A ⋈ B) ⋈ C to A ⋈ (B ⋈ C)
// when the upper join reads only B and C, C is a scan joined on every
// column of its primary key (so B ⋈ C holds at most one row per row of B),
// and B's SourceRows are fewer than A's, both known: A is then read once,
// against what B and C leave of each other, instead of each row of A ⋈ B
// being built and probed again. The chain stays as written when A is a
// scan whose filter pins its keys (plan.PinnedKeys: a few rows already) or
// either join is outer. Only the moved join's keys and residual change,
// shifted by A's width; the two joins are new nodes over the same A, B, C.
func RotateKeyedJoin(n plan.Node) plan.Node {
	top, ok := n.(*plan.Join)
	if !ok || top.Kind != sqlparser.JoinInner {
		return n
	}
	low, ok := top.Left.(*plan.Join)
	c, isScan := top.Right.(*plan.Scan)
	if !ok || !isScan || c.Projection != nil || low.Kind != sqlparser.JoinInner && low.Kind != sqlparser.JoinCross {
		return n
	}
	pk := c.Table.PrimaryKeyColumns()
	if len(pk) == 0 || slices.ContainsFunc(pk, func(p int) bool { return !slices.Contains(top.EquiRight, p) }) {
		return n
	}
	if a, ok := low.Left.(*plan.Scan); ok && plan.PinnedKeys(a.Table, a.Filter) != nil {
		return n
	}
	rowsA, okA := plan.SourceRows(low.Left)
	rowsB, okB := plan.SourceRows(low.Right)
	aw := len(low.Left.Schema())
	on := mapColumns(top.On, func(col *expr.Column) *expr.Column {
		if col.Idx < aw {
			return nil
		}
		return &expr.Column{Idx: col.Idx - aw, Name: col.Name, Typ: col.Typ}
	})
	if !okA || !okB || rowsB >= rowsA || slices.Min(top.EquiLeft) < aw || on == nil && top.On != nil {
		return n
	}
	moved := *top
	moved.Left, moved.On, moved.EquiLeft = low.Right, on, make([]int, len(top.EquiLeft))
	for i, k := range top.EquiLeft {
		moved.EquiLeft[i] = k - aw
	}
	rotated := *low
	rotated.Right = &moved
	return &rotated
}

// conjuncts appends the top-level AND-ed terms of e to dst.
func conjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*expr.Binary); ok && b.Op == "AND" {
		return conjuncts(b.Right, conjuncts(b.Left, dst))
	}
	return append(dst, e)
}

// and is the conjunction of terms, nil for none.
func and(terms []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range terms {
		if out == nil {
			out = c
		} else {
			out = &expr.Binary{Op: "AND", Left: out, Right: c}
		}
	}
	return out
}

// filter is n under a Filter of conj, n itself when conj is empty.
func filter(n plan.Node, conj []expr.Expr) plan.Node {
	if len(conj) == 0 {
		return n
	}
	return &plan.Filter{Input: n, Pred: and(conj)}
}

// passesThrough reports whether p emits its input's columns unchanged: the
// same positions, kinds and count.
func passesThrough(p *plan.Project) bool {
	in := p.Input.Schema()
	if len(p.Exprs) != len(in) {
		return false
	}
	for i, e := range p.Exprs {
		if c, ok := e.(*expr.Column); !ok || c.Idx != i || p.Cols[i].Type != in[i].Type {
			return false
		}
	}
	return true
}

// mapColumns returns a copy of e in which every column reference is the
// one col returns for it, or nil when col returns nil for one. It copies
// the expression kinds of expr.Stateless; one of another kind is kept
// as it is when it reads no column (a scalar subquery), else nil.
func mapColumns(e expr.Expr, col func(*expr.Column) *expr.Column) expr.Expr {
	ok := true
	var m func(e expr.Expr) expr.Expr
	m = func(e expr.Expr) expr.Expr {
		switch x := e.(type) {
		case nil:
			return nil
		case *expr.Column:
			c := col(x)
			if c == nil {
				ok = false
				return x
			}
			return c
		case *expr.Literal, *expr.Param:
			return x
		case *expr.Binary:
			return &expr.Binary{Op: x.Op, Left: m(x.Left), Right: m(x.Right)}
		case *expr.Unary:
			return &expr.Unary{Op: x.Op, Operand: m(x.Operand)}
		case *expr.IsNull:
			return &expr.IsNull{Operand: m(x.Operand), Negate: x.Negate}
		case *expr.In:
			in := &expr.In{Operand: m(x.Operand), Negate: x.Negate, List: make([]expr.Expr, len(x.List))}
			for i, item := range x.List {
				in.List[i] = m(item)
			}
			return in
		case *expr.Between:
			return &expr.Between{Operand: m(x.Operand), Lo: m(x.Lo), Hi: m(x.Hi), Negate: x.Negate}
		case *expr.Case:
			c := &expr.Case{Operand: m(x.Operand), Else: m(x.Else), Whens: make([]expr.CaseWhen, len(x.Whens))}
			for i, w := range x.Whens {
				c.Whens[i] = expr.CaseWhen{When: m(w.When), Then: m(w.Then)}
			}
			return c
		case *expr.Cast:
			return &expr.Cast{Operand: m(x.Operand), Target: x.Target}
		case *expr.ScalarFunc:
			f := &expr.ScalarFunc{Name: x.Name, Fn: x.Fn, Typ: x.Typ, Args: make([]expr.Expr, len(x.Args))}
			for i, a := range x.Args {
				f.Args[i] = m(a)
			}
			return f
		}
		expr.Walk(e, func(x expr.Expr) {
			if _, isCol := x.(*expr.Column); isCol {
				ok = false
			}
		})
		return e
	}
	out := m(e)
	if !ok {
		return nil
	}
	return out
}

// MergeProjects folds a Project that only selects columns into the
// Project below it, so a row is built once: the root of a read of a view,
// over the view's own select list, becomes that select list renamed. An
// expression of the lower Project that is not stateless stays where it is
// evaluated once per row.
func MergeProjects(n plan.Node) plan.Node {
	p, ok := n.(*plan.Project)
	if !ok {
		return n
	}
	in, ok := p.Input.(*plan.Project)
	if !ok {
		return n
	}
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		c, ok := e.(*expr.Column)
		if !ok || !expr.Stateless(in.Exprs[c.Idx]) {
			return n
		}
		exprs[i] = in.Exprs[c.Idx]
	}
	return &plan.Project{Input: in.Input, Exprs: exprs, Cols: p.Cols}
}

// PruneSeriesColumn makes bare the generate_series under a Project that
// does not read its integer: each row it emits is then its input row,
// repeated, not copied (a projection or join view read by weight).
func PruneSeriesColumn(n plan.Node) plan.Node {
	p, ok := n.(*plan.Project)
	if !ok {
		return n
	}
	s, ok := p.Input.(*plan.Series)
	if !ok || s.Bare {
		return n
	}
	for _, e := range p.Exprs {
		if readsFrom(e, len(s.Input.Schema())) {
			return n
		}
	}
	bare := *s
	bare.Bare = true
	out := *p
	out.Input = &bare
	return &out
}

// readsFrom reports whether e reads a column at position w or after it:
// the integer of a generate_series over a w-column input.
func readsFrom(e expr.Expr, w int) bool {
	read := false
	expr.Walk(e, func(x expr.Expr) {
		if c, ok := x.(*expr.Column); ok && c.Idx >= w {
			read = true
		}
	})
	return read
}

// PruneScanColumns narrows the scan under a Project that uses a subset of
// its columns. It only handles the direct Project(Scan) shape — enough to
// avoid materializing wide rows in the common IVM propagation plans.
func PruneScanColumns(n plan.Node) plan.Node {
	p, ok := n.(*plan.Project)
	if !ok {
		return n
	}
	s, ok := p.Input.(*plan.Scan)
	if !ok || s.Projection != nil || s.Filter != nil {
		return n
	}
	width := len(s.FullSchema())
	remap := make([]int, width) // table column -> position in the projection + 1
	var proj []int
	for _, e := range p.Exprs {
		expr.Walk(e, func(x expr.Expr) {
			if c, ok := x.(*expr.Column); ok && c.Idx >= 0 && c.Idx < width && remap[c.Idx] == 0 {
				proj = append(proj, c.Idx)
				remap[c.Idx] = len(proj)
			}
		})
	}
	if len(proj) == 0 || len(proj) == width {
		return n
	}
	slices.Sort(proj)
	for i, c := range proj {
		remap[c] = i + 1
	}
	out := &plan.Project{Exprs: make([]expr.Expr, len(p.Exprs)), Cols: p.Cols}
	for i, e := range p.Exprs {
		if out.Exprs[i] = mapColumns(e, func(c *expr.Column) *expr.Column {
			if c.Idx < 0 || c.Idx >= width {
				return nil
			}
			return &expr.Column{Idx: remap[c.Idx] - 1, Name: c.Name, Typ: c.Typ}
		}); out.Exprs[i] == nil {
			return n
		}
	}
	scan := *s
	scan.Projection = proj
	out.Input = &scan
	return out
}
