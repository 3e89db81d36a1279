package expr

// Stateless reports whether e keeps no state between evaluations, so it may
// be evaluated again on a later execution of the same plan (the engine's
// plan cache) and moved to another place in the plan (predicate placement).
// Almost every bound expression qualifies; the exception is InQuery, whose
// Fetch closure caches the subquery's rows lazily (the engine's scalar
// subqueries, which arrive here as unknown node kinds, do the same) — a
// tree containing one would replay the first execution's rows. ScalarFunc's
// argument scratch is only a buffer, and a Param only reads its binding,
// which is set before an execution and left alone until it ends. Unknown
// node kinds refuse, keeping the default conservative if new Expr types
// appear.
//
// A nil expression (absent filter, COUNT(*) argument) is trivially
// stateless.
func Stateless(e Expr) bool {
	safe := true
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Column, *Literal, *Param, *Binary, *Unary, *IsNull, *In, *Between, *Case, *Cast, *ScalarFunc:
		default:
			safe = false
		}
	})
	return safe
}

// Walk calls fn on e and on every expression below it, parents first. A
// node kind this package does not define (the engine's scalar subquery) is
// visited as a leaf; nil is no expression.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *Unary:
		Walk(x.Operand, fn)
	case *IsNull:
		Walk(x.Operand, fn)
	case *In:
		Walk(x.Operand, fn)
		for _, item := range x.List {
			Walk(item, fn)
		}
	case *InQuery:
		for _, o := range x.Operands {
			Walk(o, fn)
		}
	case *Between:
		Walk(x.Operand, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *Case:
		Walk(x.Operand, fn)
		for _, w := range x.Whens {
			Walk(w.When, fn)
			Walk(w.Then, fn)
		}
		Walk(x.Else, fn)
	case *Cast:
		Walk(x.Operand, fn)
	case *ScalarFunc:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}
