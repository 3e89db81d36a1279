package expr

// ParallelSafe reports whether e may be evaluated concurrently from
// multiple goroutines. Almost every bound expression is read-only at Eval
// time; the exceptions carry shared mutable state — InQuery's Fetch
// closure populates a lazy result cache, and Param reads a per-session
// value binding that the driver mutates between executions — so a tree
// containing one must stay on a single goroutine. (ScalarFunc used to be
// in this set for its argument scratch buffer; the buffer now moves
// between evaluators by atomic swap, so COALESCE/ABS-shaped plans are
// admitted to the shared statement cache and to parallel scans.) Unknown
// node kinds refuse, keeping the default conservative if new Expr types
// appear.
//
// A nil expression (absent filter, COUNT(*) argument) is trivially safe.
func ParallelSafe(e Expr) bool {
	return exprSafe(e, false)
}

// Reusable reports whether e may be evaluated again on a later execution
// of the same plan — the gate for the engine's prepared-statement plan
// cache. It is weaker than ParallelSafe: statement parameters (Param) are
// fine across sequential executions — re-binding values between runs is
// exactly the prepared-statement contract — but expressions that cache
// query RESULTS lazily (InQuery's subquery rows, the engine's scalar
// subqueries, which arrive here as unknown node kinds) would replay stale
// data and must force a re-plan.
func Reusable(e Expr) bool {
	return exprSafe(e, true)
}

func exprSafe(e Expr, allowScratch bool) bool {
	safe := true
	Walk(e, func(x Expr) {
		switch x.(type) {
		case *Column, *Literal, *Binary, *Unary, *IsNull, *In, *Between, *Case, *Cast:
		case *ScalarFunc:
			// The argument scratch is handed off by atomic swap (see
			// ScalarFunc.Eval), so the node is safe both across executions and
			// across goroutines; only the arguments can disqualify the tree.
		case *Param:
			// A parameter reads its session's mutable value binding: fine to
			// re-execute sequentially after re-binding (the prepared-statement
			// contract), never safe to share across sessions or goroutines.
			safe = safe && allowScratch
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
