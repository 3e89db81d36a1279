package expr

import (
	"testing"

	"openivm/internal/sqltypes"
)

// TestStatelessRefusesStatefulExprs pins the gate the plan cache and
// predicate placement depend on.
func TestStatelessRefusesStatefulExprs(t *testing.T) {
	if !Stateless(&Binary{Op: "+", Left: &Column{Idx: 0}, Right: &Literal{Val: sqltypes.NewInt(1)}}) {
		t.Fatal("pure arithmetic reported stateful")
	}
	// ScalarFunc's argument scratch is a buffer, not state carried from one
	// evaluation to the next; it must not taint the tree.
	sf := &ScalarFunc{Name: "COALESCE", Args: []Expr{&Column{Idx: 0}}}
	if !Stateless(sf) {
		t.Fatal("ScalarFunc reported stateful")
	}
	if !Stateless(&Binary{Op: "AND", Left: sf, Right: &Column{Idx: 1}}) {
		t.Fatal("tree containing ScalarFunc reported stateful")
	}
	// A ScalarFunc whose ARGUMENT is stateful still refuses.
	inq := &InQuery{Operands: []Expr{&Column{Idx: 0}}}
	if Stateless(&ScalarFunc{Name: "ABS", Args: []Expr{inq}}) {
		t.Fatal("ScalarFunc over InQuery reported stateless")
	}
	if Stateless(inq) {
		t.Fatal("InQuery (lazy cache) reported stateless")
	}
	// A statement parameter only reads its binding, which stays put for the
	// length of an execution.
	p := &Param{Index: 1, Binding: &ParamBinding{}}
	if !Stateless(&Binary{Op: "=", Left: &Column{Idx: 0}, Right: p}) {
		t.Fatal("Param reported stateful")
	}
}
