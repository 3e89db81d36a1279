package plan

import (
	"fmt"
	"slices"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/sqltypes"
)

// KeySet is the set of primary keys a predicate confines a statement to:
// the statement — a SELECT's scan, an UPDATE, a DELETE — then finds its rows
// through the primary-key index instead of scanning. It still evaluates the
// whole predicate on each of them, so residual conjuncts keep their effect.
// A nil *KeySet is the scan.
type KeySet struct {
	n     int              // how many keys vals holds
	vals  []sqltypes.Value // the keys, one value per key column, key after key — or
	query *expr.InQuery    // the subquery whose rows are the keys,
	perm  []int            // perm[i] being the row position of key column i
}

// PinnedKeys returns the key set pred pins on tbl, or nil; pred is bound
// against tbl's full row. A set is pinned when a top-level conjunct
// compares exactly the primary-key columns with values of their own kind
// (sameKeyKind): every key column `=` a constant (see constant), the key
// column `IN` a list of them (one-column keys), or the key columns, in any
// order, `IN (SELECT ...)`, NULL-safe or not. Anything else — a negated
// IN, a disjunction, part of the key, a value of another kind, an
// expression over a column — leaves the statement on the scan. It is
// asked once per execution (parameters are bound then, and the plan is
// reused) by the executor's scan, by UPDATE and DELETE, and by EXPLAIN,
// which prints what this returns.
func PinnedKeys(tbl *catalog.Table, pred expr.Expr) *KeySet {
	f := keyFinder{tbl, tbl.PrimaryKeyColumns()}
	if pred == nil || len(f.pk) == 0 {
		return nil
	}
	key := make([]sqltypes.Value, len(f.pk)) // from `=` conjuncts
	found := 0
	var in *KeySet // from the first usable IN conjunct
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if x, ok := e.(*expr.Binary); ok && x.Op == "AND" {
			walk(x.Left)
			walk(x.Right)
			return
		}
		if x, ok := e.(*expr.Binary); ok && x.Op == "=" {
			i, val := f.pkPos(x.Left), x.Right
			if i < 0 {
				i, val = f.pkPos(x.Right), x.Left
			}
			if i < 0 || !key[i].IsNull() {
				return
			}
			if v, ok := constant(val); ok && sameKeyKind(tbl.Columns[f.pk[i]].Type, v) {
				key[i] = v
				found++
			}
			return
		}
		if in != nil {
			return
		}
		in = f.inKeys(e)
	}
	walk(pred)
	if found == len(f.pk) {
		return &KeySet{n: 1, vals: key}
	}
	return in
}

// keyFinder reads predicates over tbl for its primary-key columns pk.
type keyFinder struct {
	tbl *catalog.Table
	pk  []int
}

// pkPos is the position of column reference e in the primary key, or -1.
func (f keyFinder) pkPos(e expr.Expr) int {
	if col, ok := e.(*expr.Column); ok {
		return slices.Index(f.pk, col.Idx)
	}
	return -1
}

// constant is the value of an expression over literals and bound
// parameters alone — `5`, `$1`, `2 + 3` — evaluated now: a literal the
// lexer lifted is a parameter the optimizer cannot fold, and must pin the
// key all the same.
func constant(e expr.Expr) (sqltypes.Value, bool) {
	ok := true
	expr.Walk(e, func(x expr.Expr) {
		switch x.(type) {
		case *expr.Literal, *expr.Param, *expr.Binary, *expr.Unary, *expr.Cast, *expr.ScalarFunc:
		default:
			ok = false
		}
	})
	if !ok {
		return sqltypes.Null, false
	}
	v, err := e.Eval(nil)
	return v, err == nil
}

// inKeys is the key set one `IN` over the whole key pins, or nil.
func (f keyFinder) inKeys(e expr.Expr) *KeySet {
	switch x := e.(type) {
	case *expr.In:
		if x.Negate || len(f.pk) != 1 || f.pkPos(x.Operand) != 0 {
			return nil
		}
		vals := make([]sqltypes.Value, 0, len(x.List))
		for _, item := range x.List {
			v, ok := constant(item)
			if !ok {
				return nil
			}
			if v.IsNull() {
				continue // equals no key
			}
			if !sameKeyKind(f.tbl.Columns[f.pk[0]].Type, v) {
				return nil
			}
			vals = append(vals, v)
		}
		return &KeySet{n: len(vals), vals: vals}
	case *expr.InQuery:
		if x.Negate || len(x.Operands) != len(f.pk) {
			return nil
		}
		perm := make([]int, len(f.pk))
		seen := 0
		for at, o := range x.Operands {
			if i := f.pkPos(o); i >= 0 {
				perm[i] = at
				seen |= 1 << i
			}
		}
		if seen == 1<<len(f.pk)-1 {
			return &KeySet{query: x, perm: perm}
		}
	}
	return nil
}

// String is the key set as EXPLAIN shows it.
func (k *KeySet) String() string {
	if k.query != nil {
		return "keys=IN(subquery)"
	}
	return fmt.Sprintf("keys=%d", k.n)
}

// Resolve returns the keys in the layout catalog.Table.Open, DeleteTxn
// and UpdateTxn take (nil for a nil set: the scan), running the subquery if
// there is one (its rows stay cached for the predicate's own evaluation) —
// so call it before the table's lock is taken. A NULL in a subquery row
// equals no key, unless the IN is NULL-safe: then it is a key like any
// other, and the index finds the rows stored with a NULL there. A value of
// another kind than its key column returns nil, the scan, which compares
// it the way the predicate does.
func (k *KeySet) Resolve(tbl *catalog.Table) ([]sqltypes.Value, error) {
	if k == nil {
		return nil, nil
	}
	if k.query == nil {
		return k.vals, nil
	}
	rows, err := k.query.Rows()
	if err != nil {
		return nil, err
	}
	pk := tbl.PrimaryKeyColumns()
	keys := make([]sqltypes.Value, 0, len(rows)*len(pk))
next:
	for _, r := range rows {
		at := len(keys)
		for i, p := range pk {
			v := r[k.perm[i]]
			switch {
			case v.IsNull() && !k.query.NullSafe:
				keys = keys[:at]
				continue next
			case !v.IsNull() && !sameKeyKind(tbl.Columns[p].Type, v):
				return nil, nil
			}
			keys = append(keys, v)
		}
	}
	return keys, nil
}

// sameKeyKind reports whether value v compares with a column of type col
// the way their index-key encodings do: numbers with numbers (encoded by
// value, so 1 finds 1.0 and 0 finds -0.0), strings and booleans with their
// own type.
func sameKeyKind(col sqltypes.Type, v sqltypes.Value) bool {
	numeric := func(t sqltypes.Type) bool { return t == sqltypes.TypeInt || t == sqltypes.TypeFloat }
	switch {
	case numeric(col):
		return numeric(v.T)
	case col == sqltypes.TypeString, col == sqltypes.TypeBool:
		return v.T == col
	}
	return false
}
