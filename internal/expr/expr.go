// Package expr defines bound (resolved) scalar expressions and their
// evaluator, plus the aggregate-function machinery used by the hash
// aggregation operator and the IVM delta-combination logic.
//
// Bound expressions reference input columns by position; the binder in
// internal/plan resolves parser ASTs against an operator's input schema.
package expr

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"openivm/internal/sqltypes"
)

// Expr is a bound scalar expression evaluable against a row.
type Expr interface {
	// Eval computes the expression over the input row.
	Eval(row sqltypes.Row) (sqltypes.Value, error)
	// Type returns the static result type (TypeAny when unknown).
	Type() sqltypes.Type
	// String renders the expression for EXPLAIN output.
	String() string
}

// Column references an input column by position.
type Column struct {
	Idx  int
	Name string
	Typ  sqltypes.Type
}

// Eval implements Expr.
func (c *Column) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return sqltypes.Null, fmt.Errorf("expr: column index %d out of range (row width %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Type implements Expr.
func (c *Column) Type() sqltypes.Type { return c.Typ }

// String implements Expr.
func (c *Column) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// Literal is a constant.
type Literal struct{ Val sqltypes.Value }

// Eval implements Expr.
func (l *Literal) Eval(sqltypes.Row) (sqltypes.Value, error) { return l.Val, nil }

// Type implements Expr.
func (l *Literal) Type() sqltypes.Type { return l.Val.T }

// String implements Expr.
func (l *Literal) String() string { return l.Val.SQLLiteral() }

// Binary applies a binary operator. Op: + - * / % = <> < <= > >= AND OR LIKE ||
// IS DISTINCT FROM, IS NOT DISTINCT FROM.
type Binary struct {
	Op          string
	Left, Right Expr
}

// Eval implements Expr with SQL three-valued logic for comparisons and
// AND/OR, and NULL propagation for arithmetic.
func (b *Binary) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	switch b.Op {
	case "AND":
		l, err := b.Left.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if l.T == sqltypes.TypeBool && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
		r, err := b.Right.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if r.T == sqltypes.TypeBool && !r.Bool() {
			return sqltypes.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(l.Bool() && r.Bool()), nil
	case "OR":
		l, err := b.Left.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if l.T == sqltypes.TypeBool && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
		r, err := b.Right.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if r.T == sqltypes.TypeBool && r.Bool() {
			return sqltypes.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(l.Bool() || r.Bool()), nil
	}
	l, err := b.Left.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := b.Right.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	switch b.Op {
	case "+", "-", "*", "/", "%":
		return sqltypes.Arith(b.Op[0], l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(l.String() + r.String()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, ok := sqltypes.CompareSQL(l, r)
		if !ok {
			return sqltypes.Null, nil
		}
		var res bool
		switch b.Op {
		case "=":
			res = cmp == 0
		case "<>":
			res = cmp != 0
		case "<":
			res = cmp < 0
		case "<=":
			res = cmp <= 0
		case ">":
			res = cmp > 0
		case ">=":
			res = cmp >= 0
		}
		return sqltypes.NewBool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(likeMatch(l.String(), r.String())), nil
	case "IS NOT DISTINCT FROM", "IS DISTINCT FROM":
		// `=` that is never unknown: NULL equals NULL and no other value.
		return sqltypes.NewBool(sqltypes.Equal(l, r) == (b.Op == "IS NOT DISTINCT FROM")), nil
	}
	return sqltypes.Null, fmt.Errorf("expr: unknown operator %q", b.Op)
}

// Type implements Expr.
func (b *Binary) Type() sqltypes.Type {
	switch b.Op {
	case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE", "IS DISTINCT FROM", "IS NOT DISTINCT FROM":
		return sqltypes.TypeBool
	case "||":
		return sqltypes.TypeString
	}
	lt, rt := b.Left.Type(), b.Right.Type()
	if lt == sqltypes.TypeFloat || rt == sqltypes.TypeFloat {
		return sqltypes.TypeFloat
	}
	if lt == sqltypes.TypeInt && rt == sqltypes.TypeInt {
		return sqltypes.TypeInt
	}
	if lt == sqltypes.TypeString && rt == sqltypes.TypeString && b.Op == "+" {
		return sqltypes.TypeString
	}
	return sqltypes.TypeAny
}

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// Unary is NOT x or -x.
type Unary struct {
	Op      string // "NOT" or "-"
	Operand Expr
}

// Eval implements Expr.
func (u *Unary) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := u.Operand.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	switch u.Op {
	case "NOT":
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!v.IsTrue()), nil
	case "-":
		return sqltypes.Neg(v)
	}
	return sqltypes.Null, fmt.Errorf("expr: unknown unary %q", u.Op)
}

// Type implements Expr.
func (u *Unary) Type() sqltypes.Type {
	if u.Op == "NOT" {
		return sqltypes.TypeBool
	}
	return u.Operand.Type()
}

// String implements Expr.
func (u *Unary) String() string { return "(" + u.Op + " " + u.Operand.String() + ")" }

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	Operand Expr
	Negate  bool
}

// Eval implements Expr.
func (e *IsNull) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(v.IsNull() != e.Negate), nil
}

// Type implements Expr.
func (e *IsNull) Type() sqltypes.Type { return sqltypes.TypeBool }

// String implements Expr.
func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.Operand.String() + " IS NOT NULL)"
	}
	return "(" + e.Operand.String() + " IS NULL)"
}

// In is x [NOT] IN (list).
type In struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

// Eval implements Expr with SQL NULL semantics: NULL operand yields NULL;
// a non-matching list containing NULL yields NULL.
func (e *In) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := item.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if cmp, ok := sqltypes.CompareSQL(v, iv); ok && cmp == 0 {
			return sqltypes.NewBool(!e.Negate), nil
		}
	}
	if sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(e.Negate), nil
}

// Type implements Expr.
func (e *In) Type() sqltypes.Type { return sqltypes.TypeBool }

// String implements Expr.
func (e *In) String() string {
	var sb strings.Builder
	sb.WriteString("(" + e.Operand.String())
	if e.Negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, it := range e.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString("))")
	return sb.String()
}

// InQuery is x [NOT] IN (SELECT ...), or with several Operands the row
// value form (x1, x2) [NOT] IN (SELECT c1, c2 ...). Fetch returns the
// subquery's rows; providers evaluate lazily and cache. Membership is
// answered from a hash set built on first use, so evaluating the node
// once per row of a table costs O(rows + subquery) instead of their
// product. The set and its scratch make the node single-execution,
// single-goroutine state (Stateless refuses it).
type InQuery struct {
	Operands []Expr
	Fetch    func() ([]sqltypes.Row, error)
	Negate   bool

	set  *memberSet
	vals []sqltypes.Value // operand values of the row being evaluated
	key  []byte
}

// memberSet indexes a subquery result for IN. Two row values are the same
// member exactly when sqltypes.CompareSQL calls every pair of components
// equal (1 = 1.0, -0.0 = 0.0), which is when sqltypes.EncodeKey gives them
// the same bytes.
type memberSet struct {
	rows  []sqltypes.Row
	keys  map[string]struct{} // the NULL-free rows, by sqltypes.EncodeKey
	nulls []sqltypes.Row      // rows holding a NULL: they never match, but can make a miss unknown
}

// Rows returns the subquery's rows, each as wide as the operand.
func (e *InQuery) Rows() ([]sqltypes.Row, error) {
	rows, err := e.Fetch()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if len(r) != len(e.Operands) {
			return nil, fmt.Errorf("expr: IN subquery returns %d columns, want %d", len(r), len(e.Operands))
		}
	}
	return rows, nil
}

func (e *InQuery) members() (*memberSet, error) {
	if e.set != nil {
		return e.set, nil
	}
	rows, err := e.Rows()
	if err != nil {
		return nil, err
	}
	set := &memberSet{rows: rows, keys: make(map[string]struct{}, len(rows))}
	// The keys are cut from one string: a few allocations, not one per row.
	ends := make([]int, 0, len(rows))
	e.key = e.key[:0]
	for _, r := range rows {
		if hasNull(r) {
			set.nulls = append(set.nulls, r)
		} else {
			e.key = sqltypes.EncodeKey(e.key, r...)
			ends = append(ends, len(e.key))
		}
	}
	all, at := string(e.key), 0
	for _, end := range ends {
		set.keys[all[at:end]] = struct{}{}
		at = end
	}
	e.set = set
	return set, nil
}

func hasNull(vals []sqltypes.Value) bool {
	for _, v := range vals {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// maybeEqual reports whether row value a could equal b: no pair of
// components is known to differ (a NULL on either side leaves it open).
func maybeEqual(a, b []sqltypes.Value) bool {
	for i := range a {
		if cmp, ok := sqltypes.CompareSQL(a[i], b[i]); ok && cmp != 0 {
			return false
		}
	}
	return true
}

// Eval implements Expr with SQL's rule, component-wise for a row value:
// TRUE when some row of the subquery equals the operand, NULL when none
// does but one could (the differing verdict hangs on a NULL — in the
// operand, as for a NULL scalar, or in the row), FALSE otherwise — so
// against an empty result FALSE whatever the operand.
func (e *InQuery) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	set, err := e.members()
	if err != nil {
		return sqltypes.Null, err
	}
	e.vals = e.vals[:0]
	for _, o := range e.Operands {
		v, err := o.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		e.vals = append(e.vals, v)
	}
	open := set.nulls
	if !hasNull(e.vals) {
		e.key = sqltypes.EncodeKey(e.key[:0], e.vals...)
		if _, ok := set.keys[string(e.key)]; ok {
			return sqltypes.NewBool(!e.Negate), nil
		}
	} else {
		open = set.rows // a NULL in the operand: it equals no row, but any row may leave it open
	}
	for _, r := range open {
		if maybeEqual(e.vals, r) {
			return sqltypes.Null, nil
		}
	}
	return sqltypes.NewBool(e.Negate), nil
}

// Type implements Expr.
func (e *InQuery) Type() sqltypes.Type { return sqltypes.TypeBool }

// String implements Expr.
func (e *InQuery) String() string {
	neg := ""
	if e.Negate {
		neg = " NOT"
	}
	lhs := e.Operands[0].String()
	if len(e.Operands) > 1 {
		parts := make([]string, len(e.Operands))
		for i, o := range e.Operands {
			parts[i] = o.String()
		}
		lhs = "(" + strings.Join(parts, ", ") + ")"
	}
	return "(" + lhs + neg + " IN (<subquery>))"
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

// Eval implements Expr.
func (e *Between) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	lo, err := e.Lo.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	hi, err := e.Hi.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	c1, ok1 := sqltypes.CompareSQL(v, lo)
	c2, ok2 := sqltypes.CompareSQL(v, hi)
	if !ok1 || !ok2 {
		return sqltypes.Null, nil
	}
	res := c1 >= 0 && c2 <= 0
	return sqltypes.NewBool(res != e.Negate), nil
}

// Type implements Expr.
func (e *Between) Type() sqltypes.Type { return sqltypes.TypeBool }

// String implements Expr.
func (e *Between) String() string {
	neg := ""
	if e.Negate {
		neg = " NOT"
	}
	return "(" + e.Operand.String() + neg + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// Case is CASE [operand] WHEN .. THEN .. ELSE .. END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil -> NULL
}

// CaseWhen is one arm.
type CaseWhen struct{ When, Then Expr }

// Eval implements Expr.
func (e *Case) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	var base sqltypes.Value
	hasBase := e.Operand != nil
	if hasBase {
		var err error
		base, err = e.Operand.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
	}
	for _, w := range e.Whens {
		wv, err := w.When.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		match := false
		if hasBase {
			if cmp, ok := sqltypes.CompareSQL(base, wv); ok && cmp == 0 {
				match = true
			}
		} else {
			match = wv.IsTrue()
		}
		if match {
			return w.Then.Eval(row)
		}
	}
	if e.Else != nil {
		return e.Else.Eval(row)
	}
	return sqltypes.Null, nil
}

// Type implements Expr.
func (e *Case) Type() sqltypes.Type {
	if len(e.Whens) > 0 {
		return e.Whens[0].Then.Type()
	}
	return sqltypes.TypeAny
}

// String implements Expr.
func (e *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.When.String() + " THEN " + w.Then.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// Cast converts to a target type.
type Cast struct {
	Operand Expr
	Target  sqltypes.Type
}

// Eval implements Expr.
func (e *Cast) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.Cast(v, e.Target)
}

// Type implements Expr.
func (e *Cast) Type() sqltypes.Type { return e.Target }

// String implements Expr.
func (e *Cast) String() string {
	return "CAST(" + e.Operand.String() + " AS " + e.Target.String() + ")"
}

// ScalarFunc is a non-aggregate function call (COALESCE, ABS, ...).
type ScalarFunc struct {
	Name string
	Args []Expr
	Fn   func(args []sqltypes.Value) (sqltypes.Value, error) // nil for COALESCE
	Typ  sqltypes.Type

	// scratch holds the reusable argument buffer behind an atomic swap:
	// each Eval takes exclusive ownership of the buffer via Swap(nil) and
	// returns it when done, so an evaluation that finds it taken (one
	// nested in an argument, or another goroutine's) allocates a private
	// buffer — correctness never depends on winning, only the
	// steady-state alloc count does.
	scratch atomic.Pointer[[]sqltypes.Value]
}

// Eval implements Expr. A registered Fn must not retain its args slice
// past the call — the buffer is recycled across evaluations. COALESCE has
// no Fn: it evaluates its arguments in order and stops at the first
// non-NULL one, as PostgreSQL documents, so COALESCE(1, CAST('abc' AS
// INTEGER)) is 1 and not a cast error.
func (e *ScalarFunc) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	if e.Name == "COALESCE" {
		for _, a := range e.Args {
			v, err := a.Eval(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.Null, nil
	}
	p := e.scratch.Swap(nil)
	if p == nil {
		p = new([]sqltypes.Value)
		*p = make([]sqltypes.Value, 0, len(e.Args))
	}
	args := (*p)[:0]
	for _, a := range e.Args {
		v, err := a.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		args = append(args, v)
	}
	*p = args
	v, err := e.Fn(args)
	e.scratch.Store(p)
	return v, err
}

// Type implements Expr.
func (e *ScalarFunc) Type() sqltypes.Type { return e.Typ }

// String implements Expr.
func (e *ScalarFunc) String() string {
	var sb strings.Builder
	sb.WriteString(e.Name + "(")
	for i, a := range e.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// ParamBinding holds the values of a statement's parameters for one
// execution: Vals for its $N — the user's, or the literals the lexer lifted
// out of its text — and Rows for its lifted VALUES lists. The driver sets
// them before executing a plan whose Param nodes point here, and leaves
// them alone until the execution ends; the engine's plan cache lends a
// plan, binding included, to one execution at a time.
type ParamBinding struct {
	Vals []sqltypes.Value
	Rows [][]sqltypes.Row
}

// Param is a positional statement parameter ($1, $2, ...) bound per
// execution through a ParamBinding. Typ is the kind of the literal a lifted
// parameter stands for; the user's have none (TypeNull).
type Param struct {
	Index   int // 1-based
	Typ     sqltypes.Type
	Binding *ParamBinding
}

// Eval implements Expr.
func (e *Param) Eval(sqltypes.Row) (sqltypes.Value, error) {
	if e.Binding == nil || e.Index < 1 || e.Index > len(e.Binding.Vals) {
		return sqltypes.Null, fmt.Errorf("expr: parameter $%d not bound (%d values supplied)", e.Index, e.boundCount())
	}
	return e.Binding.Vals[e.Index-1], nil
}

func (e *Param) boundCount() int {
	if e.Binding == nil {
		return 0
	}
	return len(e.Binding.Vals)
}

// Type implements Expr: a lifted literal's kind, else unknown until
// execution.
func (e *Param) Type() sqltypes.Type {
	if e.Typ == sqltypes.TypeNull {
		return sqltypes.TypeAny
	}
	return e.Typ
}

// String implements Expr.
func (e *Param) String() string { return "$" + strconv.Itoa(e.Index) }

// ScalarFuncs is the registry of built-in scalar functions. Each entry
// returns the implementation and static result type for an arg count.
var ScalarFuncs = map[string]func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error){
	"COALESCE": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) == 0 {
			return nil, sqltypes.TypeAny, fmt.Errorf("COALESCE requires at least one argument")
		}
		t := sqltypes.TypeAny
		for _, at := range argTypes {
			if at != sqltypes.TypeNull && at != sqltypes.TypeAny {
				t = at
				break
			}
		}
		return nil, t, nil // ScalarFunc.Eval stops at the first non-NULL argument
	},
	"ABS": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) != 1 {
			return nil, sqltypes.TypeAny, fmt.Errorf("ABS requires one argument")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			v := args[0]
			switch v.T {
			case sqltypes.TypeNull:
				return sqltypes.Null, nil
			case sqltypes.TypeInt:
				if v.I < 0 {
					return sqltypes.NewInt(-v.I), nil
				}
				return v, nil
			case sqltypes.TypeFloat:
				if v.Float() < 0 {
					return sqltypes.NewFloat(-v.Float()), nil
				}
				return v, nil
			}
			return sqltypes.Null, fmt.Errorf("ABS: non-numeric argument %s", v.T)
		}, argTypes[0], nil
	},
	"NULLIF": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) != 2 {
			return nil, sqltypes.TypeAny, fmt.Errorf("NULLIF requires two arguments")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			if c, ok := sqltypes.CompareSQL(args[0], args[1]); ok && c == 0 {
				return sqltypes.Null, nil
			}
			return args[0], nil
		}, argTypes[0], nil
	},
	"LENGTH": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) != 1 {
			return nil, sqltypes.TypeAny, fmt.Errorf("LENGTH requires one argument")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			if args[0].IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewInt(int64(len(args[0].String()))), nil
		}, sqltypes.TypeInt, nil
	},
	"LOWER": stringFunc(strings.ToLower),
	"UPPER": stringFunc(strings.ToUpper),
	"GREATEST": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) == 0 {
			return nil, sqltypes.TypeAny, fmt.Errorf("GREATEST requires arguments")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			best := sqltypes.Null
			for _, a := range args {
				if a.IsNull() {
					return sqltypes.Null, nil
				}
				if best.IsNull() || sqltypes.Compare(a, best) > 0 {
					best = a
				}
			}
			return best, nil
		}, argTypes[0], nil
	},
	"LEAST": func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) == 0 {
			return nil, sqltypes.TypeAny, fmt.Errorf("LEAST requires arguments")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			best := sqltypes.Null
			for _, a := range args {
				if a.IsNull() {
					return sqltypes.Null, nil
				}
				if best.IsNull() || sqltypes.Compare(a, best) < 0 {
					best = a
				}
			}
			return best, nil
		}, argTypes[0], nil
	},
}

func stringFunc(fn func(string) string) func([]sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
	return func(argTypes []sqltypes.Type) (func([]sqltypes.Value) (sqltypes.Value, error), sqltypes.Type, error) {
		if len(argTypes) != 1 {
			return nil, sqltypes.TypeAny, fmt.Errorf("function requires one argument")
		}
		return func(args []sqltypes.Value) (sqltypes.Value, error) {
			if args[0].IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewString(fn(args[0].String())), nil
		}, sqltypes.TypeString, nil
	}
}
