package expr

import (
	"math"

	"openivm/internal/sqltypes"
)

// Kernel is a bound scalar expression compiled down to a vector program:
// one EvalVec call computes the expression over a whole batch of rows in
// tight unboxed loops, instead of per-row interface dispatch through Eval.
//
// Kernels are produced by CompileKernel and consumed by the fused scan
// pipeline in internal/exec. A kernel owns its output vector and reuses it
// across calls (a Column kernel returns the input vector itself), so the
// result is only valid until the next EvalVec call and must not be
// retained. Kernels never fail: every SQL evaluation error the supported
// operators can hit (division by zero) is defined to yield NULL, matching
// the boxed evaluator.
type Kernel interface {
	// EvalVec computes the expression over n rows whose input columns are
	// cols, indexed by the slots the kernel was compiled with.
	EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector
}

// CompileKernel compiles a bound expression into a vector kernel. resolve
// maps an expression column index to the input-vector slot and column type
// the kernel will see at run time (ok=false for unresolvable columns).
//
// Compilation is best-effort: expressions outside the supported set —
// integer/float arithmetic, comparisons, AND/OR/NOT three-valued logic,
// IS [NOT] NULL, numeric negation and LIKE — return ok=false, and the
// caller falls back to the boxed row-at-a-time evaluator. The compiled
// kernel agrees exactly with Expr.Eval on every input, NULLs included;
// that equivalence is what lets the executor pick either path per plan.
func CompileKernel(e Expr, resolve func(colIdx int) (slot int, t sqltypes.Type, ok bool)) (Kernel, bool) {
	k, _, ok := compileKernel(e, resolve)
	return k, ok
}

// CompilePredicate is CompileKernel restricted to expressions whose vector
// result type is BOOLEAN — the WHERE-clause form consumers turn into
// selection vectors. A non-boolean expression (SQL tolerates `WHERE 1`;
// the boxed evaluator treats it as never-true) refuses to compile so the
// caller falls back rather than misreading a numeric vector as booleans.
func CompilePredicate(e Expr, resolve func(colIdx int) (slot int, t sqltypes.Type, ok bool)) (Kernel, bool) {
	k, t, ok := compileKernel(e, resolve)
	if !ok || t != sqltypes.TypeBool {
		return nil, false
	}
	return k, true
}

func compileKernel(e Expr, resolve func(int) (int, sqltypes.Type, bool)) (Kernel, sqltypes.Type, bool) {
	switch x := e.(type) {
	case *Column:
		slot, t, ok := resolve(x.Idx)
		if !ok || !vectorizableType(t) {
			return nil, 0, false
		}
		return &colKernel{slot: slot}, t, true
	case *Literal:
		if !vectorizableType(x.Val.T) {
			return nil, 0, false
		}
		return &litKernel{val: x.Val, out: &sqltypes.Vector{T: x.Val.T}}, x.Val.T, true
	case *Param:
		// Kernels are compiled per execution, with the binding in place: the
		// parameter is the literal it stands for this time.
		v, err := x.Eval(nil)
		if err != nil {
			return nil, 0, false
		}
		return compileKernel(&Literal{Val: v}, resolve)
	case *Binary:
		return compileBinary(x, resolve)
	case *Unary:
		in, t, ok := compileKernel(x.Operand, resolve)
		if !ok {
			return nil, 0, false
		}
		switch x.Op {
		case "NOT":
			if t != sqltypes.TypeBool {
				return nil, 0, false
			}
			return &notKernel{in: in, out: &sqltypes.Vector{T: sqltypes.TypeBool}}, sqltypes.TypeBool, true
		case "-":
			if t != sqltypes.TypeInt && t != sqltypes.TypeFloat {
				return nil, 0, false
			}
			return &negKernel{in: in, out: &sqltypes.Vector{T: t}}, t, true
		}
		return nil, 0, false
	case *IsNull:
		in, _, ok := compileKernel(x.Operand, resolve)
		if !ok {
			return nil, 0, false
		}
		return &isNullKernel{in: in, negate: x.Negate, out: &sqltypes.Vector{T: sqltypes.TypeBool}}, sqltypes.TypeBool, true
	case *Cast:
		return compileCast(x, resolve)
	case *ScalarFunc:
		if x.Name == "COALESCE" {
			return compileCoalesce(x, resolve)
		}
		return nil, 0, false
	case *Case:
		return compileCase(x, resolve)
	}
	return nil, 0, false
}

// compileCast handles the numeric CAST pair (int↔float) — the conversions
// the IVM AVG decomposition emits (CAST(sum AS DOUBLE) / cnt). Casts
// between identical types pass the operand through; anything outside the
// numeric pair (string parses, bool coercions) keeps the boxed evaluator.
func compileCast(c *Cast, resolve func(int) (int, sqltypes.Type, bool)) (Kernel, sqltypes.Type, bool) {
	in, t, ok := compileKernel(c.Operand, resolve)
	if !ok {
		return nil, 0, false
	}
	switch {
	case t == c.Target:
		return in, t, true
	case t == sqltypes.TypeInt && c.Target == sqltypes.TypeFloat:
		return &intToFloatKernel{in: in, out: &sqltypes.Vector{T: sqltypes.TypeFloat}}, sqltypes.TypeFloat, true
	case t == sqltypes.TypeFloat && c.Target == sqltypes.TypeInt:
		return &floatToIntKernel{in: in, out: &sqltypes.Vector{T: sqltypes.TypeInt}}, sqltypes.TypeInt, true
	}
	return nil, 0, false
}

// compileCoalesce handles COALESCE over same-typed arguments. Mixed types
// refuse: the boxed evaluator returns the first non-NULL value unconverted,
// so a promoting kernel would change result types row by row.
func compileCoalesce(f *ScalarFunc, resolve func(int) (int, sqltypes.Type, bool)) (Kernel, sqltypes.Type, bool) {
	if len(f.Args) == 0 {
		return nil, 0, false
	}
	args := make([]Kernel, len(f.Args))
	var t sqltypes.Type
	for i, a := range f.Args {
		k, at, ok := compileKernel(a, resolve)
		if !ok || (i > 0 && at != t) {
			return nil, 0, false
		}
		args[i], t = k, at
	}
	if len(args) == 1 {
		return args[0], t, true
	}
	return &coalesceKernel{args: args, out: &sqltypes.Vector{T: t}}, t, true
}

// compileCase handles CASE whose conditions are boolean and whose
// branches share one type — the shape the IVM multiplicity projections
// use (CASE WHEN mult = FALSE THEN -v ELSE v END). Simple CASE (with an
// operand) compiles each arm's condition as an equality against a shared,
// memoized operand kernel — semantically CASE x WHEN v ... becomes
// CASE WHEN x = v ..., which matches the boxed evaluator exactly (the arm
// matches iff CompareSQL(x, v) == 0, so a NULL operand or arm value
// matches nothing, and int/float compare under numeric promotion), while
// the operand itself is evaluated once per batch, not once per arm. A
// missing ELSE contributes NULL. Every branch is evaluated eagerly over
// the whole vector; that is invisible because kernels never fail (errors
// are defined to yield NULL), and per row the value is taken only from
// the first matching branch.
func compileCase(c *Case, resolve func(int) (int, sqltypes.Type, bool)) (Kernel, sqltypes.Type, bool) {
	if len(c.Whens) == 0 {
		return nil, 0, false
	}
	// Simple CASE: compile the operand ONCE behind a memo so each arm's
	// equality reads the same per-batch result vector instead of
	// re-evaluating the operand once per arm; the memo is reset by the
	// enclosing caseKernel at the start of every batch.
	var memo *memoKernel
	if c.Operand != nil {
		opK, opT, ok := compileKernel(c.Operand, resolve)
		if !ok {
			return nil, 0, false
		}
		memo = &memoKernel{in: opK, t: opT}
	}
	whens := make([]Kernel, len(c.Whens))
	thens := make([]Kernel, len(c.Whens))
	var t sqltypes.Type
	for i, w := range c.Whens {
		if memo != nil {
			wk, wt, ok := compileKernel(w.When, resolve)
			if !ok {
				return nil, 0, false
			}
			eq, ok := buildCmpKernel("=", memo, memo.t, wk, wt)
			if !ok {
				return nil, 0, false
			}
			whens[i] = eq
		} else {
			k, wt, ok := compileKernel(w.When, resolve)
			if !ok || wt != sqltypes.TypeBool {
				return nil, 0, false
			}
			whens[i] = k
		}
		k, tt, ok := compileKernel(w.Then, resolve)
		if !ok || (i > 0 && tt != t) {
			return nil, 0, false
		}
		thens[i], t = k, tt
	}
	var els Kernel
	if c.Else != nil {
		k, et, ok := compileKernel(c.Else, resolve)
		if !ok || et != t {
			return nil, 0, false
		}
		els = k
	}
	return &caseKernel{whens: whens, thens: thens, els: els, memo: memo, out: &sqltypes.Vector{T: t}}, t, true
}

// memoKernel caches its input's output for the duration of one enclosing
// caseKernel batch evaluation: the simple-CASE operand is shared by every
// arm's equality kernel, so it is computed once per batch, not once per
// arm. The owner resets it between batches.
type memoKernel struct {
	in Kernel
	t  sqltypes.Type
	v  *sqltypes.Vector
}

func (m *memoKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	if m.v == nil {
		m.v = m.in.EvalVec(cols, n)
	}
	return m.v
}

func (m *memoKernel) reset() { m.v = nil }

func vectorizableType(t sqltypes.Type) bool {
	switch t {
	case sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeBool, sqltypes.TypeString:
		return true
	}
	return false
}

func compileBinary(b *Binary, resolve func(int) (int, sqltypes.Type, bool)) (Kernel, sqltypes.Type, bool) {
	l, lt, ok := compileKernel(b.Left, resolve)
	if !ok {
		return nil, 0, false
	}
	r, rt, ok := compileKernel(b.Right, resolve)
	if !ok {
		return nil, 0, false
	}
	switch b.Op {
	case "AND", "OR":
		if lt != sqltypes.TypeBool || rt != sqltypes.TypeBool {
			return nil, 0, false
		}
		return &logicKernel{or: b.Op == "OR", l: l, r: r, out: &sqltypes.Vector{T: sqltypes.TypeBool}}, sqltypes.TypeBool, true
	case "+", "-", "*", "/", "%":
		if !numericType(lt) || !numericType(rt) {
			return nil, 0, false
		}
		if lt == sqltypes.TypeInt && rt == sqltypes.TypeInt {
			return &intArithKernel{op: b.Op[0], l: l, r: r, out: &sqltypes.Vector{T: sqltypes.TypeInt}}, sqltypes.TypeInt, true
		}
		return &floatArithKernel{op: b.Op[0], l: toFloat(l, lt), r: toFloat(r, rt), out: &sqltypes.Vector{T: sqltypes.TypeFloat}}, sqltypes.TypeFloat, true
	case "=", "<>", "<", "<=", ">", ">=":
		k, ok := buildCmpKernel(b.Op, l, lt, r, rt)
		if !ok {
			return nil, 0, false
		}
		return k, sqltypes.TypeBool, true
	case "LIKE":
		if lt != sqltypes.TypeString || rt != sqltypes.TypeString {
			return nil, 0, false
		}
		return &likeKernel{l: l, r: r, out: &sqltypes.Vector{T: sqltypes.TypeBool}}, sqltypes.TypeBool, true
	}
	return nil, 0, false
}

// buildCmpKernel assembles a typed comparison kernel over two compiled
// inputs — shared by compileBinary and the simple-CASE operand rewrite,
// which compares a memoized operand kernel against each arm. An INTEGER
// meets a DOUBLE unpromoted, as in sqltypes.Compare: converting it would
// round it above 2^53.
func buildCmpKernel(op string, l Kernel, lt sqltypes.Type, r Kernel, rt sqltypes.Type) (Kernel, bool) {
	out := &sqltypes.Vector{T: sqltypes.TypeBool}
	switch {
	case lt == sqltypes.TypeInt && rt == sqltypes.TypeInt:
		return &cmpIntKernel{op: op, l: l, r: r, out: out}, true
	case lt == sqltypes.TypeFloat && rt == sqltypes.TypeFloat:
		return &cmpFloatKernel{op: op, l: l, r: r, out: out}, true
	case lt == sqltypes.TypeInt && rt == sqltypes.TypeFloat:
		return &cmpIntFloatKernel{op: op, i: l, f: r, sign: 1, out: out}, true
	case lt == sqltypes.TypeFloat && rt == sqltypes.TypeInt:
		return &cmpIntFloatKernel{op: op, i: r, f: l, sign: -1, out: out}, true
	case lt == sqltypes.TypeString && rt == sqltypes.TypeString:
		return &cmpStringKernel{op: op, l: l, r: r, out: out}, true
	case lt == sqltypes.TypeBool && rt == sqltypes.TypeBool:
		return &cmpBoolKernel{op: op, l: l, r: r, out: out}, true
	}
	return nil, false
}

func numericType(t sqltypes.Type) bool {
	return t == sqltypes.TypeInt || t == sqltypes.TypeFloat
}

func toFloat(k Kernel, t sqltypes.Type) Kernel {
	if t == sqltypes.TypeFloat {
		return k
	}
	return &intToFloatKernel{in: k, out: &sqltypes.Vector{T: sqltypes.TypeFloat}}
}

// --- leaf kernels ---

type colKernel struct{ slot int }

func (k *colKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector { return cols[k.slot] }

type litKernel struct {
	val sqltypes.Value
	out *sqltypes.Vector
}

func (k *litKernel) EvalVec(_ []*sqltypes.Vector, n int) *sqltypes.Vector {
	if k.out.Len() != n {
		k.out.Reset()
		for i := 0; i < n; i++ {
			k.out.AppendValue(k.val)
		}
	}
	return k.out
}

// --- conversion ---

type intToFloatKernel struct {
	in  Kernel
	out *sqltypes.Vector
}

func (k *intToFloatKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	in := k.in.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	for i, x := range in.Ints[:n] {
		out.Floats[i] = float64(x)
	}
	copyNulls(out, in, n)
	return out
}

type floatToIntKernel struct {
	in  Kernel
	out *sqltypes.Vector
}

func (k *floatToIntKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	in := k.in.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	// Truncation toward zero, matching sqltypes.Cast's int64(f).
	for i, x := range in.Floats[:n] {
		out.Ints[i] = int64(x)
	}
	copyNulls(out, in, n)
	return out
}

// copyNulls clears out's validity bit wherever in's is cleared (out must
// have been Resized to all-valid).
func copyNulls(out, in *sqltypes.Vector, n int) {
	if in.AllValid() {
		return
	}
	for i := 0; i < n; i++ {
		if !in.Valid(i) {
			out.SetNull(i)
		}
	}
}

// --- arithmetic ---

type intArithKernel struct {
	op   byte
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *intArithKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Ints[:n], r.Ints[:n], out.Ints[:n]
	switch k.op {
	case '+':
		for i := range os {
			os[i] = ls[i] + rs[i]
		}
	case '-':
		for i := range os {
			os[i] = ls[i] - rs[i]
		}
	case '*':
		for i := range os {
			os[i] = ls[i] * rs[i]
		}
	case '/':
		for i := range os {
			if rs[i] == 0 {
				out.SetNull(i) // SQL: division by zero yields NULL
			} else {
				os[i] = ls[i] / rs[i]
			}
		}
	case '%':
		for i := range os {
			if rs[i] == 0 {
				out.SetNull(i)
			} else {
				os[i] = ls[i] % rs[i]
			}
		}
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

type floatArithKernel struct {
	op   byte
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *floatArithKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Floats[:n], r.Floats[:n], out.Floats[:n]
	switch k.op {
	case '+':
		for i := range os {
			os[i] = ls[i] + rs[i]
		}
	case '-':
		for i := range os {
			os[i] = ls[i] - rs[i]
		}
	case '*':
		for i := range os {
			os[i] = ls[i] * rs[i]
		}
	case '/':
		for i := range os {
			if rs[i] == 0 {
				out.SetNull(i)
			} else {
				os[i] = ls[i] / rs[i]
			}
		}
	case '%':
		for i := range os {
			if rs[i] == 0 {
				out.SetNull(i)
			} else {
				os[i] = math.Mod(ls[i], rs[i])
			}
		}
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

// --- negation ---

type negKernel struct {
	in  Kernel
	out *sqltypes.Vector
}

func (k *negKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	in := k.in.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	if out.T == sqltypes.TypeInt {
		for i, x := range in.Ints[:n] {
			out.Ints[i] = -x
		}
	} else {
		for i, x := range in.Floats[:n] {
			out.Floats[i] = -x
		}
	}
	copyNulls(out, in, n)
	return out
}

// --- comparisons ---

// cmpHolds reports whether comparison outcome c (<0, 0, >0) satisfies op.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

type cmpIntKernel struct {
	op   string
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *cmpIntKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Ints[:n], r.Ints[:n], out.Bools[:n]
	// One branch-light loop per operator: the comparison itself compiles
	// to straight-line code over the int64 payload arrays.
	switch k.op {
	case "=":
		for i := range os {
			os[i] = ls[i] == rs[i]
		}
	case "<>":
		for i := range os {
			os[i] = ls[i] != rs[i]
		}
	case "<":
		for i := range os {
			os[i] = ls[i] < rs[i]
		}
	case "<=":
		for i := range os {
			os[i] = ls[i] <= rs[i]
		}
	case ">":
		for i := range os {
			os[i] = ls[i] > rs[i]
		}
	case ">=":
		for i := range os {
			os[i] = ls[i] >= rs[i]
		}
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

type cmpFloatKernel struct {
	op   string
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *cmpFloatKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Floats[:n], r.Floats[:n], out.Bools[:n]
	// sqltypes.CompareFloat, not the machine comparison: NaN equals NaN
	// and sorts above every other number, as in the row path.
	switch k.op {
	case "=":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) == 0
		}
	case "<>":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) != 0
		}
	case "<":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) < 0
		}
	case "<=":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) <= 0
		}
	case ">":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) > 0
		}
	case ">=":
		for i := range os {
			os[i] = sqltypes.CompareFloat(ls[i], rs[i]) >= 0
		}
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

// cmpIntFloatKernel compares an INTEGER input with a DOUBLE one exactly;
// sign is -1 when the DOUBLE is the left operand.
type cmpIntFloatKernel struct {
	op   string
	i, f Kernel
	sign int
	out  *sqltypes.Vector
}

func (k *cmpIntFloatKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.i.EvalVec(cols, n), k.f.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	is, fs, os := l.Ints[:n], r.Floats[:n], out.Bools[:n]
	for j := range os {
		os[j] = cmpHolds(k.op, k.sign*sqltypes.CompareIntFloat(is[j], fs[j]))
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

type cmpStringKernel struct {
	op   string
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *cmpStringKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Strs[:n], r.Strs[:n], out.Bools[:n]
	switch k.op {
	case "=":
		for i := range os {
			os[i] = ls[i] == rs[i]
		}
	case "<>":
		for i := range os {
			os[i] = ls[i] != rs[i]
		}
	case "<":
		for i := range os {
			os[i] = ls[i] < rs[i]
		}
	case "<=":
		for i := range os {
			os[i] = ls[i] <= rs[i]
		}
	case ">":
		for i := range os {
			os[i] = ls[i] > rs[i]
		}
	case ">=":
		for i := range os {
			os[i] = ls[i] >= rs[i]
		}
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

type cmpBoolKernel struct {
	op   string
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *cmpBoolKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Bools[:n], r.Bools[:n], out.Bools[:n]
	for i := range os {
		c := 0
		switch {
		case ls[i] == rs[i]:
		case rs[i]: // false < true
			c = -1
		default:
			c = 1
		}
		os[i] = cmpHolds(k.op, c)
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

// --- LIKE ---

type likeKernel struct {
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *likeKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Strs[:n], r.Strs[:n], out.Bools[:n]
	for i := range os {
		os[i] = likeMatch(ls[i], rs[i])
	}
	copyNulls(out, l, n)
	copyNulls(out, r, n)
	return out
}

// --- three-valued logic ---

type logicKernel struct {
	or   bool
	l, r Kernel
	out  *sqltypes.Vector
}

func (k *logicKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	l, r := k.l.EvalVec(cols, n), k.r.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	ls, rs, os := l.Bools[:n], r.Bools[:n], out.Bools[:n]
	if l.AllValid() && r.AllValid() {
		if k.or {
			for i := range os {
				os[i] = ls[i] || rs[i]
			}
		} else {
			for i := range os {
				os[i] = ls[i] && rs[i]
			}
		}
		return out
	}
	// SQL three-valued logic: AND is FALSE if either side is FALSE (even
	// when the other is NULL), NULL if undecided; OR mirrors with TRUE.
	for i := range os {
		lv, rv := l.Valid(i), r.Valid(i)
		if k.or {
			switch {
			case lv && ls[i], rv && rs[i]:
				os[i] = true
			case lv && rv:
				os[i] = false
			default:
				out.SetNull(i)
			}
		} else {
			switch {
			case lv && !ls[i], rv && !rs[i]:
				os[i] = false
			case lv && rv:
				os[i] = ls[i] && rs[i]
			default:
				out.SetNull(i)
			}
		}
	}
	return out
}

type notKernel struct {
	in  Kernel
	out *sqltypes.Vector
}

func (k *notKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	in := k.in.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	is, os := in.Bools[:n], out.Bools[:n]
	for i := range os {
		os[i] = !is[i]
	}
	copyNulls(out, in, n)
	return out
}

// --- COALESCE / CASE ---

// setCell copies src's cell i into out's cell i (same element type); a NULL
// src cell clears out's validity bit. out must have been Resized.
func setCell(out, src *sqltypes.Vector, i int) {
	if !src.Valid(i) {
		out.SetNull(i)
		return
	}
	switch out.T {
	case sqltypes.TypeInt:
		out.Ints[i] = src.Ints[i]
	case sqltypes.TypeFloat:
		out.Floats[i] = src.Floats[i]
	case sqltypes.TypeBool:
		out.Bools[i] = src.Bools[i]
	case sqltypes.TypeString:
		out.Strs[i] = src.Strs[i]
	}
}

type coalesceKernel struct {
	args []Kernel
	out  *sqltypes.Vector
	vecs []*sqltypes.Vector // per-call scratch
}

func (k *coalesceKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	vecs := k.vecs[:0]
	for _, a := range k.args {
		vecs = append(vecs, a.EvalVec(cols, n))
	}
	k.vecs = vecs
	out := k.out
	out.Resize(n)
rows:
	for i := 0; i < n; i++ {
		for _, v := range vecs {
			if v.Valid(i) {
				setCell(out, v, i)
				continue rows
			}
		}
		out.SetNull(i)
	}
	return out
}

type caseKernel struct {
	whens []Kernel
	thens []Kernel
	els   Kernel      // nil = NULL
	memo  *memoKernel // simple-CASE operand shared by the arms (nil = searched)
	out   *sqltypes.Vector

	whenVecs, thenVecs []*sqltypes.Vector // per-call scratch
}

func (k *caseKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	if k.memo != nil {
		k.memo.reset() // new batch: the arms share one fresh operand eval
	}
	wv, tv := k.whenVecs[:0], k.thenVecs[:0]
	for i := range k.whens {
		wv = append(wv, k.whens[i].EvalVec(cols, n))
		tv = append(tv, k.thens[i].EvalVec(cols, n))
	}
	k.whenVecs, k.thenVecs = wv, tv
	var ev *sqltypes.Vector
	if k.els != nil {
		ev = k.els.EvalVec(cols, n)
	}
	out := k.out
	out.Resize(n)
rows:
	for i := 0; i < n; i++ {
		for a, w := range wv {
			// SQL CASE: a NULL condition is simply not matched.
			if w.Valid(i) && w.Bools[i] {
				setCell(out, tv[a], i)
				continue rows
			}
		}
		if ev != nil {
			setCell(out, ev, i)
		} else {
			out.SetNull(i)
		}
	}
	return out
}

type isNullKernel struct {
	in     Kernel
	negate bool
	out    *sqltypes.Vector
}

func (k *isNullKernel) EvalVec(cols []*sqltypes.Vector, n int) *sqltypes.Vector {
	in := k.in.EvalVec(cols, n)
	out := k.out
	out.Resize(n)
	os := out.Bools[:n]
	if in.AllValid() {
		for i := range os {
			os[i] = k.negate
		}
		return out
	}
	for i := range os {
		os[i] = in.Valid(i) == k.negate
	}
	return out
}
