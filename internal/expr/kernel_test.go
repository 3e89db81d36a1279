package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"openivm/internal/sqltypes"
)

// kernelFixture builds three typed input vectors (int, float, string) with
// interleaved NULLs plus the equivalent boxed rows, so kernels and the
// row evaluator can be compared cell for cell.
func kernelFixture(n int, seed int64) ([]*sqltypes.Vector, []sqltypes.Row) {
	rng := rand.New(rand.NewSource(seed))
	iv := sqltypes.NewVector(sqltypes.TypeInt, n)
	fv := sqltypes.NewVector(sqltypes.TypeFloat, n)
	sv := sqltypes.NewVector(sqltypes.TypeString, n)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		row := make(sqltypes.Row, 3)
		if rng.Intn(4) == 0 {
			iv.AppendNull()
		} else {
			x := int64(rng.Intn(11) - 5)
			iv.AppendInt(x)
			row[0] = sqltypes.NewInt(x)
		}
		if rng.Intn(4) == 0 {
			fv.AppendNull()
		} else {
			x := float64(rng.Intn(40)) / 8
			fv.AppendFloat(x)
			row[1] = sqltypes.NewFloat(x)
		}
		if rng.Intn(4) == 0 {
			sv.AppendNull()
		} else {
			x := fmt.Sprintf("v%d", rng.Intn(5))
			sv.AppendString(x)
			row[2] = sqltypes.NewString(x)
		}
		rows[i] = row
	}
	return []*sqltypes.Vector{iv, fv, sv}, rows
}

func fixtureResolve(c int) (int, sqltypes.Type, bool) {
	switch c {
	case 0:
		return 0, sqltypes.TypeInt, true
	case 1:
		return 1, sqltypes.TypeFloat, true
	case 2:
		return 2, sqltypes.TypeString, true
	}
	return 0, 0, false
}

func kcol(i int, t sqltypes.Type) *Column { return &Column{Idx: i, Typ: t} }

func klit(v sqltypes.Value) *Literal { return &Literal{Val: v} }

// coalesceFn / absFn are the boxed implementations from the ScalarFuncs
// registry, so test expressions Eval like bound ones.
func coalesceFn(args []sqltypes.Value) (sqltypes.Value, error) {
	for _, a := range args {
		if !a.IsNull() {
			return a, nil
		}
	}
	return sqltypes.Null, nil
}

func absFn(args []sqltypes.Value) (sqltypes.Value, error) {
	v := args[0]
	if v.T == sqltypes.TypeInt && v.I < 0 {
		return sqltypes.NewInt(-v.I), nil
	}
	return v, nil
}

// TestKernelMatchesEval compiles a spread of expressions and checks the
// vector result against per-row boxed evaluation, NULLs included.
func TestKernelMatchesEval(t *testing.T) {
	ic, fc, sc := kcol(0, sqltypes.TypeInt), kcol(1, sqltypes.TypeFloat), kcol(2, sqltypes.TypeString)
	exprs := []Expr{
		ic,
		klit(sqltypes.NewInt(42)),
		&Binary{Op: "+", Left: ic, Right: klit(sqltypes.NewInt(3))},
		&Binary{Op: "*", Left: ic, Right: ic},
		&Binary{Op: "/", Left: ic, Right: ic},                         // division by zero -> NULL
		&Binary{Op: "%", Left: ic, Right: klit(sqltypes.NewInt(0))},   // modulo zero -> NULL
		&Binary{Op: "+", Left: ic, Right: fc},                         // int/float promotion
		&Binary{Op: "/", Left: fc, Right: klit(sqltypes.NewFloat(0))}, // float div zero -> NULL
		&Unary{Op: "-", Operand: ic},
		&Unary{Op: "-", Operand: fc},
		&Binary{Op: "=", Left: ic, Right: klit(sqltypes.NewInt(2))},
		&Binary{Op: "<>", Left: ic, Right: klit(sqltypes.NewInt(0))},
		&Binary{Op: "<", Left: ic, Right: fc},
		&Binary{Op: ">=", Left: sc, Right: klit(sqltypes.NewString("v2"))},
		&Binary{Op: "LIKE", Left: sc, Right: klit(sqltypes.NewString("v%"))},
		&Binary{Op: "LIKE", Left: sc, Right: klit(sqltypes.NewString("_3"))},
		&IsNull{Operand: ic},
		&IsNull{Operand: sc, Negate: true},
		&Unary{Op: "NOT", Operand: &Binary{Op: ">", Left: ic, Right: klit(sqltypes.NewInt(0))}},
		&Binary{Op: "AND",
			Left:  &Binary{Op: ">", Left: ic, Right: klit(sqltypes.NewInt(-2))},
			Right: &Binary{Op: "<", Left: fc, Right: klit(sqltypes.NewFloat(3))}},
		&Binary{Op: "OR",
			Left:  &IsNull{Operand: ic},
			Right: &Binary{Op: "=", Left: sc, Right: klit(sqltypes.NewString("v1"))}},
		&Cast{Operand: ic, Target: sqltypes.TypeFloat},
		&Cast{Operand: fc, Target: sqltypes.TypeInt}, // truncation toward zero
		&Cast{Operand: ic, Target: sqltypes.TypeInt}, // identity
		&ScalarFunc{Name: "COALESCE", Typ: sqltypes.TypeInt,
			Args: []Expr{ic, klit(sqltypes.NewInt(0))},
			Fn:   coalesceFn},
		&ScalarFunc{Name: "COALESCE", Typ: sqltypes.TypeString,
			Args: []Expr{sc, sc, klit(sqltypes.NewString("dflt"))},
			Fn:   coalesceFn},
		// The IVM multiplicity shape: searched CASE, negated branch.
		&Case{Whens: []CaseWhen{{
			When: &Binary{Op: "<", Left: ic, Right: klit(sqltypes.NewInt(0))},
			Then: &Unary{Op: "-", Operand: ic}}},
			Else: ic},
		// No ELSE -> NULL; NULL condition is not matched.
		&Case{Whens: []CaseWhen{{
			When: &Binary{Op: ">", Left: fc, Right: klit(sqltypes.NewFloat(2))},
			Then: fc}}},
		// Multiple arms, first match wins.
		&Case{Whens: []CaseWhen{
			{When: &Binary{Op: "=", Left: ic, Right: klit(sqltypes.NewInt(1))}, Then: klit(sqltypes.NewInt(100))},
			{When: &Binary{Op: ">", Left: ic, Right: klit(sqltypes.NewInt(1))}, Then: ic},
		}, Else: klit(sqltypes.NewInt(-100))},
		// Simple CASE (with operand) rewrites to searched form: NULL
		// operands match nothing, first equal arm wins.
		&Case{Operand: ic, Whens: []CaseWhen{
			{When: klit(sqltypes.NewInt(1)), Then: klit(sqltypes.NewInt(10))},
			{When: klit(sqltypes.NewInt(2)), Then: klit(sqltypes.NewInt(20))},
		}, Else: klit(sqltypes.NewInt(0))},
		// Operand equality under int/float promotion; no ELSE -> NULL.
		&Case{Operand: ic, Whens: []CaseWhen{{When: fc, Then: ic}}},
		// String operand.
		&Case{Operand: sc, Whens: []CaseWhen{{When: klit(sqltypes.NewString("v1")), Then: klit(sqltypes.NewInt(1))}},
			Else: klit(sqltypes.NewInt(0))},
	}
	for _, seed := range []int64{1, 2, 3} {
		cols, rows := kernelFixture(333, seed)
		for _, e := range exprs {
			k, ok := CompileKernel(e, fixtureResolve)
			if !ok {
				t.Fatalf("did not compile: %s", e)
			}
			out := k.EvalVec(cols, len(rows))
			for i, r := range rows {
				want, err := e.Eval(r)
				if err != nil {
					t.Fatalf("%s: boxed eval error %v", e, err)
				}
				got := out.ValueAt(i)
				if !sqltypes.Equal(got, want) {
					t.Fatalf("%s row %d (%v): kernel %v, eval %v", e, i, r, got, want)
				}
			}
		}
	}
}

// TestKernelThreeValuedLogic pins the AND/OR truth tables over every
// combination of TRUE/FALSE/NULL.
func TestKernelThreeValuedLogic(t *testing.T) {
	vals := []sqltypes.Value{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null}
	bv := func(pick []int) *sqltypes.Vector {
		v := sqltypes.NewVector(sqltypes.TypeBool, len(pick))
		for _, p := range pick {
			v.AppendValue(vals[p])
		}
		return v
	}
	var lp, rp []int
	var rows []sqltypes.Row
	for l := 0; l < 3; l++ {
		for r := 0; r < 3; r++ {
			lp, rp = append(lp, l), append(rp, r)
			rows = append(rows, sqltypes.Row{vals[l], vals[r]})
		}
	}
	cols := []*sqltypes.Vector{bv(lp), bv(rp)}
	resolve := func(c int) (int, sqltypes.Type, bool) { return c, sqltypes.TypeBool, c < 2 }
	for _, op := range []string{"AND", "OR"} {
		e := &Binary{Op: op, Left: kcol(0, sqltypes.TypeBool), Right: kcol(1, sqltypes.TypeBool)}
		k, ok := CompileKernel(e, resolve)
		if !ok {
			t.Fatal("logic kernel did not compile")
		}
		out := k.EvalVec(cols, len(rows))
		for i, r := range rows {
			want, _ := e.Eval(r)
			if got := out.ValueAt(i); !sqltypes.Equal(got, want) {
				t.Fatalf("%v %s %v: kernel %v, eval %v", r[0], op, r[1], got, want)
			}
		}
	}
}

// TestKernelUnsupportedFallback ensures the compiler refuses what it cannot
// faithfully vectorize.
func TestKernelUnsupportedFallback(t *testing.T) {
	ic := kcol(0, sqltypes.TypeInt)
	sc := kcol(2, sqltypes.TypeString)
	unsupported := []Expr{
		// Simple CASE whose operand/arm equality cannot compile (string vs
		// int never vectorizes) stays boxed even after the searched rewrite.
		&Case{Operand: sc, Whens: []CaseWhen{{When: klit(sqltypes.NewInt(1)), Then: klit(sqltypes.NewInt(0))}}},
		// Mixed branch types would change result types row by row.
		&Case{Whens: []CaseWhen{{When: &IsNull{Operand: ic}, Then: klit(sqltypes.NewInt(0))}},
			Else: klit(sqltypes.NewFloat(0.5))},
		&Between{Operand: ic, Lo: klit(sqltypes.NewInt(0)), Hi: klit(sqltypes.NewInt(5))},
		&In{Operand: ic, List: []Expr{klit(sqltypes.NewInt(1))}},
		&Cast{Operand: ic, Target: sqltypes.TypeString},
		// COALESCE over mixed types keeps the boxed first-non-NULL semantics.
		&ScalarFunc{Name: "COALESCE", Typ: sqltypes.TypeFloat,
			Args: []Expr{kcol(1, sqltypes.TypeFloat), klit(sqltypes.NewInt(0))}, Fn: coalesceFn},
		// Other scalar functions stay boxed.
		&ScalarFunc{Name: "ABS", Typ: sqltypes.TypeInt, Args: []Expr{ic}, Fn: absFn},
		&Binary{Op: "+", Left: sc, Right: sc},  // string concat
		&Binary{Op: "||", Left: sc, Right: sc}, // concat operator
		&Binary{Op: "=", Left: ic, Right: sc},  // mismatched types
		klit(sqltypes.Null),                    // untyped NULL literal
	}
	for _, e := range unsupported {
		if _, ok := CompileKernel(e, fixtureResolve); ok {
			t.Fatalf("%s should not compile to a kernel", e)
		}
	}
}

// TestNumberComparisonsRowAndKernel runs every comparison over NaN, the
// infinities and the BIGINTs around 2^53 and 2^63 through the row path and
// the kernel path: NaN equals NaN and sorts above every other number, and
// an INTEGER meets a DOUBLE exactly, so both paths agree with
// sqltypes.Compare.
func TestNumberComparisonsRowAndKernel(t *testing.T) {
	const p53 = 1 << 53
	nums := []sqltypes.Value{
		sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0xFFF8000000000000)),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(1),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(p53), sqltypes.NewFloat(1 << 63),
		sqltypes.NewInt(p53 - 1), sqltypes.NewInt(p53), sqltypes.NewInt(p53 + 1),
		sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(0), sqltypes.NewInt(1),
	}
	// Hand-checked verdicts the rule fixes, whichever path runs them.
	nan, one := sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(1)
	for _, c := range []struct {
		l, r sqltypes.Value
		op   string
		want bool
	}{
		{nan, nan, "=", true}, {nan, one, "=", false}, {nan, sqltypes.NewFloat(math.Inf(1)), ">", true},
		{one, nan, "<", true}, {nan, sqltypes.NewInt(math.MaxInt64), ">", true},
		{sqltypes.NewInt(p53 + 1), sqltypes.NewInt(p53), "=", false},
		{sqltypes.NewInt(p53 + 1), sqltypes.NewFloat(p53), ">", true},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(1 << 63), "<", true},
	} {
		got, err := (&Binary{Op: c.op, Left: klit(c.l), Right: klit(c.r)}).Eval(nil)
		if err != nil || got.IsTrue() != c.want {
			t.Errorf("%v %s %v = %v (%v), want %v", c.l, c.op, c.r, got, err, c.want)
		}
	}
	for _, lt := range []sqltypes.Type{sqltypes.TypeInt, sqltypes.TypeFloat} {
		for _, rt := range []sqltypes.Type{sqltypes.TypeInt, sqltypes.TypeFloat} {
			lv, rv := sqltypes.NewVector(lt, 0), sqltypes.NewVector(rt, 0)
			var rows []sqltypes.Row
			for _, a := range nums {
				for _, b := range nums {
					if a.T == lt && b.T == rt {
						lv.AppendValue(a)
						rv.AppendValue(b)
						rows = append(rows, sqltypes.Row{a, b})
					}
				}
			}
			resolve := func(c int) (int, sqltypes.Type, bool) { return c, []sqltypes.Type{lt, rt}[c], c < 2 }
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				e := &Binary{Op: op, Left: kcol(0, lt), Right: kcol(1, rt)}
				k, ok := CompileKernel(e, resolve)
				if !ok {
					t.Fatalf("%s over %s, %s did not compile", op, lt, rt)
				}
				out := k.EvalVec([]*sqltypes.Vector{lv, rv}, len(rows))
				for i, r := range rows {
					want := cmpHolds(op, sqltypes.Compare(r[0], r[1]))
					row, err := e.Eval(r)
					if err != nil || row.IsTrue() != want {
						t.Errorf("row path: %s %v %s %s %v = %v, want %v", r[0].T, r[0], op, r[1].T, r[1], row, want)
					}
					if got := out.ValueAt(i); got.IsTrue() != want {
						t.Errorf("kernel: %s %v %s %s %v = %v, want %v", r[0].T, r[0], op, r[1].T, r[1], got, want)
					}
				}
			}
		}
	}
}
