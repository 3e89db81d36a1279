package expr

import (
	"fmt"

	"openivm/internal/sqltypes"
)

// AggKind enumerates the supported aggregate functions — the paper's
// shipped set (SUM, COUNT) plus its announced extensions (MIN, MAX) and
// AVG (maintained as SUM/COUNT).
type AggKind uint8

// Aggregate kinds.
const (
	AggSum AggKind = iota
	AggCount
	AggCountStar
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "SUM"
	case AggCount, AggCountStar:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return "AGG"
}

// ParseAggKind maps a function name to an AggKind; star selects COUNT(*).
func ParseAggKind(name string, star bool) (AggKind, bool) {
	switch name {
	case "SUM":
		return AggSum, true
	case "COUNT":
		if star {
			return AggCountStar, true
		}
		return AggCount, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "AVG":
		return AggAvg, true
	}
	return AggSum, false
}

// IsAggregateName reports whether name is an aggregate function.
func IsAggregateName(name string) bool {
	switch name {
	case "SUM", "COUNT", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// Aggregate describes one aggregate computation: kind plus its (bound)
// argument expression (nil for COUNT(*)), and whether DISTINCT applies.
type Aggregate struct {
	Kind     AggKind
	Arg      Expr
	Distinct bool
}

// ResultType returns the aggregate's output type given its input.
func (a *Aggregate) ResultType() sqltypes.Type {
	switch a.Kind {
	case AggCount, AggCountStar:
		return sqltypes.TypeInt
	case AggAvg:
		return sqltypes.TypeFloat
	case AggSum:
		if a.Arg != nil && a.Arg.Type() == sqltypes.TypeFloat {
			return sqltypes.TypeFloat
		}
		return sqltypes.TypeInt
	case AggMin, AggMax:
		if a.Arg != nil {
			return a.Arg.Type()
		}
	}
	return sqltypes.TypeAny
}

// String renders the aggregate for display.
func (a *Aggregate) String() string {
	if a.Kind == AggCountStar {
		return "COUNT(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Kind, d, a.Arg)
}

// AggState accumulates one aggregate over one group.
type AggState interface {
	// Add folds one input row into the state.
	Add(row sqltypes.Row) error
	// Result produces the aggregate value.
	Result() sqltypes.Value
}

// NewState returns a fresh accumulator for the aggregate.
func (a *Aggregate) NewState() AggState {
	var inner AggState
	switch a.Kind {
	case AggSum:
		inner = &sumState{arg: a.Arg}
	case AggCount:
		inner = &countState{arg: a.Arg}
	case AggCountStar:
		inner = &countState{}
	case AggMin:
		inner = &minmaxState{arg: a.Arg, isMin: true}
	case AggMax:
		inner = &minmaxState{arg: a.Arg}
	case AggAvg:
		inner = &avgState{arg: a.Arg}
	}
	if a.Distinct {
		return &distinctState{arg: a.Arg, inner: inner, seen: map[string]struct{}{}}
	}
	return inner
}

// FillStates populates dst with independent fresh accumulators, using one
// backing allocation for the whole block instead of one per state — the
// hash aggregation operator hands these out as groups appear, so a
// grouped aggregate costs O(1) allocations per block of groups rather than
// O(aggs) per group. DISTINCT aggregates still allocate individually
// (each carries its own dedup map).
func (a *Aggregate) FillStates(dst []AggState) {
	if a.Distinct {
		for i := range dst {
			dst[i] = a.NewState()
		}
		return
	}
	switch a.Kind {
	case AggSum:
		block := make([]sumState, len(dst))
		for i := range dst {
			block[i].arg = a.Arg
			dst[i] = &block[i]
		}
	case AggCount, AggCountStar:
		block := make([]countState, len(dst))
		for i := range dst {
			if a.Kind == AggCount {
				block[i].arg = a.Arg
			}
			dst[i] = &block[i]
		}
	case AggMin, AggMax:
		block := make([]minmaxState, len(dst))
		for i := range dst {
			block[i] = minmaxState{arg: a.Arg, isMin: a.Kind == AggMin}
			dst[i] = &block[i]
		}
	case AggAvg:
		block := make([]avgState, len(dst))
		for i := range dst {
			block[i].arg = a.Arg
			dst[i] = &block[i]
		}
	default:
		for i := range dst {
			dst[i] = a.NewState()
		}
	}
}

type sumState struct {
	arg Expr
	sum sqltypes.Value // NULL until first non-null input
}

func (s *sumState) Add(row sqltypes.Row) error {
	v, err := s.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if s.sum.IsNull() {
		s.sum = v
		return nil
	}
	sum, err := sqltypes.Arith('+', s.sum, v)
	if err != nil {
		return err
	}
	s.sum = sum
	return nil
}

func (s *sumState) Result() sqltypes.Value { return s.sum }

type countState struct {
	arg Expr // nil for COUNT(*)
	n   int64
}

func (s *countState) Add(row sqltypes.Row) error {
	if s.arg == nil {
		s.n++
		return nil
	}
	v, err := s.arg.Eval(row)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		s.n++
	}
	return nil
}

func (s *countState) Result() sqltypes.Value { return sqltypes.NewInt(s.n) }

type minmaxState struct {
	arg   Expr
	best  sqltypes.Value
	isMin bool
}

func (s *minmaxState) Add(row sqltypes.Row) error {
	v, err := s.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if s.best.IsNull() {
		s.best = v
		return nil
	}
	c := sqltypes.Compare(v, s.best)
	if (s.isMin && c < 0) || (!s.isMin && c > 0) {
		s.best = v
	}
	return nil
}

func (s *minmaxState) Result() sqltypes.Value { return s.best }

type avgState struct {
	arg Expr
	sum float64
	n   int64
}

func (s *avgState) Add(row sqltypes.Row) error {
	v, err := s.arg.Eval(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	s.sum += v.AsFloat()
	s.n++
	return nil
}

func (s *avgState) Result() sqltypes.Value {
	if s.n == 0 {
		return sqltypes.Null
	}
	return sqltypes.NewFloat(s.sum / float64(s.n))
}

type distinctState struct {
	arg   Expr
	inner AggState
	seen  map[string]struct{}
	buf   []byte // reusable key scratch
}

func (s *distinctState) Add(row sqltypes.Row) error {
	v, err := s.arg.Eval(row)
	if err != nil {
		return err
	}
	s.buf = sqltypes.EncodeKey(s.buf[:0], v)
	if _, ok := s.seen[string(s.buf)]; ok {
		return nil
	}
	s.seen[string(s.buf)] = struct{}{}
	return s.inner.Add(row)
}

func (s *distinctState) Result() sqltypes.Value { return s.inner.Result() }
