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

// Empty returns the aggregate over no rows, which is also where a group's
// running value starts: 0 for COUNT and COUNT(*), NULL otherwise.
func (a *Aggregate) Empty() sqltypes.Value {
	if a.Kind == AggCount || a.Kind == AggCountStar {
		return sqltypes.NewInt(0)
	}
	return sqltypes.Null
}

// Step folds one input row into the aggregate's running value acc, which
// starts at Empty: v is the argument evaluated over the row (ignored by
// COUNT(*)). A NULL argument leaves acc as it is. SUM adds, COUNT counts,
// MIN and MAX keep the extreme, and AVG keeps the DOUBLE sum its result
// divides (Avg), its count kept by the caller. DISTINCT is the caller's
// too: it steps each distinct argument once.
func (a *Aggregate) Step(acc *sqltypes.Value, v sqltypes.Value) error {
	if a.Kind == AggCountStar {
		acc.I++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	switch a.Kind {
	case AggCount:
		acc.I++
	case AggSum:
		if acc.IsNull() {
			*acc = v
			return nil
		}
		sum, err := sqltypes.Arith('+', *acc, v)
		if err != nil {
			return err
		}
		*acc = sum
	case AggMin, AggMax:
		c := sqltypes.Compare(v, *acc)
		if acc.IsNull() || a.Kind == AggMin && c < 0 || a.Kind == AggMax && c > 0 {
			*acc = v
		}
	case AggAvg:
		var sum float64
		if !acc.IsNull() {
			sum = acc.Float()
		}
		*acc = sqltypes.NewFloat(sum + v.AsFloat())
	}
	return nil
}

// Avg is AVG's result from the sum Step keeps and the number of non-NULL
// arguments stepped: NULL over none.
func Avg(sum sqltypes.Value, n int64) sqltypes.Value {
	if n == 0 {
		return sqltypes.Null
	}
	return sqltypes.NewFloat(sum.Float() / float64(n))
}
