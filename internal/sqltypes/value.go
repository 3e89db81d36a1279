// Package sqltypes defines the dynamic value system shared by the parser,
// planner, execution engines and the IVM compiler: SQL scalar types, NULL
// semantics, three-valued comparison, arithmetic, casting and hashing.
package sqltypes

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the SQL scalar types supported by the engines.
type Type uint8

// Supported SQL types. TypeAny is used by the binder for untyped NULLs and
// parameters before resolution.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt    // 64-bit signed integer (INTEGER, BIGINT)
	TypeFloat  // 64-bit IEEE float (DOUBLE, REAL, DECIMAL approximation)
	TypeString // VARCHAR, TEXT
	TypeAny
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeAny:
		return "ANY"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps a SQL type name to a Type. It accepts the common aliases
// used by both the DuckDB and PostgreSQL dialects.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT", "INT2", "INT4", "INT8", "HUGEINT", "SERIAL":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC", "FLOAT4", "FLOAT8", "DOUBLE PRECISION":
		return TypeFloat, nil
	case "VARCHAR", "TEXT", "STRING", "CHAR", "BPCHAR", "DATE", "TIMESTAMP":
		// Dates/timestamps are carried as strings; ordering on ISO-8601
		// strings matches temporal ordering, which is all the IVM
		// pipeline needs.
		return TypeString, nil
	}
	return TypeNull, fmt.Errorf("sqltypes: unknown type %q", name)
}

// Value is a dynamically typed SQL scalar. The zero Value is SQL NULL.
//
// A Value is 32 bytes: the type tag, one payload word and a string. I holds
// an INTEGER, a DOUBLE's IEEE bits or a BOOLEAN as 0/1, so I is read as an
// integer only under T == TypeInt; Float and Bool read the other payloads.
type Value struct {
	T Type
	I int64
	S string
}

// Null is the SQL NULL value.
var Null = Value{T: TypeNull}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{T: TypeBool, I: 1}
	}
	return Value{T: TypeBool}
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: TypeInt, I: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{T: TypeFloat, I: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: TypeString, S: s} }

// Float returns a DOUBLE's payload; it is meaningful only under T == TypeFloat.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Bool returns a BOOLEAN's payload; it is meaningful only under T == TypeBool.
func (v Value) Bool() bool { return v.I != 0 }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsFloat converts numeric values to float64. NULL converts to 0.
func (v Value) AsFloat() float64 {
	switch v.T {
	case TypeInt:
		return float64(v.I)
	case TypeFloat:
		return v.Float()
	case TypeBool:
		if v.Bool() {
			return 1
		}
	}
	return 0
}

// AsInt converts numeric values to int64, truncating floats toward zero.
func (v Value) AsInt() int64 {
	switch v.T {
	case TypeInt:
		return v.I
	case TypeFloat:
		return int64(v.Float())
	case TypeBool:
		if v.Bool() {
			return 1
		}
	}
	return 0
}

// IsTrue reports whether v is the boolean TRUE (NULL and FALSE are not).
func (v Value) IsTrue() bool { return v.T == TypeBool && v.Bool() }

// String renders the value the way the engines print result rows.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		f := v.Float()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case TypeString:
		return v.S
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal that re-parses to the same
// value; the IVM compiler uses it when inlining delta constants.
func (v Value) SQLLiteral() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TypeString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return "NULL"
}

// numericPair promotes two numeric values to a common representation.
// ok is false if either side is non-numeric.
func numericPair(a, b Value) (af, bf float64, isInt bool, ok bool) {
	num := func(v Value) (float64, bool, bool) {
		switch v.T {
		case TypeInt:
			return float64(v.I), true, true
		case TypeFloat:
			return v.Float(), false, true
		}
		return 0, false, false
	}
	av, ai, aok := num(a)
	bv, bi, bok := num(b)
	return av, bv, ai && bi, aok && bok
}

// Compare orders two values. NULL sorts before everything and equals only
// NULL (this is the total order used by ORDER BY and index keys; predicate
// comparison with NULL propagation lives in CompareSQL). Numbers compare
// exactly: two INTEGERs as int64, an INTEGER and a DOUBLE without rounding
// either, and NaN as CompareFloat orders it. Otherwise mismatched types
// compare by type tag.
func Compare(a, b Value) int {
	if a.T == TypeNull || b.T == TypeNull {
		switch {
		case a.T == TypeNull && b.T == TypeNull:
			return 0
		case a.T == TypeNull:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.T == TypeInt && b.T == TypeInt:
		return cmp.Compare(a.I, b.I)
	case a.T == TypeFloat && b.T == TypeFloat:
		return CompareFloat(a.Float(), b.Float())
	case a.T == TypeInt && b.T == TypeFloat:
		return CompareIntFloat(a.I, b.Float())
	case a.T == TypeFloat && b.T == TypeInt:
		return -CompareIntFloat(b.I, a.Float())
	}
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	switch a.T {
	case TypeBool:
		return cmp.Compare(a.AsInt(), b.AsInt())
	case TypeString:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// CompareFloat orders two DOUBLEs the way PostgreSQL and DuckDB do: NaN
// equals NaN and sorts above every other number, -0.0 equals 0.0.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := a != a, b != b; {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// CompareIntFloat orders an INTEGER and a DOUBLE exactly, where converting
// i to float64 would round away its low bits above 2^53. NaN is above i.
func CompareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	// f is in [-2^63, 2^63), so its truncation fi fits an int64 and
	// f-fi is its exact fractional part.
	fi := int64(f)
	if c := cmp.Compare(i, fi); c != 0 {
		return c
	}
	return CompareFloat(0, f-float64(fi))
}

// CompareSQL implements SQL three-valued comparison: if either operand is
// NULL the result is unknown (ok=false); otherwise cmp is as Compare.
func CompareSQL(a, b Value) (cmp int, ok bool) {
	if a.T == TypeNull || b.T == TypeNull {
		return 0, false
	}
	return Compare(a, b), true
}

// Equal reports Compare(a,b)==0. NULL equals NULL under this predicate
// (used for grouping and index keys, matching SQL GROUP BY semantics).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Arith applies a binary arithmetic operator (+ - * / %). SQL semantics:
// NULL in, NULL out; integer division truncates; division by zero yields
// NULL (the engines follow DuckDB here rather than erroring).
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.T == TypeString || b.T == TypeString {
		if op == '+' && a.T == TypeString && b.T == TypeString {
			return NewString(a.S + b.S), nil
		}
		return Null, fmt.Errorf("sqltypes: cannot apply %q to %s and %s", string(op), a.T, b.T)
	}
	af, bf, isInt, ok := numericPair(a, b)
	if !ok {
		return Null, fmt.Errorf("sqltypes: cannot apply %q to %s and %s", string(op), a.T, b.T)
	}
	if isInt {
		ai, bi := a.AsInt(), b.AsInt()
		switch op {
		case '+':
			return NewInt(ai + bi), nil
		case '-':
			return NewInt(ai - bi), nil
		case '*':
			return NewInt(ai * bi), nil
		case '/':
			if bi == 0 {
				return Null, nil
			}
			return NewInt(ai / bi), nil
		case '%':
			if bi == 0 {
				return Null, nil
			}
			return NewInt(ai % bi), nil
		}
	}
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, nil
		}
		return NewFloat(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, nil
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("sqltypes: unknown operator %q", string(op))
}

// Neg negates a numeric value; NULL in, NULL out.
func Neg(v Value) (Value, error) {
	switch v.T {
	case TypeNull:
		return Null, nil
	case TypeInt:
		return NewInt(-v.I), nil
	case TypeFloat:
		return NewFloat(-v.Float()), nil
	}
	return Null, fmt.Errorf("sqltypes: cannot negate %s", v.T)
}

// Cast converts v to type t following SQL CAST rules. Casting NULL to any
// type yields NULL. Failed string parses return an error.
func Cast(v Value, t Type) (Value, error) {
	if v.IsNull() || t == TypeAny || v.T == t {
		if v.T == TypeFloat && t == TypeInt {
			return NewInt(int64(v.Float())), nil
		}
		return v, nil
	}
	switch t {
	case TypeBool:
		switch v.T {
		case TypeInt:
			return NewBool(v.I != 0), nil
		case TypeFloat:
			return NewBool(v.Float() != 0), nil
		case TypeString:
			switch strings.ToLower(strings.TrimSpace(v.S)) {
			case "true", "t", "1", "yes":
				return NewBool(true), nil
			case "false", "f", "0", "no":
				return NewBool(false), nil
			}
			return Null, fmt.Errorf("sqltypes: cannot cast %q to BOOLEAN", v.S)
		}
	case TypeInt:
		switch v.T {
		case TypeBool:
			return NewInt(v.AsInt()), nil
		case TypeFloat:
			return NewInt(int64(v.Float())), nil
		case TypeString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				f, ferr := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
				if ferr != nil {
					return Null, fmt.Errorf("sqltypes: cannot cast %q to INTEGER", v.S)
				}
				return NewInt(int64(f)), nil
			}
			return NewInt(i), nil
		}
	case TypeFloat:
		switch v.T {
		case TypeBool:
			return NewFloat(v.AsFloat()), nil
		case TypeInt:
			return NewFloat(float64(v.I)), nil
		case TypeString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("sqltypes: cannot cast %q to DOUBLE", v.S)
			}
			return NewFloat(f), nil
		}
	case TypeString:
		return NewString(v.String()), nil
	}
	return Null, fmt.Errorf("sqltypes: unsupported cast %s -> %s", v.T, t)
}

// CoerceToColumn converts v for storage into a column of type t, erroring on
// lossy or nonsensical conversions the way an engine's INSERT path would.
func CoerceToColumn(v Value, t Type) (Value, error) {
	if v.IsNull() || t == TypeAny {
		return v, nil
	}
	if v.T == t {
		return v, nil
	}
	// Numeric widening/narrowing is permitted on ingest.
	if (v.T == TypeInt || v.T == TypeFloat || v.T == TypeBool) &&
		(t == TypeInt || t == TypeFloat || t == TypeBool) {
		return Cast(v, t)
	}
	if t == TypeString {
		return NewString(v.String()), nil
	}
	if v.T == TypeString {
		return Cast(v, t)
	}
	return Null, fmt.Errorf("sqltypes: cannot store %s into %s column", v.T, t)
}
