package sqltypes

// Vector is a typed column of values: one flat Go slice per supported
// scalar type plus a validity bitmap, so operator inner loops can run over
// unboxed machine types instead of per-cell Value dispatch. Exactly one of
// the payload slices is active, selected by T; NULL cells keep a zero
// payload slot and a cleared validity bit.
//
// Vectors are the columnar half of the execution engine's Batch: the fused
// scan pipeline loads table columns into Vectors, expression kernels
// (internal/expr) consume and produce them, and row-oriented operators
// materialize rows from them on demand. A Vector is owned by its producer
// and reused across batches; consumers must not retain it.
type Vector struct {
	// T is the element type. TypeNull vectors carry only validity bits
	// (every cell NULL); TypeAny is not a valid vector type.
	T Type

	// Ints holds TypeInt payloads, Floats TypeFloat, Bools TypeBool and
	// Strs TypeString. Only the slice matching T is non-nil after appends.
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string

	valid []uint64 // validity bitmap, bit i set = cell i non-NULL
	n     int
	nulls int
}

// NewVector returns an empty vector of element type t with room for
// capacity cells.
func NewVector(t Type, capacity int) *Vector {
	v := &Vector{T: t}
	v.grow(capacity)
	return v
}

// grow ensures capacity cells fit without reallocation, preserving the
// current contents. The validity bitmap is kept at full capacity length so
// bit operations never need a bounds extension.
func (v *Vector) grow(capacity int) {
	if capacity <= 0 {
		return
	}
	// Amortize incremental appends: grow to at least double the current
	// capacity (min 16) so per-cell appends stay O(1).
	if c := v.payloadCap(); c < capacity {
		if capacity < 2*c {
			capacity = 2 * c
		}
		if capacity < 16 {
			capacity = 16
		}
	}
	if words := (capacity + 63) / 64; len(v.valid) < words {
		nv := make([]uint64, words)
		copy(nv, v.valid)
		v.valid = nv
	}
	switch v.T {
	case TypeInt:
		if cap(v.Ints) < capacity {
			ns := make([]int64, v.n, capacity)
			copy(ns, v.Ints)
			v.Ints = ns
		}
	case TypeFloat:
		if cap(v.Floats) < capacity {
			ns := make([]float64, v.n, capacity)
			copy(ns, v.Floats)
			v.Floats = ns
		}
	case TypeBool:
		if cap(v.Bools) < capacity {
			ns := make([]bool, v.n, capacity)
			copy(ns, v.Bools)
			v.Bools = ns
		}
	case TypeString:
		if cap(v.Strs) < capacity {
			ns := make([]string, v.n, capacity)
			copy(ns, v.Strs)
			v.Strs = ns
		}
	}
}

func (v *Vector) payloadCap() int {
	switch v.T {
	case TypeInt:
		return cap(v.Ints)
	case TypeFloat:
		return cap(v.Floats)
	case TypeBool:
		return cap(v.Bools)
	case TypeString:
		return cap(v.Strs)
	}
	return len(v.valid) * 64
}

// Len returns the number of cells.
func (v *Vector) Len() int { return v.n }

// AllValid reports whether no cell is NULL — kernels use it to skip
// per-cell validity checks in the common dense case.
func (v *Vector) AllValid() bool { return v.nulls == 0 }

// Reset empties the vector for refilling, keeping capacity.
func (v *Vector) Reset() {
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Bools = v.Bools[:0]
	v.Strs = v.Strs[:0]
	v.n = 0
	v.nulls = 0
}

// Resize sets the logical length to n with every cell valid and payload
// slots zeroed/stale; kernels that overwrite every slot use it to avoid
// element-wise appends. Callers must then set payloads (and nulls via
// SetNull) for all n cells.
func (v *Vector) Resize(n int) {
	v.Reset()
	v.grow(n)
	v.n = n
	words := (n + 63) / 64
	v.valid = v.valid[:cap(v.valid)]
	for i := 0; i < words; i++ {
		v.valid[i] = ^uint64(0)
	}
	switch v.T {
	case TypeInt:
		v.Ints = v.Ints[:n]
	case TypeFloat:
		v.Floats = v.Floats[:n]
	case TypeBool:
		v.Bools = v.Bools[:n]
	case TypeString:
		v.Strs = v.Strs[:n]
	}
}

// Valid reports whether cell i is non-NULL.
func (v *Vector) Valid(i int) bool {
	if v.T == TypeNull {
		return false
	}
	return v.valid[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetNull marks cell i NULL. The payload slot keeps whatever value it had;
// consumers must consult Valid first.
func (v *Vector) SetNull(i int) {
	if v.Valid(i) {
		v.nulls++
		v.valid[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// AppendInt appends a non-NULL INTEGER cell. The vector must have T ==
// TypeInt.
func (v *Vector) AppendInt(x int64) {
	v.grow(v.n + 1)
	v.setValid(v.n)
	v.Ints = append(v.Ints, x)
	v.n++
}

// AppendFloat appends a non-NULL DOUBLE cell.
func (v *Vector) AppendFloat(x float64) {
	v.grow(v.n + 1)
	v.setValid(v.n)
	v.Floats = append(v.Floats, x)
	v.n++
}

// AppendBool appends a non-NULL BOOLEAN cell.
func (v *Vector) AppendBool(x bool) {
	v.grow(v.n + 1)
	v.setValid(v.n)
	v.Bools = append(v.Bools, x)
	v.n++
}

// AppendString appends a non-NULL VARCHAR cell.
func (v *Vector) AppendString(x string) {
	v.grow(v.n + 1)
	v.setValid(v.n)
	v.Strs = append(v.Strs, x)
	v.n++
}

// AppendNull appends a NULL cell (payload slot zeroed).
func (v *Vector) AppendNull() {
	v.grow(v.n + 1)
	v.valid[v.n>>6] &^= 1 << (uint(v.n) & 63)
	switch v.T {
	case TypeInt:
		v.Ints = append(v.Ints, 0)
	case TypeFloat:
		v.Floats = append(v.Floats, 0)
	case TypeBool:
		v.Bools = append(v.Bools, false)
	case TypeString:
		v.Strs = append(v.Strs, "")
	}
	v.n++
	v.nulls++
}

func (v *Vector) setValid(i int) {
	v.valid[i>>6] |= 1 << (uint(i) & 63)
}

// AppendValue appends a boxed value, converting it to the vector's element
// type with the same numeric promotion the row engine applies (ints widen
// into float vectors; anything else mismatched becomes NULL). It is the
// boxed-to-columnar bridge used when loading row storage into vectors.
func (v *Vector) AppendValue(val Value) {
	if val.IsNull() {
		v.AppendNull()
		return
	}
	switch v.T {
	case TypeInt:
		if val.T == TypeInt {
			v.AppendInt(val.I)
			return
		}
	case TypeFloat:
		switch val.T {
		case TypeFloat:
			v.AppendFloat(val.Float())
			return
		case TypeInt:
			v.AppendFloat(float64(val.I))
			return
		}
	case TypeBool:
		if val.T == TypeBool {
			v.AppendBool(val.Bool())
			return
		}
	case TypeString:
		if val.T == TypeString {
			v.AppendString(val.S)
			return
		}
	}
	v.AppendNull()
}

// ValueAt boxes cell i back into a Value — the row-view bridge used when a
// row-oriented operator consumes a columnar batch.
func (v *Vector) ValueAt(i int) Value {
	if !v.Valid(i) {
		return Null
	}
	switch v.T {
	case TypeInt:
		return Value{T: TypeInt, I: v.Ints[i]}
	case TypeFloat:
		return NewFloat(v.Floats[i])
	case TypeBool:
		return NewBool(v.Bools[i])
	case TypeString:
		return Value{T: TypeString, S: v.Strs[i]}
	}
	return Null
}

// EncodeCell appends cell i's hash/sort key encoding to dst,
// byte-identical to EncodeKey(dst, v.ValueAt(i)) without boxing the cell —
// the columnar group-key path of the hash aggregation operator encodes
// key vectors cell-wise straight into its table's probe buffer.
func (v *Vector) EncodeCell(dst []byte, i int) []byte {
	if !v.Valid(i) {
		return append(dst, 0x00)
	}
	switch v.T {
	case TypeInt:
		return appendKeyInt(dst, v.Ints[i])
	case TypeFloat:
		return appendKeyNumber(dst, v.Floats[i])
	case TypeBool:
		return appendKeyBool(dst, v.Bools[i])
	case TypeString:
		return appendKeyString(dst, v.Strs[i])
	}
	return append(dst, 0x00)
}

// GatherFrom fills the vector with src's cells at the sel positions,
// replacing any previous contents. Both vectors must share an element
// type. It is the vector-to-vector sibling of LoadRows: when a column was
// already lifted out of row storage for an earlier pipeline stage, the
// selection is applied with typed copies instead of re-boxing every cell
// from the rows.
func (v *Vector) GatherFrom(src *Vector, sel []int) {
	v.Reset()
	v.grow(len(sel))
	switch v.T {
	case TypeInt:
		for _, i := range sel {
			if src.Valid(i) {
				v.AppendInt(src.Ints[i])
			} else {
				v.AppendNull()
			}
		}
	case TypeFloat:
		for _, i := range sel {
			if src.Valid(i) {
				v.AppendFloat(src.Floats[i])
			} else {
				v.AppendNull()
			}
		}
	case TypeBool:
		for _, i := range sel {
			if src.Valid(i) {
				v.AppendBool(src.Bools[i])
			} else {
				v.AppendNull()
			}
		}
	case TypeString:
		for _, i := range sel {
			if src.Valid(i) {
				v.AppendString(src.Strs[i])
			} else {
				v.AppendNull()
			}
		}
	default:
		for range sel {
			v.AppendNull()
		}
	}
}

// LoadRows fills the vector with column col of the rows selected by sel
// (pass sel == nil for all rows), replacing any previous contents. This is
// the fused scan's late-materialization step: only the columns a pipeline
// actually references are ever lifted out of row storage, and only for the
// rows that survived the filter. Callers must know the cells match the
// vector's element type (base-table columns are validated on insert);
// for untyped sources use LoadRowsChecked.
func (v *Vector) LoadRows(rows []Row, sel []int, col int) {
	v.Reset()
	if sel == nil {
		v.grow(len(rows))
		for _, r := range rows {
			v.AppendValue(r[col])
		}
		return
	}
	v.grow(len(sel))
	for _, i := range sel {
		v.AppendValue(rows[i][col])
	}
}

// LoadRowsChecked is LoadRows that refuses lossy conversions: ok=false
// when any non-NULL cell's type neither equals the vector's element type
// nor widens losslessly into it (int into a float vector — the same
// promotion the row engine applies). Derived columns can carry cells
// whose runtime type diverges from the declared schema type (a CASE with
// mixed branch types reports its first branch), and AppendValue would
// silently turn those cells into NULLs; callers use the refusal to fall
// back to the boxed row path instead. On refusal the vector's contents
// are unspecified.
func (v *Vector) LoadRowsChecked(rows []Row, sel []int, col int) bool {
	v.Reset()
	if sel == nil {
		v.grow(len(rows))
		for _, r := range rows {
			if !v.appendValueChecked(r[col]) {
				return false
			}
		}
		return true
	}
	v.grow(len(sel))
	for _, i := range sel {
		if !v.appendValueChecked(rows[i][col]) {
			return false
		}
	}
	return true
}

func (v *Vector) appendValueChecked(val Value) bool {
	if !val.IsNull() && val.T != v.T && !(v.T == TypeFloat && val.T == TypeInt) {
		return false
	}
	v.AppendValue(val)
	return true
}
