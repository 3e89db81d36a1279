package sqltypes

// KeyString returns EncodeKey as a string, suitable as a map key.
func KeyString(vals ...Value) string {
	return string(EncodeKey(nil, vals...))
}

// NullCount returns how many cells are NULL.
func (v *Vector) NullCount() int { return v.nulls }
