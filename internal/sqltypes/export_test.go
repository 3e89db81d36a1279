package sqltypes

// KeyString returns EncodeKey as a string, suitable as a map key.
func KeyString(vals ...Value) string {
	return string(EncodeKey(nil, vals...))
}
