package expr

import "openivm/internal/sqltypes"

// EvalBatch evaluates e over every row of rows, appending the results to
// dst (pass dst[:0] to reuse a scratch buffer across batches). It is the
// row-major batch-evaluation entry point: one expression over a whole
// chunk, with fast paths for plain columns and literals; every other
// expression runs through Eval row by row.
func EvalBatch(e Expr, rows []sqltypes.Row, dst []sqltypes.Value) ([]sqltypes.Value, error) {
	switch x := e.(type) {
	case *Column:
		// Hot path: plain column reference copies values directly.
		for _, r := range rows {
			if x.Idx < 0 || x.Idx >= len(r) {
				v, err := x.Eval(r) // surface the standard error
				if err != nil {
					return dst, err
				}
				dst = append(dst, v)
				continue
			}
			dst = append(dst, r[x.Idx])
		}
		return dst, nil
	case *Literal:
		for range rows {
			dst = append(dst, x.Val)
		}
		return dst, nil
	}
	for _, r := range rows {
		v, err := e.Eval(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
