package catalog

import (
	"openivm/internal/mvcc"
	"openivm/internal/sqltypes"
)

// LookupPK returns the row with the given primary-key values, if present
// under the latest snapshot.
func (t *Table) LookupPK(vals ...sqltypes.Value) (sqltypes.Row, bool) {
	if len(vals) != len(t.pkCols) || len(vals) == 0 {
		return nil, false
	}
	return t.lookupPK(mvcc.Snapshot{}, vals)
}
