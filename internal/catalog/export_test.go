package catalog

import (
	"openivm/internal/index/slottab"
	"openivm/internal/sqltypes"
)

// LookupPK returns the row with the given primary-key values, if present
// under the latest snapshot.
func (t *Table) LookupPK(vals ...sqltypes.Value) (sqltypes.Row, bool) {
	if len(vals) != len(t.pkCols) || len(vals) == 0 {
		return nil, false
	}
	var buf [64]byte
	tag := slottab.Hash(sqltypes.EncodeKey(buf[:0], vals...))
	t.mu.RLock()
	defer t.mu.RUnlock()
	if s := t.visibleLocked(t.mv.Current(), t.pkProbe(tag, vals).slot); s >= 0 {
		return t.rows[s], true
	}
	return nil, false
}
