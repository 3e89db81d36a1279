package engine

import (
	"fmt"

	"openivm/internal/plan"
	"openivm/internal/sqlparser"
)

// SetVerbatim makes db keep every literal in the statement text (and in
// its cache keys), so a test can compare lifted execution against it.
func SetVerbatim(db *DB, on bool) { db.verbatim = on }

// ExplainLifted explains a single SELECT, UPDATE or DELETE the way its
// execution plans it: lifted, with this text's literals bound. (EXPLAIN
// itself keeps its literals.) A doomed transaction refuses it as it
// refuses EXPLAIN.
func ExplainLifted(s *Session, sql string) (string, error) {
	if s.doomed(nil) {
		return "", errTxnAborted
	}
	p, err := s.db.split(sql)
	if err != nil {
		return "", err
	}
	if len(p.lifted) != 1 {
		return "", fmt.Errorf("%d statements", len(p.lifted))
	}
	ent, err := s.checkout(p, 0)
	if err != nil {
		return "", err
	}
	defer s.db.plans.give(ent)
	switch x := ent.stmt.(type) {
	case *sqlparser.SelectStmt:
		n, err := s.bindSelect(x, &ent.params, s.stamp())
		if err != nil {
			return "", err
		}
		return plan.Explain(n), nil
	case *sqlparser.UpdateStmt:
		return s.explainWrite(&ent.params, "Update", x.Table, x.Where)
	case *sqlparser.DeleteStmt:
		return s.explainWrite(&ent.params, "Delete", x.Table, x.Where)
	}
	return "", fmt.Errorf("cannot explain %T", ent.stmt)
}
