package engine

import "fmt"

// SetVerbatim makes db keep every literal in the statement text (and in
// its cache keys), so a test can compare lifted execution against it.
func SetVerbatim(db *DB, on bool) { db.verbatim = on }

// ExplainLifted explains a single statement the way its execution plans
// it: lifted, with this text's literals bound. (EXPLAIN itself keeps its
// literals.) A doomed transaction refuses it as it refuses EXPLAIN.
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
	return s.explain(&ent.params, ent.stmt)
}
