package engine

import (
	"errors"
	"fmt"
	"strings"

	"openivm/internal/mvcc"
	"openivm/internal/sqlparser"
)

// splitStatements splits a script into the texts of its statements, on
// semicolons outside quotes and parentheses, as the lexer reads it. A
// script the lexer rejects comes back whole.
func splitStatements(sql string) []string {
	ls, err := sqlparser.Lift(sql, false)
	if err != nil {
		return []string{strings.TrimSpace(sql)}
	}
	out := make([]string, len(ls))
	for i := range ls {
		out[i] = ls[i].Text()
	}
	return out
}

// IsSerializationError reports whether err is an MVCC write-write
// conflict (first-committer-wins).
func IsSerializationError(err error) bool { return errors.Is(err, mvcc.ErrSerialization) }

// DegradedReason returns the storage failure that triggered degraded
// mode (nil when healthy).
func (db *DB) DegradedReason() error {
	db.degr.mu.Lock()
	defer db.degr.mu.Unlock()
	return db.degr.reason
}

// AddTrigger registers a row-level trigger on a handler that has no SQL
// name, for the life of db.
func (db *DB) AddTrigger(table, name string, events []TriggerEvent, fn TriggerFunc) {
	tr := &trigger{name: name, events: map[TriggerEvent]bool{}, handler: fn}
	for _, e := range events {
		tr.events[e] = true
	}
	db.addTrigger(table, tr)
}

// RemoveTrigger deregisters a trigger by table and name.
func (db *DB) RemoveTrigger(table, name string) {
	key := strings.ToLower(table)
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	var next []*trigger
	for _, tr := range db.triggers[key] {
		if !strings.EqualFold(tr.name, name) {
			next = append(next, tr)
		}
	}
	db.triggers[key] = next
}

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
