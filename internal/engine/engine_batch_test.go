package engine

import (
	"strings"
	"testing"
)

// TestPragmaBatchSizeRoundTrip checks the knob flows engine → plan → exec:
// the pragma is stored, the planner wraps the root in a Hint node (visible
// in EXPLAIN), and execution at the tiny batch size still returns correct
// results.
func TestPragmaBatchSizeRoundTrip(t *testing.T) {
	db := Open("t", DialectDuckDB)
	mustExec(t, db, "CREATE TABLE nums (k VARCHAR, v INTEGER)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, "INSERT INTO nums VALUES ('k', 1)")
	}

	s := sess(t, db)
	if _, err := s.Exec("PRAGMA batch_size = 3"); err != nil {
		t.Fatal(err)
	}
	if got := s.Pragma("batch_size"); got != "3" {
		t.Fatalf("pragma round-trip = %q", got)
	}

	// Plan layer: the root carries the hint.
	res, err := s.Exec("EXPLAIN SELECT k, SUM(v) FROM nums GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	var explain []string
	for _, r := range res.Rows {
		explain = append(explain, r[0].String())
	}
	if !strings.Contains(strings.Join(explain, "\n"), "Hint batch_size=3") {
		t.Fatalf("EXPLAIN missing batch-size hint:\n%s", strings.Join(explain, "\n"))
	}

	// Exec layer: results are unchanged by the batch size.
	res, err = s.Exec("SELECT k, SUM(v) FROM nums GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 10 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPragmaBatchSizeValidation(t *testing.T) {
	db := Open("t", DialectDuckDB)
	for _, bad := range []string{"PRAGMA batch_size = 0", "PRAGMA batch_size = -5", "PRAGMA batch_size = 'lots'"} {
		if _, err := db.Exec(bad); err == nil {
			t.Fatalf("%s must be rejected", bad)
		}
	}
	if _, err := db.Exec("PRAGMA batch_size = 1024"); err != nil {
		t.Fatal(err)
	}
}
