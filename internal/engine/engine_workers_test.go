package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestPragmaWorkers covers the PRAGMA workers plumbing: validation,
// round-trip, and result equivalence between
// serial and parallel settings on a table large enough to actually fan
// out.
func TestPragmaWorkers(t *testing.T) {
	s := Open("w", DialectDuckDB).NewSession()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE nums (a INTEGER, b INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO nums VALUES ")
	for i := 0; i < 12000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%53)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{"PRAGMA workers = -2", "PRAGMA workers = 'many'"} {
		if _, err := s.Exec(bad); err == nil {
			t.Fatalf("%s was accepted", bad)
		}
	}
	// 0 is legal: reset to the per-CPU executor default.
	if _, err := s.Exec("PRAGMA workers = 0"); err != nil {
		t.Fatalf("PRAGMA workers = 0 (reset) rejected: %v", err)
	}

	if _, err := s.Exec("PRAGMA workers = 1"); err != nil {
		t.Fatal(err)
	}
	serial, err := s.Exec("SELECT a + b FROM nums WHERE b % 3 = 0")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Exec("PRAGMA workers = 4"); err != nil {
		t.Fatal(err)
	}
	if got := s.Pragma("workers"); got != "4" {
		t.Fatalf("pragma round-trip = %q", got)
	}
	parallel, err := s.Exec("SELECT a + b FROM nums WHERE b % 3 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel.Rows) != len(serial.Rows) {
		t.Fatalf("workers=4 returned %d rows, workers=1 returned %d", len(parallel.Rows), len(serial.Rows))
	}
	for i := range parallel.Rows {
		if parallel.Rows[i].String() != serial.Rows[i].String() {
			t.Fatalf("row %d differs: %v (workers=4) vs %v (workers=1)", i, parallel.Rows[i], serial.Rows[i])
		}
	}

	// Aggregation goes through the thread-local + combine path.
	agg := func() []string {
		res, err := s.Exec("SELECT b, SUM(a), COUNT(*) FROM nums GROUP BY b")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		return out
	}
	par := agg()
	if _, err := s.Exec("PRAGMA workers = 1"); err != nil {
		t.Fatal(err)
	}
	ser := agg()
	if strings.Join(par, "\n") != strings.Join(ser, "\n") {
		t.Fatalf("grouped aggregate differs between workers settings:\n%s\nvs\n%s",
			strings.Join(par, "\n"), strings.Join(ser, "\n"))
	}
}
