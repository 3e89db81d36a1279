package ivm

import (
	"sort"
	"strings"
	"testing"

	"openivm/internal/duckast"
	"openivm/internal/engine"
)

// TestScriptsRunStandalone runs the compiled scripts the way an exported
// copy runs, in a fresh engine without the IVM extension: the setup, the
// population, deltas written into ΔT by hand with their multiplicities,
// then the propagation script. The view must then read what its query
// reads, under its own name, for views whose declared columns sit behind a
// plain view over the storage table (AVG, no COUNT(*)) and one without.
func TestScriptsRunStandalone(t *testing.T) {
	const schema = "CREATE TABLE t (k VARCHAR, v INTEGER)"
	views := map[string]string{
		"avg":      "SELECT k, AVG(v) AS m FROM t GROUP BY k",
		"sum_only": "SELECT k, SUM(v) AS s FROM t GROUP BY k",
		"global":   "SELECT SUM(v) AS s FROM t",
		"counted":  "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
	}
	for name, query := range views {
		for _, dialect := range []duckast.Dialect{duckast.DialectDuckDB, duckast.DialectPostgres} {
			t.Run(name+"_"+dialect.String(), func(t *testing.T) {
				cdb := engine.Open("compile", engine.DialectDuckDB)
				mustRun(t, cdb, schema)
				opts := DefaultOptions()
				opts.Dialect = dialect
				comp := compile(t, cdb, opts, "CREATE MATERIALIZED VIEW v AS "+query)

				edb := engine.Open("standalone", engine.DialectDuckDB)
				if dialect == duckast.DialectPostgres {
					edb = engine.Open("standalone", engine.DialectPostgres)
				}
				mustRun(t, edb, schema)
				mustRun(t, edb, "INSERT INTO t VALUES ('a', 5), ('a', 2), ('b', 0), ('c', 4)")
				mustRun(t, edb, comp.SetupSQL())
				mustRun(t, edb, comp.PopulateSQLText())
				readsQuery(t, edb, query)

				// a nets to 0 and keeps its rows, c empties, d is new.
				mustRun(t, edb, "INSERT INTO t VALUES ('a', -7), ('d', 1)")
				mustRun(t, edb, "DELETE FROM t WHERE k = 'c'")
				mustRun(t, edb, "INSERT INTO delta_t VALUES ('a', -7, TRUE), ('d', 1, TRUE), ('c', 4, FALSE)")
				mustRun(t, edb, comp.PropagateSQL())
				readsQuery(t, edb, query)
			})
		}
	}
}

func mustRun(t *testing.T, db *engine.DB, script string) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(script); err != nil {
		t.Fatalf("%s\n-> %v", script, err)
	}
}

// readsQuery checks that SELECT * FROM v returns the rows of query.
func readsQuery(t *testing.T, db *engine.DB, query string) {
	t.Helper()
	rows := func(sql string) string {
		r, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var out []string
		for _, row := range r.Rows {
			out = append(out, row.String())
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	if got, want := rows("SELECT * FROM v"), rows(query); got != want {
		t.Errorf("view reads %q, its query %q", got, want)
	}
}
