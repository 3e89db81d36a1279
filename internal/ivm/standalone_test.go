package ivm

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"openivm/internal/engine"
	"openivm/internal/sqltypes"
)

// standaloneSchema is the base table of standaloneViews, one text for
// every target: BIGINT is the engine's INTEGER and PostgreSQL's 64 bits.
const standaloneSchema = "CREATE TABLE t (k VARCHAR, v BIGINT)"

// standaloneViews are the views whose declared columns sit behind a plain
// view over the storage table (AVG, no COUNT(*)) and one without.
var standaloneViews = map[string]string{
	"avg":      "SELECT k, AVG(v) AS m FROM t GROUP BY k",
	"sum_only": "SELECT k, SUM(v) AS s FROM t GROUP BY k",
	"global":   "SELECT SUM(v) AS s FROM t",
	"counted":  "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
}

// TestScriptsRunStandalone runs the compiled scripts the way an exported
// copy runs, on each target of the one text: this engine without the IVM
// extension (standing in for DuckDB) and the PostgreSQL cluster (skipped
// where initdb is not on PATH). It runs the setup, the population, deltas
// written into ΔT by hand with their multiplicities, then the propagation
// script; the view must then read what its query reads on that target,
// under its own name.
func TestScriptsRunStandalone(t *testing.T) {
	for name, query := range standaloneViews {
		for _, on := range []string{"duckdb", "postgres"} {
			t.Run(name+"_"+on, func(t *testing.T) {
				cdb := engine.Open("compile", engine.DialectDuckDB)
				mustRun(t, cdb, standaloneSchema)
				comp := compile(t, cdb, "CREATE MATERIALIZED VIEW v AS "+query)

				var tg target = engineTarget{engine.Open("standalone", engine.DialectDuckDB)}
				if on == "postgres" {
					tg = postgresTarget(t)
				}
				run(t, tg, standaloneSchema)
				run(t, tg, "INSERT INTO t VALUES ('a', 5), ('a', 2), ('b', 0), ('c', 4)")
				run(t, tg, comp.SetupSQL())
				run(t, tg, comp.PopulateSQLText())
				readsQuery(t, tg, "v", query)

				// a nets to 0 and keeps its rows, c empties, d is new.
				run(t, tg, "INSERT INTO t VALUES ('a', -7), ('d', 1)")
				run(t, tg, "DELETE FROM t WHERE k = 'c'")
				run(t, tg, "INSERT INTO delta_t VALUES ('a', -7, TRUE), ('d', 1, TRUE), ('c', 4, FALSE)")
				run(t, tg, comp.PropagateSQL())
				readsQuery(t, tg, "v", query)
			})
		}
	}
}

// target is a system an exported script runs on: this engine or
// PostgreSQL. rows returns a query's rows sorted, each row its fields
// joined by "|"; PostgreSQL's fields are canonical (canonField), so that
// its numeric and the engine's INTEGER and DOUBLE compare as numbers.
type target interface {
	exec(script string) error
	rows(query string) ([]string, error)
}

// engineTarget runs scripts on an engine without the IVM extension.
type engineTarget struct{ db *engine.DB }

func (e engineTarget) exec(script string) error {
	s := e.db.NewSession()
	defer s.Close()
	_, err := s.ExecScript(script)
	return err
}

func (e engineTarget) rows(query string) ([]string, error) {
	r, err := e.db.Exec(query)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		fields := make([]string, len(row))
		for j, v := range row {
			fields[j] = engineField(v)
		}
		out[i] = strings.Join(fields, "|")
	}
	sort.Strings(out)
	return out, nil
}

// engineField renders a value the way psql prints it (see pgNull).
func engineField(v sqltypes.Value) string {
	switch v.T {
	case sqltypes.TypeNull:
		return pgNull
	case sqltypes.TypeBool:
		if v.Bool() {
			return "t"
		}
		return "f"
	}
	return v.String()
}

// pgNull is how psql is told to print NULL, and how engineField prints it.
const pgNull = `\N`

// canonRows puts rows read by a target in canonical form (canonField),
// sorted.
func canonRows(rows []string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		fields := strings.Split(row, "|")
		for j, f := range fields {
			fields[j] = canonField(f)
		}
		out[i] = strings.Join(fields, "|")
	}
	sort.Strings(out)
	return out
}

// canonField compares numbers as numbers: an integral value prints as an
// integer (PostgreSQL prints a numeric SUM or AVG as "5" or
// "5.0000000000000000", the engine a DOUBLE as "5.0"), any other number to
// 12 significant digits.
func canonField(s string) string {
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return s
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 12, 64)
}

func mustRun(t *testing.T, db *engine.DB, script string) {
	t.Helper()
	run(t, engineTarget{db}, script)
}

func run(t *testing.T, tg target, script string) {
	t.Helper()
	if err := tg.exec(script); err != nil {
		t.Fatalf("%s\n-> %v", script, err)
	}
}

func mustRows(t *testing.T, tg target, query string) []string {
	t.Helper()
	rows, err := tg.rows(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return rows
}

// readsQuery checks that SELECT * FROM view returns the rows of query.
func readsQuery(t *testing.T, tg target, view, query string) {
	t.Helper()
	got, want := mustRows(t, tg, "SELECT * FROM "+view), mustRows(t, tg, query)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s reads %q, its query %q", view, got, want)
	}
}
