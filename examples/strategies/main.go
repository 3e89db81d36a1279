// Strategies: a walk through the compiler's optimization flags — the
// search space §2 of the paper sketches. The same view is compiled under
// each combine strategy and both empty-group detection modes; the emitted
// SQL is shown side by side and each variant is timed on the same update
// stream, including the group-key index ablation.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/ivmext"
	"openivm/internal/sqlparser"
	"openivm/internal/workload"
)

const viewSQL = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

func main() {
	// Part 1: what each strategy compiles to.
	fmt.Println("== part 1: one view, three combine plans ==")
	db := engine.Open("compile-only", engine.DialectDuckDB)
	mustExec(db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	stmt, err := sqlparser.Parse(viewSQL)
	if err != nil {
		log.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateViewStmt)
	for _, strat := range []ivm.Strategy{
		ivm.StrategyUpsertLeftJoin, ivm.StrategyUnionRegroup, ivm.StrategyFullOuterJoin,
	} {
		opts := ivm.DefaultOptions()
		opts.Strategy = strat
		comp, err := ivm.NewCompiler(db, opts).Compile(cv.Name, cv.Select, cv.SourceSQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s ---\n", strat)
		// Show only the combine step (step 2), the part the flag changes.
		for _, line := range strings.Split(comp.PropagateSQL(), ";\n") {
			l := strings.TrimSpace(line)
			if strings.Contains(l, "ivm_cte") || strings.Contains(l, "UNION ALL") {
				fmt.Println(abbrev(l, 160))
			}
		}
	}

	// Part 2: time the strategies on the same stream.
	fmt.Println("\n== part 2: refresh latency under each strategy ==")
	const rows, groups, deltaRows = 50000, 2000, 500
	for _, strat := range []string{"upsert_left_join", "union_regroup", "full_outer_join"} {
		d := runOnce(rows, groups, deltaRows, "PRAGMA ivm_strategy='"+strat+"'")
		fmt.Printf("%-18s refresh of %d deltas over %d rows: %v\n", strat, deltaRows, rows, d.Round(time.Microsecond))
	}

	// Part 3: the group-key index ablation (paper: DuckDB needs an index to
	// apply upserts; building it costs once, then accelerates refreshes).
	fmt.Println("\n== part 3: index on vs off (union_regroup needs none) ==")
	for _, pragmas := range [][]string{
		{"PRAGMA ivm_strategy='upsert_left_join'", "PRAGMA ivm_index='on'"},
		{"PRAGMA ivm_strategy='union_regroup'", "PRAGMA ivm_index='off'"},
	} {
		d := runOnce(rows, groups, deltaRows, pragmas...)
		fmt.Printf("%-60s refresh: %v\n", strings.Join(pragmas, "; "), d.Round(time.Microsecond))
	}

	// Part 4: empty-group detection modes on a zero-sum group.
	fmt.Println("\n== part 4: sum_zero (paper Listing 2) vs hidden_count ==")
	for _, mode := range []string{"sum_zero", "hidden_count"} {
		db := engine.Open("empty", engine.DialectDuckDB)
		ivmext.Install(db)
		mustExec(db, "PRAGMA ivm_empty='"+mode+"'")
		mustExec(db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
		mustExec(db, "INSERT INTO groups VALUES ('z', 5), ('z', -5)") // legitimate zero sum
		mustExec(db, viewSQL)
		mustExec(db, "INSERT INTO groups VALUES ('a', 1)")
		sess := db.NewSession()
		res, err := sess.Exec("SELECT group_index FROM query_groups ORDER BY group_index")
		sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, r := range res.Rows {
			names = append(names, r[0].S)
		}
		fmt.Printf("%-13s keeps groups: %v\n", mode, names)
	}
	fmt.Println("\n(sum_zero drops the zero-sum group 'z' — faithful to the paper's")
	fmt.Println(" Listing 2 but unsound for such inputs; hidden_count retains it.)")
}

func runOnce(rows, groups, deltaRows int, pragmas ...string) time.Duration {
	db := engine.Open("strategies", engine.DialectDuckDB)
	ivmext.Install(db)
	for _, p := range pragmas {
		mustExec(db, p)
	}
	w := workload.Groups{Rows: rows, NumGroups: groups, Seed: 99}
	if err := w.Load(db); err != nil {
		log.Fatal(err)
	}
	mustExec(db, viewSQL)
	mustExec(db, w.InsertBatch(deltaRows, 7))
	start := time.Now()
	mustExec(db, "REFRESH MATERIALIZED VIEW query_groups")
	return time.Since(start)
}

func mustExec(db *engine.DB, sql string) {
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(sql); err != nil {
		log.Fatalf("%s\n-> %v", sql, err)
	}
}

func abbrev(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + " …"
}
