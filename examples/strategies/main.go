// Strategies: the compiler's switches on one view. Part 1 prints the
// combine step (step 2, the paper's Listing 2 upsert) in both target
// dialects; part 2 runs the two empty-group detection modes on a group
// whose SUM legitimately reaches zero and checks what each keeps.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/ivmext"
	"openivm/internal/sqlparser"
)

const viewSQL = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

func main() {
	// Part 1: the combine step in each dialect.
	fmt.Println("== part 1: the combine step (Listing 2) in each dialect ==")
	db := engine.Open("compile-only", engine.DialectDuckDB)
	mustExec(db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	stmt, err := sqlparser.Parse(viewSQL)
	if err != nil {
		log.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateViewStmt)
	for _, dialect := range []duckast.Dialect{duckast.DialectDuckDB, duckast.DialectPostgres} {
		opts := ivm.DefaultOptions()
		opts.Dialect = dialect
		comp, err := ivm.NewCompiler(db, opts).Compile(cv.Name, cv.Select, cv.SourceSQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %s ---\n", dialect)
		for _, line := range strings.Split(comp.PropagateSQL(), ";\n") {
			if strings.Contains(line, "ivm_cte") {
				fmt.Println(strings.TrimSpace(line))
			}
		}
	}

	// Part 2: empty-group detection modes on a zero-sum group.
	fmt.Println("\n== part 2: sum_zero (paper Listing 2) vs hidden_count ==")
	want := map[string][]string{"sum_zero": {"a"}, "hidden_count": {"a", "z"}}
	for _, mode := range []string{"sum_zero", "hidden_count"} {
		db := engine.Open("empty", engine.DialectDuckDB)
		ivmext.Install(db)
		mustExec(db, "PRAGMA ivm_empty='"+mode+"'")
		mustExec(db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
		mustExec(db, "INSERT INTO groups VALUES ('z', 5)")
		mustExec(db, viewSQL)
		mustExec(db, "INSERT INTO groups VALUES ('z', -5), ('a', 1)") // z's SUM legitimately reaches zero
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
		if !slices.Equal(names, want[mode]) {
			log.Fatalf("%s keeps %v, want %v", mode, names, want[mode])
		}
	}
	fmt.Println("\n(sum_zero drops the zero-sum group 'z' — faithful to the paper's")
	fmt.Println(" Listing 2 but unsound for such inputs; hidden_count retains it.)")
	fmt.Println("verified: each empty-group mode keeps the groups it should")
}

func mustExec(db *engine.DB, sql string) {
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(sql); err != nil {
		log.Fatalf("%s\n-> %v", sql, err)
	}
}
