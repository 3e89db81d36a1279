// Strategies: the compiler's one switch, the target dialect, on one view.
// It prints the combine step (step 2, the paper's Listing 2 upsert) in
// both dialects and checks that each uses its dialect's upsert.
//
//	go run ./examples/strategies
package main

import (
	"fmt"
	"log"
	"strings"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

const viewSQL = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

func main() {
	db := engine.Open("compile-only", engine.DialectDuckDB)
	mustExec(db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	stmt, err := sqlparser.Parse(viewSQL)
	if err != nil {
		log.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateViewStmt)
	const upsert = "ON CONFLICT (group_index) DO UPDATE SET"
	combines := map[duckast.Dialect]string{}
	for _, dialect := range []duckast.Dialect{duckast.DialectDuckDB, duckast.DialectPostgres} {
		opts := ivm.DefaultOptions()
		opts.Dialect = dialect
		comp, err := ivm.NewCompiler(db, opts).Compile(cv.Name, cv.Select, cv.SourceSQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- the combine step (Listing 2), %s ---\n", dialect)
		for _, line := range strings.Split(comp.PropagateSQL(), ";\n") {
			if strings.Contains(line, "ivm_cte") {
				combines[dialect] = strings.TrimSpace(line)
				fmt.Println(combines[dialect])
			}
		}
		if !strings.Contains(combines[dialect], upsert) {
			log.Fatalf("%s combine lacks %q", dialect, upsert)
		}
	}
	if combines[duckast.DialectDuckDB] != combines[duckast.DialectPostgres] {
		log.Fatal("the dialects' combine steps differ")
	}
	fmt.Println("verified: both dialects fold the delta into V with one ON CONFLICT upsert")
}

func mustExec(db *engine.DB, sql string) {
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(sql); err != nil {
		log.Fatalf("%s\n-> %v", sql, err)
	}
}
