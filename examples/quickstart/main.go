// Quickstart: the paper's Listing 1 and Listing 2 end to end in one file.
//
// It creates the groups table, defines a materialized SUM view, inspects
// the SQL the compiler emitted, applies inserts and deletes, and shows the
// view staying consistent through incremental maintenance.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
)

func main() {
	// An embedded analytical engine with the OpenIVM extension — the
	// "DuckDB with IVM" configuration of the demo.
	db := engine.Open("quickstart", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	// All statements run on an explicit session — the unit of transaction
	// scope.
	sess := db.NewSession()
	defer sess.Close()

	must := func(sql string) *engine.Result {
		res, err := sess.ExecScript(sql)
		if err != nil {
			log.Fatalf("%s\n-> %v", sql, err)
		}
		return res
	}

	// Paper Listing 1: schema + materialized view definition.
	must(`CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)`)
	must(`INSERT INTO groups VALUES ('apple', 5), ('banana', 2)`)
	must(`CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	        SUM(group_value) AS total_value FROM groups GROUP BY group_index`)

	fmt.Println("== compiled propagation script (paper Listing 2) ==")
	_, prop, err := ext.Scripts("query_groups")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(prop)

	// The paper's worked example: ΔV = {apple -> (false, 3), banana ->
	// (true, 1)} over V = {apple -> 5, banana -> 2} yields {apple -> 2,
	// banana -> 3}.
	must(`DELETE FROM groups WHERE group_index = 'apple' AND group_value = 5`)
	must(`INSERT INTO groups VALUES ('apple', 2), ('banana', 1)`)

	fmt.Println("== view after incremental maintenance ==")
	res := must(`SELECT group_index, total_value FROM query_groups ORDER BY group_index`)
	fmt.Print(res.Format())

	fmt.Printf("\ndeltas captured: %d, propagation runs: %d\n",
		ext.Stats.DeltasCaught, ext.Stats.Propagations)
}
