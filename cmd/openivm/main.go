// Command openivm is the standalone SQL-to-SQL compiler: it reads a
// database schema and a CREATE MATERIALIZED VIEW definition and prints
// the generated delta DDL, initial population script and 4-step
// propagation script — the paper's compiler used as a command-line tool.
//
// Usage:
//
//	openivm -schema schema.sql -view view.sql [flags]
//	openivm -demo                     # compile the paper's Listing 1
//
// Flags mirror the paper's compiler switches:
//
//	-dialect duckdb|postgres   target SQL dialect for emission
//	-strategy upsert_left_join|union_regroup|full_outer_join
//	-empty sum_zero|hidden_count
//	-no-index                  skip the group-key index
package main

import (
	"flag"
	"fmt"
	"os"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "path to a SQL file with CREATE TABLE statements")
		viewPath   = flag.String("view", "", "path to a SQL file with one CREATE MATERIALIZED VIEW")
		dialect    = flag.String("dialect", "duckdb", "emission dialect: duckdb | postgres")
		strategy   = flag.String("strategy", "upsert_left_join", "combine strategy: upsert_left_join | union_regroup | full_outer_join")
		empty      = flag.String("empty", "sum_zero", "empty-group detection: sum_zero | hidden_count")
		noIndex    = flag.Bool("no-index", false, "do not create the group-key index")
		demo       = flag.Bool("demo", false, "compile the paper's Listing 1 example")
	)
	flag.Parse()

	if err := run(*schemaPath, *viewPath, *dialect, *strategy, *empty, *noIndex, *demo); err != nil {
		fmt.Fprintln(os.Stderr, "openivm:", err)
		os.Exit(1)
	}
}

func run(schemaPath, viewPath, dialect, strategy, empty string, noIndex, demo bool) error {
	var schemaSQL, viewSQL string
	switch {
	case demo:
		schemaSQL = "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
		viewSQL = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
			SUM(group_value) AS total_value FROM groups GROUP BY group_index`
	case schemaPath != "" && viewPath != "":
		sb, err := os.ReadFile(schemaPath)
		if err != nil {
			return err
		}
		vb, err := os.ReadFile(viewPath)
		if err != nil {
			return err
		}
		schemaSQL, viewSQL = string(sb), string(vb)
	default:
		return fmt.Errorf("need -schema and -view, or -demo (see -h)")
	}

	opts := ivm.DefaultOptions()
	var err error
	if opts.Dialect, err = duckast.ParseDialect(dialect); err != nil {
		return err
	}
	if opts.Strategy, err = ivm.ParseStrategy(strategy); err != nil {
		return err
	}
	if opts.Empty, err = ivm.ParseEmptyDetection(empty); err != nil {
		return err
	}
	opts.CreateIndex = !noIndex

	// "DuckDB inside OpenIVM": an embedded engine instance provides the
	// parser, binder and planner the compiler needs.
	db := engine.Open("openivm", engine.DialectDuckDB)
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.ExecScript(schemaSQL); err != nil {
		return fmt.Errorf("loading schema: %w", err)
	}

	stmt, err := sqlparser.Parse(viewSQL)
	if err != nil {
		return fmt.Errorf("parsing view: %w", err)
	}
	cv, ok := stmt.(*sqlparser.CreateViewStmt)
	if !ok || !cv.Materialized {
		return fmt.Errorf("the view file must contain one CREATE MATERIALIZED VIEW statement")
	}

	comp, err := ivm.NewCompiler(db, opts).Compile(cv.Name, cv.Select, cv.SourceSQL)
	if err != nil {
		return err
	}

	fmt.Printf("-- OpenIVM compilation of view %q (class: %s, dialect: %s, strategy: %s)\n",
		comp.ViewName, comp.Class, opts.Dialect, opts.Strategy)
	fmt.Println("\n-- === setup DDL (delta tables, view table, indexes) ===")
	fmt.Print(comp.SetupSQL())
	fmt.Println("\n-- === initial population ===")
	fmt.Print(comp.PopulateSQLText())
	fmt.Println("\n-- === propagation script (run after filling the delta tables) ===")
	fmt.Print(comp.PropagateSQL())
	return nil
}
