// Command openivm is the standalone SQL-to-SQL compiler: it reads a
// database schema and a CREATE MATERIALIZED VIEW definition and prints
// the generated delta DDL, initial population script and
// propagation script — the paper's compiler used as a command-line tool.
//
// Usage:
//
//	openivm -schema schema.sql -view view.sql [flags]
//	openivm -demo                     # compile the paper's Listing 1
//
// The scripts are one text that DuckDB and PostgreSQL both run.
package main

import (
	"flag"
	"fmt"
	"os"

	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "path to a SQL file with CREATE TABLE statements")
		viewPath   = flag.String("view", "", "path to a SQL file with one CREATE MATERIALIZED VIEW")
		demo       = flag.Bool("demo", false, "compile the paper's Listing 1 example")
	)
	flag.Parse()

	if err := run(*schemaPath, *viewPath, *demo); err != nil {
		fmt.Fprintln(os.Stderr, "openivm:", err)
		os.Exit(1)
	}
}

func run(schemaPath, viewPath string, demo bool) error {
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

	comp, err := ivm.NewCompiler(db, ivm.DefaultOptions()).Compile(cv.Name, cv.Select, cv.SourceSQL)
	if err != nil {
		return err
	}

	fmt.Printf("-- OpenIVM compilation of view %q (class: %s)\n", comp.ViewName, comp.Class)
	fmt.Println("\n-- === setup DDL (delta tables, view table, indexes) ===")
	fmt.Print(comp.SetupSQL())
	fmt.Println("\n-- === initial population ===")
	fmt.Print(comp.PopulateSQLText())
	fmt.Println("\n-- === propagation script (run after filling the delta tables, in one transaction) ===")
	fmt.Print(comp.PropagateSQL())
	return nil
}
