// Package duckast implements the paper's intermediate operator tree: a
// simplified abstract representation of relational operators ("DuckAST")
// that sits between the engine's logical plan and emitted SQL text. The
// IVM compiler builds these trees and re-emits them as SQL strings in the
// dialect selected by a flag, following the technique of LinkedIn's Coral.
//
// The tree is deliberately simpler than the engine's logical plan: it
// carries SQL fragments by structure (select lists, predicates, joins,
// CTEs) rather than bound expressions, because its purpose is portable
// re-emission, not execution.
package duckast

import (
	"fmt"
	"strings"
)

// Dialect selects the SQL dialect for emission.
type Dialect int

// Dialects supported by the emitter.
const (
	DialectDuckDB Dialect = iota
	DialectPostgres
)

// ParseDialect maps a flag string to a Dialect.
func ParseDialect(s string) (Dialect, error) {
	switch strings.ToLower(s) {
	case "", "duckdb":
		return DialectDuckDB, nil
	case "postgres", "postgresql", "pg":
		return DialectPostgres, nil
	}
	return DialectDuckDB, fmt.Errorf("duckast: unknown dialect %q", s)
}

// String names the dialect.
func (d Dialect) String() string {
	if d == DialectPostgres {
		return "postgres"
	}
	return "duckdb"
}

// Node is any DuckAST operator that can emit itself as SQL.
type Node interface {
	// SQL renders the node in the given dialect.
	SQL(d Dialect) string
}

// Raw is a verbatim SQL fragment (already dialect-neutral).
type Raw struct{ Text string }

// SQL implements Node.
func (r *Raw) SQL(Dialect) string { return r.Text }

// Col is a possibly qualified column reference.
type Col struct {
	Table string
	Name  string
}

// SQL implements Node.
func (c *Col) SQL(Dialect) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Node
	Alias string
}

// CTE is one WITH entry.
type CTE struct {
	Name   string
	Select *Select
}

// Select is a SELECT operator tree.
type Select struct {
	CTEs    []CTE
	Items   []SelectItem
	From    Node // nil = no FROM
	Where   Node
	GroupBy []Node
	Having  Node
}

// SQL implements Node.
func (s *Select) SQL(d Dialect) string {
	var sb strings.Builder
	if len(s.CTEs) > 0 {
		sb.WriteString("WITH ")
		for i, c := range s.CTEs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name + " AS (" + c.Select.SQL(d) + ")")
		}
		sb.WriteString(" ")
	}
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.SQL(d))
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + s.From.SQL(d))
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL(d))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL(d))
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL(d))
	}
	return sb.String()
}

// Insert emits INSERT INTO, with an ON CONFLICT (ConflictKeys) DO UPDATE
// SET clause when Set is not empty: each entry is "col = expr", whose expr
// reads the existing row through the table's name and the inserted one
// through EXCLUDED — PostgreSQL's and DuckDB's spelling alike.
type Insert struct {
	Table        string
	Columns      []string
	Select       *Select
	ConflictKeys []string
	Set          []string
}

// SQL implements Node.
func (ins *Insert) SQL(d Dialect) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + ins.Table)
	if len(ins.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(ins.Columns, ", ") + ")")
	}
	sb.WriteString(" " + ins.Select.SQL(d))
	if len(ins.Set) > 0 {
		sb.WriteString(" ON CONFLICT (" + strings.Join(ins.ConflictKeys, ", ") + ") DO UPDATE SET " + strings.Join(ins.Set, ", "))
	}
	return sb.String()
}

// Delete emits DELETE FROM.
type Delete struct {
	Table string
	Where Node // nil = delete all
}

// SQL implements Node.
func (del *Delete) SQL(d Dialect) string {
	s := "DELETE FROM " + del.Table
	if del.Where != nil {
		s += " WHERE " + del.Where.SQL(d)
	}
	return s
}

// Update emits UPDATE … SET, one "col = expr" per Set entry.
type Update struct {
	Table string
	Set   []string
	Where Node // nil = every row
}

// SQL implements Node.
func (up *Update) SQL(d Dialect) string {
	s := "UPDATE " + up.Table + " SET " + strings.Join(up.Set, ", ")
	if up.Where != nil {
		s += " WHERE " + up.Where.SQL(d)
	}
	return s
}

// CreateTable emits CREATE TABLE with typed columns in dialect spelling.
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string
}

// ColumnDef is a typed column for CreateTable.
type ColumnDef struct {
	Name string
	Type string // logical type name: "VARCHAR", "INTEGER", "DOUBLE", "BOOLEAN"
}

// SQL implements Node.
func (ct *CreateTable) SQL(d Dialect) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if ct.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(ct.Name + " (")
	for i, c := range ct.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + typeName(c.Type, d))
	}
	if len(ct.PrimaryKey) > 0 {
		sb.WriteString(", PRIMARY KEY (" + strings.Join(ct.PrimaryKey, ", ") + ")")
	}
	sb.WriteString(")")
	return sb.String()
}

func typeName(t string, d Dialect) string {
	if d == DialectPostgres {
		switch strings.ToUpper(t) {
		case "VARCHAR":
			return "TEXT"
		case "DOUBLE":
			return "DOUBLE PRECISION"
		}
	}
	return strings.ToUpper(t)
}

// Script is an ordered list of statements emitted with ';' terminators.
type Script struct{ Stmts []Node }

// SQL implements Node.
func (s *Script) SQL(d Dialect) string {
	var sb strings.Builder
	for _, st := range s.Stmts {
		sb.WriteString(st.SQL(d))
		sb.WriteString(";\n")
	}
	return sb.String()
}

// Add appends statements.
func (s *Script) Add(stmts ...Node) { s.Stmts = append(s.Stmts, stmts...) }
