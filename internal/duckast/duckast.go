// Package duckast implements the paper's intermediate operator tree: a
// simplified abstract representation of relational operators ("DuckAST")
// that sits between the engine's logical plan and emitted SQL text. The
// IVM compiler builds these trees and re-emits them as SQL strings,
// following the technique of LinkedIn's Coral. There is one text for both
// targets: every statement is spelled the way DuckDB and PostgreSQL both
// accept, and the type names are the ones both know (see typeName).
//
// The tree is deliberately simpler than the engine's logical plan: it
// carries SQL fragments by structure (select lists, predicates, joins)
// rather than bound expressions, because its purpose is portable
// re-emission, not execution.
package duckast

import "strings"

// Node is any DuckAST operator that can emit itself as SQL.
type Node interface {
	// SQL renders the node.
	SQL() string
}

// Raw is a verbatim SQL fragment.
type Raw struct{ Text string }

// SQL implements Node.
func (r *Raw) SQL() string { return r.Text }

// Col is a possibly qualified column reference.
type Col struct {
	Table string
	Name  string
}

// SQL implements Node.
func (c *Col) SQL() string {
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

// Select is a SELECT operator tree.
type Select struct {
	Items   []SelectItem
	From    Node // nil = no FROM
	Where   Node
	GroupBy []Node
	Having  Node
}

// SQL implements Node.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM " + s.From.SQL())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.SQL())
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
func (ins *Insert) SQL() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + ins.Table)
	if len(ins.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(ins.Columns, ", ") + ")")
	}
	sb.WriteString(" " + ins.Select.SQL())
	if len(ins.Set) > 0 {
		sb.WriteString(" ON CONFLICT (" + strings.Join(ins.ConflictKeys, ", ") + ") DO UPDATE SET " + strings.Join(ins.Set, ", "))
	}
	return sb.String()
}

// Delete emits DELETE FROM, with the FROM item Using as its USING clause
// when set.
type Delete struct {
	Table string
	Using Node
	Where Node // nil = delete all
}

// SQL implements Node.
func (del *Delete) SQL() string {
	s := "DELETE FROM " + del.Table
	if del.Using != nil {
		s += " USING " + del.Using.SQL()
	}
	if del.Where != nil {
		s += " WHERE " + del.Where.SQL()
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
func (up *Update) SQL() string {
	s := "UPDATE " + up.Table + " SET " + strings.Join(up.Set, ", ")
	if up.Where != nil {
		s += " WHERE " + up.Where.SQL()
	}
	return s
}

// CreateTable emits CREATE TABLE with typed columns.
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	// Key is declared UNIQUE NULLS NOT DISTINCT: unlike a PRIMARY KEY it
	// admits NULLs, and two NULLs are equal under it.
	Key []string
}

// ColumnDef is a typed column for CreateTable.
type ColumnDef struct {
	Name string
	Type string // logical type name: "VARCHAR", "INTEGER", "DOUBLE", "BOOLEAN"
}

// SQL implements Node.
func (ct *CreateTable) SQL() string {
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
		sb.WriteString(c.Name + " " + typeName(c.Type))
	}
	if len(ct.Key) > 0 {
		sb.WriteString(", UNIQUE NULLS NOT DISTINCT (" + strings.Join(ct.Key, ", ") + ")")
	}
	sb.WriteString(")")
	return sb.String()
}

// typeName spells an engine type the way both targets read it: the
// engine's 64-bit INTEGER is BIGINT (INTEGER is 32 bits on DuckDB and
// PostgreSQL), DOUBLE is DOUBLE PRECISION (PostgreSQL has no DOUBLE).
func typeName(t string) string {
	switch t = strings.ToUpper(t); t {
	case "INTEGER":
		return "BIGINT"
	case "DOUBLE":
		return "DOUBLE PRECISION"
	}
	return t
}

// Script is an ordered list of statements emitted with ';' terminators.
type Script struct{ Stmts []Node }

// SQL implements Node.
func (s *Script) SQL() string {
	var sb strings.Builder
	for _, st := range s.Stmts {
		sb.WriteString(st.SQL())
		sb.WriteString(";\n")
	}
	return sb.String()
}

// Add appends statements.
func (s *Script) Add(stmts ...Node) { s.Stmts = append(s.Stmts, stmts...) }
