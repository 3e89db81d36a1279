package sqlparser

import (
	"strconv"
	"strings"

	"openivm/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// ColumnRef is a possibly qualified column reference (t.a or a), or a star
// (t.* or *) when Star is set.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
	Star   bool
}

// Literal is a constant value.
type Literal struct{ Value sqltypes.Value }

// BinaryExpr is a binary operation. Op is one of:
// + - * / % = <> < <= > >= AND OR LIKE || IS DISTINCT FROM,
// IS NOT DISTINCT FROM.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT x or -x (Op "NOT" or "-").
type UnaryExpr struct {
	Op      string
	Operand Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// InExpr is x [NOT] IN (e1, e2, ...). NullSafe, which only DELETE … USING
// sets, compares as IS NOT DISTINCT FROM: a NULL matches a NULL.
type InExpr struct {
	Operand  Expr
	List     []Expr
	Negate   bool
	NullSafe bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil -> NULL
}

// CaseWhen is one WHEN/THEN arm of a CaseExpr.
type CaseWhen struct{ When, Then Expr }

// FuncExpr is a function call: aggregates (SUM, COUNT, MIN, MAX, AVG) and
// scalar functions (COALESCE, ABS, ...). Name is upper-cased.
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

// CastExpr is CAST(e AS type) or e::type.
type CastExpr struct {
	Operand  Expr
	TypeName string
}

// SubqueryExpr is a scalar subquery (SELECT ...) used as an expression.
type SubqueryExpr struct{ Select *SelectStmt }

// RowExpr is a row value (e1, e2, ...) of two or more items. It is accepted
// only as the left operand of IN (SELECT ...): (a, b) IN (SELECT x, y ...).
type RowExpr struct{ Items []Expr }

// ParamExpr is a positional statement parameter ($1, $2, ...) bound with a
// value per execution: one the user names (wire prepared statements), or a
// literal the lexer lifted out of the text (Lift), whose kind Type keeps.
// Index is 1-based.
type ParamExpr struct {
	Index int
	Type  sqltypes.Type // TypeNull, which no lifted literal has, for a $N the user binds
}

// ValuesParam is a VALUES list the lexer lifted out of the text: its rows
// are the execution's Index-th (1-based) list of rows, each typed as Types.
type ValuesParam struct {
	Index int
	Types []sqltypes.Type
}

func (*ColumnRef) expr()    {}
func (*Literal) expr()      {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*IsNullExpr) expr()   {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*CaseExpr) expr()     {}
func (*FuncExpr) expr()     {}
func (*CastExpr) expr()     {}
func (*SubqueryExpr) expr() {}
func (*RowExpr) expr()      {}
func (*ParamExpr) expr()    {}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
}

// TableRef is an element of the FROM clause.
type TableRef interface{ tableRef() }

// NamedTable references a catalog table or view, optionally aliased.
type NamedTable struct {
	Schema string // optional, e.g. pg.public
	Name   string
	Alias  string
}

// SubqueryTable is a derived table (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

// SeriesTable is generate_series(Lo, Hi) [AS Alias] in FROM: one row per
// integer from Lo through Hi. Its arguments may read the columns of the
// FROM items to its left, as PostgreSQL's functions in FROM may.
type SeriesTable struct {
	Lo, Hi Expr
	Alias  string
}

// JoinTable is an explicit join between two table refs.
type JoinTable struct {
	Kind  JoinKind
	Left  TableRef
	Right TableRef
	On    Expr     // nil for CROSS or USING
	Using []string // non-empty for USING(...)
}

// JoinKind enumerates join flavours.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

func (*NamedTable) tableRef()    {}
func (*SubqueryTable) tableRef() {}
func (*SeriesTable) tableRef()   {}
func (*JoinTable) tableRef()     {}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CTE is one WITH-clause entry.
type CTE struct {
	Name   string
	Select *SelectStmt
}

// SetOp connects a SelectStmt to the next term of a set operation chain.
type SetOp uint8

// Set operations.
const (
	SetNone SetOp = iota
	SetUnion
	SetUnionAll
	SetExcept
	SetExceptAll
	SetIntersect
)

// SelectStmt is a SELECT query, possibly a VALUES list, possibly the head
// of a set-operation chain (Next/NextOp).
type SelectStmt struct {
	CTEs     []CTE
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil = SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr
	// Values is set for a VALUES (...),(...) "select"; Items/From unused.
	// ValuesParam is set instead when the list was lifted out of the text.
	Values      [][]Expr
	ValuesParam *ValuesParam
	// Set-operation chain: this SELECT <NextOp> Next.
	NextOp SetOp
	Next   *SelectStmt
}

func (*SelectStmt) stmt() {}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ColumnDef is a column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	TypeName   string
	Type       sqltypes.Type
	NotNull    bool
	PrimaryKey bool
	Default    Expr
}

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (cols..., [PRIMARY
// KEY (...) | UNIQUE NULLS NOT DISTINCT (...)]).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // the key's columns, column-level or table-level
	AsSelect    *SelectStmt
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table(cols).
type CreateIndexStmt struct {
	Name        string
	Table       string
	Columns     []string
	Unique      bool
	IfNotExists bool
}

// CreateViewStmt is CREATE [MATERIALIZED] VIEW name AS select.
type CreateViewStmt struct {
	Name         string
	Materialized bool
	Select       *SelectStmt
	// SourceSQL preserves the original view definition text so the IVM
	// compiler can store it in metadata.
	SourceSQL string
}

// DropStmt is DROP TABLE|VIEW|INDEX [IF EXISTS] name.
type DropStmt struct {
	Kind     string // "TABLE", "VIEW", "INDEX"
	Name     string
	IfExists bool
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*CreateViewStmt) stmt()  {}
func (*DropStmt) stmt()        {}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// OnConflict describes the conflict clause INSERT … ON CONFLICT, spelled
// alike in PostgreSQL and DuckDB.
type OnConflict struct {
	Columns   []string // conflict target
	DoNothing bool
	// Set assignments for DO UPDATE SET col = expr (EXCLUDED.col allowed).
	Set []Assignment
}

// Assignment is col = expr in UPDATE / DO UPDATE SET.
type Assignment struct {
	Column string
	Value  Expr
}

// InsertStmt is INSERT [OR REPLACE] INTO t [(cols)] VALUES ... | SELECT ...
// with an optional ON CONFLICT clause.
type InsertStmt struct {
	Table     string
	Columns   []string
	Select    *SelectStmt // VALUES lists parse into Select.Values
	OrReplace bool        // DuckDB dialect INSERT OR REPLACE
	Conflict  *OnConflict
}

// UpdateStmt is UPDATE t SET a=e, ... [WHERE p].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// DeleteStmt is DELETE FROM t [USING (SELECT …) AS a] [WHERE p] (see usingIn).
type DeleteStmt struct {
	Table string
	Where Expr
}

// TruncateStmt is TRUNCATE [TABLE] t  (also parsed from DELETE FROM t with
// no WHERE by some engines; we keep them distinct).
type TruncateStmt struct{ Table string }

func (*InsertStmt) stmt()   {}
func (*UpdateStmt) stmt()   {}
func (*DeleteStmt) stmt()   {}
func (*TruncateStmt) stmt() {}

// ---------------------------------------------------------------------------
// Misc statements
// ---------------------------------------------------------------------------

// BeginStmt, CommitStmt, RollbackStmt are transaction control.
type BeginStmt struct{}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt aborts the current transaction.
type RollbackStmt struct{}

// ExplainStmt wraps another statement for plan display.
type ExplainStmt struct{ Stmt Statement }

// RefreshStmt is REFRESH MATERIALIZED VIEW name — triggers lazy IVM
// propagation.
type RefreshStmt struct{ View string }

// CreateTriggerStmt is the minimal PostgreSQL-style trigger DDL used by the
// OLTP engine for delta capture:
//
//	CREATE TRIGGER name AFTER INSERT OR DELETE OR UPDATE ON table
//	FOR EACH ROW EXECUTE 'handler'
type CreateTriggerStmt struct {
	Name    string
	Table   string
	Events  []string // subset of INSERT, DELETE, UPDATE
	Handler string   // engine-registered handler key
}

func (*BeginStmt) stmt()         {}
func (*CommitStmt) stmt()        {}
func (*RollbackStmt) stmt()      {}
func (*ExplainStmt) stmt()       {}
func (*RefreshStmt) stmt()       {}
func (*CreateTriggerStmt) stmt() {}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// WalkExpr visits e and all sub-expressions depth-first; fn returning false
// stops descent into that subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *UnaryExpr:
		WalkExpr(x.Operand, fn)
	case *IsNullExpr:
		WalkExpr(x.Operand, fn)
	case *InExpr:
		WalkExpr(x.Operand, fn)
		for _, it := range x.List {
			WalkExpr(it, fn)
		}
	case *RowExpr:
		for _, it := range x.Items {
			WalkExpr(it, fn)
		}
	case *BetweenExpr:
		WalkExpr(x.Operand, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *CaseExpr:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.When, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *FuncExpr:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *CastExpr:
		WalkExpr(x.Operand, fn)
	}
}

// Conjuncts flattens e's top-level ANDs into their operands, left to right.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// ExprString renders an expression back to SQL. It is used for error
// messages, display names of computed columns, and by the duckast emitter.
func ExprString(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case nil:
		sb.WriteString("NULL")
	case *ColumnRef:
		if x.Table != "" {
			sb.WriteString(x.Table)
			sb.WriteByte('.')
		}
		if x.Star {
			sb.WriteByte('*')
		} else {
			sb.WriteString(x.Column)
		}
	case *Literal:
		sb.WriteString(x.Value.SQLLiteral())
	case *BinaryExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.Left)
		sb.WriteByte(' ')
		sb.WriteString(x.Op)
		sb.WriteByte(' ')
		writeExpr(sb, x.Right)
		sb.WriteByte(')')
	case *UnaryExpr:
		if x.Op == "NOT" {
			sb.WriteString("(NOT ")
		} else {
			sb.WriteString("(" + x.Op)
		}
		writeExpr(sb, x.Operand)
		sb.WriteByte(')')
	case *IsNullExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.Operand)
		if x.Negate {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case *InExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.Operand)
		if x.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, it := range x.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, it)
		}
		sb.WriteString("))")
	case *BetweenExpr:
		sb.WriteByte('(')
		writeExpr(sb, x.Operand)
		if x.Negate {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		writeExpr(sb, x.Lo)
		sb.WriteString(" AND ")
		writeExpr(sb, x.Hi)
		sb.WriteByte(')')
	case *CaseExpr:
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteByte(' ')
			writeExpr(sb, x.Operand)
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN ")
			writeExpr(sb, w.When)
			sb.WriteString(" THEN ")
			writeExpr(sb, w.Then)
		}
		if x.Else != nil {
			sb.WriteString(" ELSE ")
			writeExpr(sb, x.Else)
		}
		sb.WriteString(" END")
	case *FuncExpr:
		sb.WriteString(x.Name)
		sb.WriteByte('(')
		if x.Star {
			sb.WriteByte('*')
		} else {
			if x.Distinct {
				sb.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				writeExpr(sb, a)
			}
		}
		sb.WriteByte(')')
	case *CastExpr:
		sb.WriteString("CAST(")
		writeExpr(sb, x.Operand)
		sb.WriteString(" AS ")
		sb.WriteString(x.TypeName)
		sb.WriteByte(')')
	case *SubqueryExpr:
		sb.WriteString("(<subquery>)")
	case *RowExpr:
		sb.WriteByte('(')
		for i, it := range x.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, it)
		}
		sb.WriteByte(')')
	case *ParamExpr:
		sb.WriteByte('$')
		sb.WriteString(strconv.Itoa(x.Index))
	default:
		sb.WriteString("<expr>")
	}
}

// DisplayName derives the output column name for an unaliased select item,
// mirroring DuckDB: bare column refs use the column name, everything else
// uses the rendered expression.
func DisplayName(e Expr) string {
	if c, ok := e.(*ColumnRef); ok && !c.Star {
		return c.Column
	}
	if f, ok := e.(*FuncExpr); ok {
		return strings.ToLower(ExprString(f))
	}
	return ExprString(e)
}
