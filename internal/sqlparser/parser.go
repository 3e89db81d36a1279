package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"openivm/internal/enginerr"
	"openivm/internal/sqltypes"
)

// Parser is a recursive-descent SQL parser with Pratt expression parsing.
type Parser struct {
	src  string
	toks []Token
	pos  int
	// params and rows are the values of a lifted statement's slots
	// (Lifted.Parse), which give its ParamExprs and ValuesParams their kinds.
	params []sqltypes.Value
	rows   [][]sqltypes.Row
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.skipSemis()
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(sql string) ([]Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		p.skipSemis()
		if p.atEOF() {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
}

func newParser(sql string) (*Parser, error) {
	toks, err := Tokenize(sql)
	if err != nil {
		return nil, err
	}
	return &Parser{src: sql, toks: toks}, nil
}

// --- token helpers ---

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) skipSemis() {
	for p.isOp(";") {
		p.pos++
	}
}
func (p *Parser) save() int     { return p.pos }
func (p *Parser) restore(m int) { p.pos = m }

func (p *Parser) isKw(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) isOp(op string) bool {
	t := p.peek()
	return t.Kind == TokOp && t.Text == op
}

func (p *Parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

// ident accepts an identifier or any keyword usable as an identifier in
// non-reserved position (SQL is permissive here; our emitters only quote
// when required).
func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.pos++
		return t.Text, nil
	}
	// Allow soft keywords as identifiers (e.g. a column named "key" or a
	// function named count in expression position is handled elsewhere).
	if t.Kind == TokKeyword {
		switch t.Text {
		case "KEY", "ROW", "OF", "DO", "ALL", "REPLACE", "COUNT", "SUM", "MIN", "MAX", "AVG", "SET", "VALUES", "INDEX", "VIEW", "TABLE", "TRIGGER", "AFTER", "EXECUTE", "COALESCE":
			p.pos++
			return strings.ToLower(t.Text), nil
		}
	}
	return "", p.errorf("expected identifier, got %q", t.Text)
}

func (p *Parser) errorf(format string, args ...any) error {
	pos := p.peek().Pos
	line := 1 + strings.Count(p.src[:min(pos, len(p.src))], "\n")
	return enginerr.Newf(enginerr.CodeSyntaxError, "sqlparser: line %d (offset %d): %s", line, pos, fmt.Sprintf(format, args...))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- statements ---

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT", "WITH", "VALUES":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "TRUNCATE":
		p.pos++
		p.acceptKw("TABLE")
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &TruncateStmt{Table: name}, nil
	case "BEGIN":
		p.pos++
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		return &RollbackStmt{}, nil
	case "EXPLAIN":
		p.pos++
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	case "REFRESH":
		p.pos++
		p.acceptKw("MATERIALIZED")
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &RefreshStmt{View: name}, nil
	}
	return nil, p.errorf("unsupported statement %q", t.Text)
}

func (p *Parser) qualifiedName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	for p.acceptOp(".") {
		part, err := p.ident()
		if err != nil {
			return "", err
		}
		name = name + "." + part
	}
	return name, nil
}

// --- CREATE ---

func (p *Parser) parseCreate() (Statement, error) {
	start := p.peek().Pos
	p.pos++ // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.acceptKw("TABLE"):
		return p.parseCreateTable()
	case p.acceptKw("INDEX"):
		return p.parseCreateIndex(unique)
	case unique:
		return nil, p.errorf("UNIQUE only valid for CREATE INDEX")
	case p.isKw("MATERIALIZED") || p.isKw("VIEW"):
		mat := p.acceptKw("MATERIALIZED")
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		selStart := p.peek().Pos
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		end := p.peek().Pos
		if p.atEOF() {
			end = len(p.src)
		}
		return &CreateViewStmt{
			Name: name, Materialized: mat, Select: sel,
			SourceSQL: strings.TrimRight(strings.TrimSpace(p.src[selStart:end]), ";"),
		}, nil
	case p.acceptKw("TRIGGER"):
		return p.parseCreateTrigger()
	}
	_ = start
	return nil, p.errorf("unsupported CREATE %q", p.peek().Text)
}

func (p *Parser) parseCreateTable() (Statement, error) {
	st := &CreateTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if p.acceptKw("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.AsSelect = sel
		return st, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		// A table-level PRIMARY KEY (…) or UNIQUE NULLS NOT DISTINCT (…) is
		// the table's key. Either admits a NULL, and two NULLs are equal
		// under it, as PostgreSQL's NULLS NOT DISTINCT makes them.
		if key, err := p.tableKeyClause(); err != nil {
			return nil, err
		} else if key {
			if len(st.PrimaryKey) > 0 {
				return nil, p.errorf("a table has one key")
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.PrimaryKey = append(st.PrimaryKey, col)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if col.PrimaryKey {
				st.PrimaryKey = append(st.PrimaryKey, col.Name)
			}
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// tableKeyClause accepts PRIMARY KEY or UNIQUE NULLS NOT DISTINCT, the
// words before a table key's column list.
func (p *Parser) tableKeyClause() (bool, error) {
	switch {
	case p.acceptKw("PRIMARY"):
		return true, p.expectKw("KEY")
	case p.acceptKw("UNIQUE"):
		if t := p.next(); t.Kind != TokIdent || !strings.EqualFold(t.Text, "NULLS") {
			p.pos--
			return false, p.errorf("expected NULLS NOT DISTINCT after UNIQUE, got %q", t.Text)
		}
		if err := p.expectKw("NOT"); err != nil {
			return false, err
		}
		return true, p.expectKw("DISTINCT")
	}
	return false, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	tn, err := p.typeName()
	if err != nil {
		return cd, err
	}
	cd.TypeName = tn
	ty, err := sqltypes.ParseType(tn)
	if err != nil {
		return cd, p.errorf("%v", err)
	}
	cd.Type = ty
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.acceptKw("NULL"):
			// explicit nullable; no-op
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		case p.acceptKw("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return cd, err
			}
			cd.Default = e
		default:
			return cd, nil
		}
	}
}

// typeName consumes a SQL type, tolerating parameterized forms like
// DECIMAL(10,2) and two-word forms like DOUBLE PRECISION.
func (p *Parser) typeName() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return "", p.errorf("expected type name, got %q", t.Text)
	}
	p.pos++
	name := t.Text
	if strings.EqualFold(name, "DOUBLE") {
		if p.peek().Kind == TokIdent && strings.EqualFold(p.peek().Text, "PRECISION") {
			p.pos++
		}
		return "DOUBLE", nil
	}
	if p.acceptOp("(") {
		for !p.acceptOp(")") {
			if p.atEOF() {
				return "", p.errorf("unterminated type parameters")
			}
			p.pos++
		}
	}
	return name, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	st := &CreateIndexStmt{Unique: unique}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = tbl
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseCreateTrigger() (Statement, error) {
	st := &CreateTriggerStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKw("AFTER"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKw("INSERT"):
			st.Events = append(st.Events, "INSERT")
		case p.acceptKw("DELETE"):
			st.Events = append(st.Events, "DELETE")
		case p.acceptKw("UPDATE"):
			st.Events = append(st.Events, "UPDATE")
		default:
			return nil, p.errorf("expected trigger event, got %q", p.peek().Text)
		}
		if !p.acceptKw("OR") {
			break
		}
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	tbl, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = tbl
	if err := p.expectKw("FOR"); err != nil {
		return nil, err
	}
	if err := p.expectKw("EACH"); err != nil {
		return nil, err
	}
	if err := p.expectKw("ROW"); err != nil {
		return nil, err
	}
	if err := p.expectKw("EXECUTE"); err != nil {
		return nil, err
	}
	h := p.peek()
	if h.Kind != TokString {
		return nil, p.errorf("expected handler string, got %q", h.Text)
	}
	p.pos++
	st.Handler = h.Text
	return st, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	var kind string
	switch {
	case p.acceptKw("TABLE"):
		kind = "TABLE"
	case p.acceptKw("VIEW"):
		kind = "VIEW"
	case p.acceptKw("INDEX"):
		kind = "INDEX"
	case p.acceptKw("MATERIALIZED"):
		if err := p.expectKw("VIEW"); err != nil {
			return nil, err
		}
		kind = "VIEW"
	default:
		return nil, p.errorf("unsupported DROP %q", p.peek().Text)
	}
	st := &DropStmt{Kind: kind}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

// --- DML ---

func (p *Parser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	st := &InsertStmt{}
	if p.acceptKw("OR") {
		if err := p.expectKw("REPLACE"); err != nil {
			return nil, err
		}
		st.OrReplace = true
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.isOp("(") {
		// Could be a column list or a parenthesized SELECT; distinguish by
		// lookahead for SELECT/VALUES/WITH.
		mark := p.save()
		p.pos++
		if p.isKw("SELECT") || p.isKw("VALUES") || p.isKw("WITH") {
			p.restore(mark)
		} else {
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.Columns = append(st.Columns, col)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	st.Select = sel
	if p.acceptKw("ON") {
		if err := p.expectKw("CONFLICT"); err != nil {
			return nil, err
		}
		oc := &OnConflict{}
		if p.acceptOp("(") {
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				oc.Columns = append(oc.Columns, col)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("DO"); err != nil {
			return nil, err
		}
		if p.acceptKw("NOTHING") {
			oc.DoNothing = true
		} else {
			if err := p.expectKw("UPDATE"); err != nil {
				return nil, err
			}
			if err := p.expectKw("SET"); err != nil {
				return nil, err
			}
			for {
				a, err := p.parseAssignment()
				if err != nil {
					return nil, err
				}
				oc.Set = append(oc.Set, a)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		st.Conflict = oc
	}
	return st, nil
}

func (p *Parser) parseAssignment() (Assignment, error) {
	var a Assignment
	col, err := p.ident()
	if err != nil {
		return a, err
	}
	a.Column = col
	if err := p.expectOp("="); err != nil {
		return a, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return a, err
	}
	a.Value = e
	return a, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	st := &UpdateStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		a, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	var using TableRef
	if p.acceptKw("USING") {
		if using, err = p.parseTablePrimary(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if using != nil {
		if st.Where, err = usingIn(name, using, st.Where); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// usingIn rewrites the WHERE of DELETE FROM table USING (SELECT …) AS a
// into the NULL-safe membership test it stands for: the rows of table
// whose columns are not distinct from those of a row of the subquery, and
// that pass the rest of where. One shape is taken, the keyed delete: every
// conjunct that reads a is `table.x IS NOT DISTINCT FROM a.y` (either way
// round), and there is at least one. Any other use of a, and any other
// USING item, is refused with 0A000. When the subquery is a plain
// projection (plainItems), the IN reads its FROM and WHERE directly.
func usingIn(table string, using TableRef, where Expr) (Expr, error) {
	u, _ := using.(*SubqueryTable)
	if u == nil || u.Alias == "" || strings.EqualFold(u.Alias, table) {
		return nil, enginerr.Newf(enginerr.CodeFeatureNotSupported, "sqlparser: DELETE … USING takes one (SELECT …) AS alias")
	}
	alias := u.Alias
	onAlias := func(e Expr) bool {
		c, ok := e.(*ColumnRef)
		return ok && !c.Star && strings.EqualFold(c.Table, alias)
	}
	sel := &SelectStmt{From: using}
	in := &InExpr{List: []Expr{&SubqueryExpr{Select: sel}}, NullSafe: true}
	var out Expr = in
	var keys []Expr
	for _, c := range Conjuncts(where) {
		reads := false
		WalkExpr(c, func(x Expr) bool { reads = reads || onAlias(x); return !reads })
		if !reads {
			out = &BinaryExpr{Op: "AND", Left: out, Right: c}
			continue
		}
		var key, col Expr
		if b, ok := c.(*BinaryExpr); ok && b.Op == "IS NOT DISTINCT FROM" {
			key, col = b.Left, b.Right
			if onAlias(key) {
				key, col = col, key
			}
		}
		if k, ok := key.(*ColumnRef); !ok || k.Star || !onAlias(col) || k.Table != "" && !strings.EqualFold(k.Table, table) {
			return nil, enginerr.Newf(enginerr.CodeFeatureNotSupported,
				"sqlparser: DELETE … USING: %s: each condition on %s must be %s.<column> IS NOT DISTINCT FROM %s.<column>", ExprString(c), alias, table, alias)
		}
		keys = append(keys, key)
		sel.Items = append(sel.Items, SelectItem{Expr: col})
	}
	if items := plainItems(u.Select, sel.Items); items != nil {
		sel.Items, sel.From, sel.Where = items, u.Select.From, u.Select.Where
	}
	switch len(keys) {
	case 0:
		return nil, enginerr.Newf(enginerr.CodeFeatureNotSupported, "sqlparser: DELETE … USING: no condition matches %s to %s", table, alias)
	case 1:
		in.Operand = keys[0]
	default:
		in.Operand = &RowExpr{Items: keys}
	}
	return out, nil
}

// plainItems returns p's items that cols (columns of p's alias) name, each
// exactly once, when p is a plain projection: column references over a
// FROM, with no grouping, DISTINCT, ORDER BY, LIMIT, set operation, CTE or
// VALUES. An IN then reads p's FROM and WHERE in place of p, planning no
// derived table; a name still resolves to p's FROM alone, since an IN
// subquery is bound apart from the statement around it. Else it is nil.
func plainItems(p *SelectStmt, cols []SelectItem) []SelectItem {
	if p.From == nil || len(p.CTEs) > 0 || p.Distinct || len(p.GroupBy) > 0 || p.Having != nil || len(p.OrderBy) > 0 ||
		p.Limit != nil || p.Offset != nil || p.Values != nil || p.ValuesParam != nil || p.Next != nil {
		return nil
	}
	out := make([]SelectItem, len(cols))
	for i, c := range cols {
		name, n := c.Expr.(*ColumnRef).Column, 0
		for _, it := range p.Items {
			ref, ok := it.Expr.(*ColumnRef)
			if !ok || ref.Star {
				return nil
			}
			if it.Alias == "" && strings.EqualFold(ref.Column, name) || strings.EqualFold(it.Alias, name) {
				out[i], n = SelectItem{Expr: ref}, n+1
			}
		}
		if n != 1 {
			return nil
		}
	}
	return out
}

// --- SELECT ---

func (p *Parser) parseSelect() (*SelectStmt, error) {
	var ctes []CTE
	if p.acceptKw("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ctes = append(ctes, CTE{Name: name, Select: sel})
			if !p.acceptOp(",") {
				break
			}
		}
	}
	sel, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	sel.CTEs = ctes

	// set-operation chain
	head := sel
	cur := sel
	for {
		var op SetOp
		switch {
		case p.acceptKw("UNION"):
			if p.acceptKw("ALL") {
				op = SetUnionAll
			} else {
				op = SetUnion
			}
		case p.acceptKw("EXCEPT"):
			if p.acceptKw("ALL") {
				op = SetExceptAll
			} else {
				op = SetExcept
			}
		case p.acceptKw("INTERSECT"):
			op = SetIntersect
		default:
			// ORDER BY / LIMIT after a set chain bind to the whole chain;
			// attach to head for simplicity.
			if err := p.parseOrderLimit(head); err != nil {
				return nil, err
			}
			return head, nil
		}
		rhs, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		cur.NextOp = op
		cur.Next = rhs
		cur = rhs
	}
}

// parseSelectBody parses one SELECT term (no CTEs, no set ops), or a VALUES
// list, or a parenthesized select.
func (p *Parser) parseSelectBody() (*SelectStmt, error) {
	if p.isOp("(") {
		p.pos++
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return sel, nil
	}
	if p.acceptKw("VALUES") {
		sel := &SelectStmt{}
		if t := p.peek(); t.Kind == TokRows {
			p.pos++
			row := p.rows[t.Slot][0]
			vp := &ValuesParam{Index: int(t.Slot) + 1, Types: make([]sqltypes.Type, len(row))}
			for i, v := range row {
				vp.Types[i] = v.T
			}
			sel.ValuesParam = vp
			return sel, nil
		}
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			sel.Values = append(sel.Values, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return sel, nil
	}
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKw("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		from, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if err := p.parseOrderLimit(sel); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *Parser) parseOrderLimit(sel *SelectStmt) error {
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Offset = e
	}
	return nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	var it SelectItem
	// t.* or *
	if p.isOp("*") {
		p.pos++
		it.Expr = &ColumnRef{Star: true}
		return it, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return it, err
	}
	it.Expr = e
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return it, err
		}
		it.Alias = a
	} else if p.peek().Kind == TokIdent {
		it.Alias = p.next().Text
	}
	return it, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKw("JOIN"):
			kind = JoinInner
		case p.acceptKw("INNER"):
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinInner
		case p.acceptKw("LEFT"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.acceptKw("RIGHT"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinRight
		case p.acceptKw("FULL"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinFull
		case p.acceptKw("CROSS"):
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinCross
		case p.isOp(","):
			p.pos++
			kind = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		jt := &JoinTable{Kind: kind, Left: left, Right: right}
		if kind != JoinCross {
			switch {
			case p.acceptKw("ON"):
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				jt.On = e
			case p.acceptKw("USING"):
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					col, err := p.ident()
					if err != nil {
						return nil, err
					}
					jt.Using = append(jt.Using, col)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			default:
				return nil, p.errorf("expected ON or USING after JOIN")
			}
		}
		left = jt
	}
}

func (p *Parser) parseTablePrimary() (TableRef, error) {
	if p.isOp("(") {
		p.pos++
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st := &SubqueryTable{Select: sel}
		p.acceptKw("AS")
		if p.peek().Kind == TokIdent {
			st.Alias = p.next().Text
		}
		return st, nil
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if p.isOp("(") {
		return p.parseSeries(name)
	}
	nt := &NamedTable{}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		nt.Schema, nt.Name = name[:i], name[i+1:]
	} else {
		nt.Name = name
	}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		nt.Alias = a
	} else if p.peek().Kind == TokIdent {
		nt.Alias = p.next().Text
	}
	return nt, nil
}

// parseSeries parses the argument list and alias of a function in FROM,
// whose name has been read: generate_series(lo, hi) is the only one.
func (p *Parser) parseSeries(name string) (TableRef, error) {
	if !strings.EqualFold(name, "generate_series") {
		return nil, p.errorf("unsupported table function %q", name)
	}
	p.pos++ // (
	st := &SeriesTable{}
	var err error
	if st.Lo, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	if st.Hi, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("AS") {
		if st.Alias, err = p.ident(); err != nil {
			return nil, err
		}
	} else if p.peek().Kind == TokIdent {
		st.Alias = p.next().Text
	}
	return st, nil
}

// --- expressions (Pratt) ---

// binding powers
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precUnary
)

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(precOr) }

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec, ok := p.peekBinaryOp()
		if !ok || prec < minPrec {
			return left, nil
		}
		// postfix-style predicates handled inline
		switch op {
		case "IS":
			p.pos++ // IS
			neg := p.acceptKw("NOT")
			if p.acceptKw("DISTINCT") {
				if err := p.expectKw("FROM"); err != nil {
					return nil, err
				}
				right, err := p.parseBinary(precCmp + 1)
				if err != nil {
					return nil, err
				}
				op := "IS DISTINCT FROM"
				if neg {
					op = "IS NOT DISTINCT FROM"
				}
				left = &BinaryExpr{Op: op, Left: left, Right: right}
				continue
			}
			if err := p.expectKw("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Operand: left, Negate: neg}
			continue
		case "NOT": // NOT IN / NOT BETWEEN / NOT LIKE
			p.pos++
			switch {
			case p.isKw("IN"):
				e, err := p.parseInTail(left, true)
				if err != nil {
					return nil, err
				}
				left = e
			case p.isKw("BETWEEN"):
				e, err := p.parseBetweenTail(left, true)
				if err != nil {
					return nil, err
				}
				left = e
			case p.isKw("LIKE"):
				p.pos++
				rhs, err := p.parseBinary(precAdd)
				if err != nil {
					return nil, err
				}
				left = &UnaryExpr{Op: "NOT", Operand: &BinaryExpr{Op: "LIKE", Left: left, Right: rhs}}
			default:
				return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
			}
			continue
		case "IN":
			e, err := p.parseInTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
			continue
		case "BETWEEN":
			e, err := p.parseBetweenTail(left, false)
			if err != nil {
				return nil, err
			}
			left = e
			continue
		}
		p.pos++
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseInTail(left Expr, neg bool) (Expr, error) {
	if err := p.expectKw("IN"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ie := &InExpr{Operand: left, Negate: neg}
	if p.isKw("SELECT") || p.isKw("WITH") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ie.List = []Expr{&SubqueryExpr{Select: sel}}
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ie.List = append(ie.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ie, nil
}

func (p *Parser) parseBetweenTail(left Expr, neg bool) (Expr, error) {
	if err := p.expectKw("BETWEEN"); err != nil {
		return nil, err
	}
	lo, err := p.parseBinary(precAdd)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseBinary(precAdd)
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{Operand: left, Lo: lo, Hi: hi, Negate: neg}, nil
}

func (p *Parser) peekBinaryOp() (op string, prec int, ok bool) {
	t := p.peek()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			return normalizeNe(t.Text), precCmp, true
		case "+", "-", "||":
			return t.Text, precAdd, true
		case "*", "/", "%":
			return t.Text, precMul, true
		}
		return "", 0, false
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "AND":
			return "AND", precAnd, true
		case "OR":
			return "OR", precOr, true
		case "LIKE":
			return "LIKE", precCmp, true
		case "IS", "IN", "BETWEEN":
			return t.Text, precCmp, true
		case "NOT":
			// only binds as NOT IN / NOT BETWEEN / NOT LIKE in infix position
			if p.pos+1 < len(p.toks) {
				nt := p.toks[p.pos+1]
				if nt.Kind == TokKeyword && (nt.Text == "IN" || nt.Text == "BETWEEN" || nt.Text == "LIKE") {
					return "NOT", precCmp, true
				}
			}
		}
	}
	return "", 0, false
}

func normalizeNe(op string) string {
	if op == "!=" {
		return "<>"
	}
	return op
}

func (p *Parser) parseUnary() (Expr, error) {
	switch {
	case p.acceptKw("NOT"):
		e, err := p.parseBinary(precNot)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Operand: e}, nil
	case p.acceptOp("-"):
		e, err := p.parseBinary(precUnary)
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			neg, nerr := sqltypes.Neg(lit.Value)
			if nerr == nil {
				return &Literal{Value: neg}, nil
			}
		}
		return &UnaryExpr{Op: "-", Operand: e}, nil
	case p.acceptOp("+"):
		return p.parseBinary(precUnary)
	}
	return p.parsePostfix()
}

// parsePostfix handles ::type casts after a primary.
func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.acceptOp("::") {
		tn, err := p.typeName()
		if err != nil {
			return nil, err
		}
		e = &CastExpr{Operand: e, TypeName: tn}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		v, ok := number(t)
		if !ok {
			return nil, p.errorf("bad number %q", t.Text)
		}
		p.pos++
		return &Literal{Value: v}, nil
	case TokString:
		p.pos++
		// A copy: the value may be stored, and must not pin the statement text.
		return &Literal{Value: sqltypes.NewString(strings.Clone(t.Text))}, nil
	case TokSlot:
		p.pos++
		return &ParamExpr{Index: int(t.Slot) + 1, Type: p.params[t.Slot].T}, nil
	case TokParam:
		p.pos++
		idx, err := strconv.Atoi(t.Text)
		if err != nil || idx < 1 {
			return nil, p.errorf("bad parameter $%s (parameters are $1, $2, ...)", t.Text)
		}
		return &ParamExpr{Index: idx}, nil
	case TokOp:
		if t.Text == "(" {
			p.pos++
			if p.isKw("SELECT") || p.isKw("WITH") || p.isKw("VALUES") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.acceptOp(",") {
				// (e1, e2, ...): a row value.
				row := &RowExpr{Items: []Expr{e}}
				for {
					item, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					row.Items = append(row.Items, item)
					if !p.acceptOp(",") {
						break
					}
				}
				e = row
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			p.pos++
			return &ColumnRef{Star: true}, nil
		}
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &Literal{Value: sqltypes.Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{Value: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Value: sqltypes.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.pos++
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &CastExpr{Operand: e, TypeName: tn}, nil
		case "COUNT", "SUM", "MIN", "MAX", "AVG", "COALESCE", "REPLACE":
			// function-style keywords
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "(" {
				p.pos++
				return p.parseFuncCall(t.Text)
			}
			// else fall through to identifier handling
		case "EXCLUDED":
			// EXCLUDED.col inside ON CONFLICT DO UPDATE
			p.pos++
			if err := p.expectOp("."); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: "excluded", Column: col}, nil
		}
	}
	// identifier: column ref, qualified ref, star-qualified, or function call
	if t.Kind == TokIdent || t.Kind == TokKeyword {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.acceptOp(".") {
			if p.acceptOp("*") {
				return &ColumnRef{Table: name, Star: true}, nil
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: strings.ToUpper(name)}
	if p.acceptOp("*") {
		fe.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fe, nil
	}
	if p.acceptOp(")") {
		return fe, nil
	}
	if p.acceptKw("DISTINCT") {
		fe.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fe.Args = append(fe.Args, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fe, nil
}

func (p *Parser) parseCase() (Expr, error) {
	p.pos++ // CASE
	ce := &CaseExpr{}
	if !p.isKw("WHEN") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = e
	}
	for p.acceptKw("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{When: w, Then: th})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
