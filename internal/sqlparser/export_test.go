package sqlparser

// ParseExpr parses a standalone scalar expression.
func ParseExpr(sql string) (Expr, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return e, nil
}
