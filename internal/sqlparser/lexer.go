// Package sqlparser implements a lexer and recursive-descent parser for the
// SQL subset used throughout OpenIVM-Go: DDL (CREATE TABLE / INDEX /
// [MATERIALIZED] VIEW), DML (INSERT [OR REPLACE] / ON CONFLICT, UPDATE,
// DELETE) and SELECT queries with joins, grouping, aggregates, CTEs and set
// operations. The grammar covers both the DuckDB-flavoured and
// PostgreSQL-flavoured statements the IVM compiler consumes and emits.
package sqlparser

import (
	"strings"

	"openivm/internal/enginerr"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString // 'single quoted'
	TokOp     // operators and punctuation
	TokParam  // $1, $2, ... positional statement parameter (Text = digits)
	TokSlot   // a literal lifted out of the text (Lift): Slot indexes Lifted.Params
	TokRows   // a VALUES list lifted out of the text: Slot indexes Lifted.Rows
)

// Token is a lexical token with its source position (for error messages).
type Token struct {
	Kind TokenKind
	Slot int32  // TokSlot, TokRows: which lifted value
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

// keywords maps each reserved word to itself, so that recognising one in
// any case returns the canonical upper-case text without building it.
// Words not in this set lex as identifiers.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET
		ASC DESC AS DISTINCT ALL AND OR NOT IN IS NULL TRUE FALSE BETWEEN LIKE
		CASE WHEN THEN ELSE END CAST JOIN INNER LEFT RIGHT FULL OUTER CROSS ON USING
		UNION EXCEPT INTERSECT WITH VALUES INSERT INTO DELETE UPDATE SET CREATE TABLE
		VIEW MATERIALIZED INDEX UNIQUE DROP IF EXISTS PRIMARY KEY DEFAULT REPLACE
		CONFLICT DO NOTHING EXCLUDED RETURNING TRUNCATE BEGIN COMMIT ROLLBACK EXPLAIN
		REFRESH COUNT SUM MIN MAX AVG COALESCE OF FOR TRIGGER AFTER ROW EACH EXECUTE`) {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword (MATERIALIZED).
const maxKeywordLen = 12

// keyword returns the canonical text of word when it is a keyword in any
// case.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error on malformed input. Token texts
// are substrings of the input (keywords: of a static table), so lexing
// allocates only for a quoted string or identifier with a doubled quote.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case c == '"': // quoted identifier
		text, ok := l.quoted('"')
		if !ok {
			return Token{}, enginerr.Newf(enginerr.CodeSyntaxError, "sqlparser: unterminated quoted identifier at %d", start)
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case c == '\'':
		text, ok := l.quoted('\'')
		if !ok {
			return Token{}, enginerr.Newf(enginerr.CodeSyntaxError, "sqlparser: unterminated string literal at %d", start)
		}
		return Token{Kind: TokString, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		seenDot := c == '.'
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d >= '0' && d <= '9' {
				l.pos++
				continue
			}
			if d == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if (d == 'e' || d == 'E') && l.pos+1 < len(l.src) &&
				(isDigit(l.src[l.pos+1]) || ((l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2]))) {
				l.pos += 2
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '$' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		// Positional parameter ($1, $2, ...), bound per execution by
		// prepared statements. A bare '$' stays an error (it only appears
		// mid-identifier otherwise, handled by isIdentPart).
		l.pos++
		numStart := l.pos
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokParam, Text: l.src[numStart:l.pos], Pos: start}, nil
	}
	if l.pos+1 < len(l.src) {
		switch op := l.src[l.pos : l.pos+2]; op {
		case "<>", "!=", "<=", ">=", "||", "::":
			l.pos += 2
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	if op := opText[c]; op != "" {
		l.pos++
		return Token{Kind: TokOp, Text: op, Pos: start}, nil
	}
	return Token{}, enginerr.Newf(enginerr.CodeSyntaxError, "sqlparser: unexpected character %q at %d", string(c), start)
}

// opText holds the text of each one-byte operator, "" for other bytes.
var opText = func() (t [256]string) {
	for _, op := range []string{"+", "-", "*", "/", "%", "(", ")", ",", ".", ";", "=", "<", ">"} {
		t[op[0]] = op
	}
	return t
}()

// quoted lexes the text between a pair of q quotes starting at l.pos, a
// doubled q standing for one. Without a doubled quote the text is a
// substring of the input. ok is false when the closing quote is missing.
func (l *Lexer) quoted(q byte) (text string, ok bool) {
	l.pos++
	from := l.pos
	var sb *strings.Builder
	for {
		i := strings.IndexByte(l.src[l.pos:], q)
		if i < 0 {
			l.pos = len(l.src)
			return "", false
		}
		end := l.pos + i
		if end+1 < len(l.src) && l.src[end+1] == q {
			if sb == nil {
				sb = &strings.Builder{}
			}
			sb.WriteString(l.src[from : end+1])
			l.pos = end + 2
			from = l.pos
			continue
		}
		l.pos = end + 1
		if sb == nil {
			return l.src[from:end], true
		}
		sb.WriteString(l.src[from:end])
		return sb.String(), true
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '$' }

// Tokenize lexes the whole input. The token slice is sized for the input
// up front: every token but EOF takes at least one byte, and most take two
// with the space or comma after them.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	toks := make([]Token, 0, len(src)/2+2)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
