package sqlparser

import (
	"strconv"
	"strings"

	"openivm/internal/sqltypes"
)

// Lifted is one statement of a script as Lift lexed it: its cache key, the
// literals lifted out of its text, and its source text.
//
// In a SELECT, INSERT, UPDATE or DELETE the lexer lifts each literal whose
// value cannot shape the plan into a typed slot — a parameter that keeps
// the literal's kind (INT, DOUBLE or VARCHAR), so the binder types the
// expression as it would the literal — and a VALUES list of literal rows
// into one slot of rows. The key is the statement's tokens with the slots
// in place of the literals, so statements of one shape share a key whatever
// their values and however many rows they insert. Literals stay in the text,
// and in the key, where they name or shape something: the select list (a
// literal there names its column), GROUP BY, HAVING, ORDER BY, LIMIT and
// OFFSET (ordinals, counts, expressions matched by their text). An IN
// list's arity is part of the key, each element being a slot of its own.
type Lifted struct {
	// Key is the statement's tokens, one space apart, keywords upper-cased
	// and each slot written as its kind: what the plan cache files the
	// statement under. Nil for statements other than SELECT, INSERT, UPDATE
	// and DELETE.
	Key []byte
	// Params are the lifted scalar literals, in order: slot i is the
	// statement's parameter $i+1. Rows are its lifted VALUES lists, each
	// decoded straight into rows. Both are nil when nothing was lifted.
	Params []sqltypes.Value
	Rows   [][]sqltypes.Row

	src        string // the script
	start, end int    // the statement's text in src
	lift       bool
}

// Text returns the statement's source text.
func (l *Lifted) Text() string { return l.src[l.start:l.end] }

// Lift lexes a script into its statements, lifting literals out of each
// SELECT, INSERT, UPDATE and DELETE when lift is set and the script names
// no $N parameter of its own (those slots are the user's, and the key of
// such a statement is its own text). With lift unset every statement keeps
// its literals: the key is the text.
func Lift(src string, lift bool) ([]Lifted, error) {
	f := lifter{lx: Lexer{src: src}, lift: lift, key: make([]byte, 0, len(src))}
	var out []Lifted
	for !f.atEOF {
		l, err := f.statement()
		if err != nil {
			return nil, err
		}
		if l.start != l.end {
			out = append(out, l)
		}
	}
	if f.lift && f.named {
		return Lift(src, false)
	}
	return out, nil
}

// Parse parses the statement from its lifted tokens: a slot becomes a
// typed ParamExpr, a lifted VALUES list a ValuesParam.
func (l *Lifted) Parse() (Statement, error) {
	f := lifter{lx: Lexer{src: l.src, pos: l.start}, lift: l.lift, toks: make([]Token, 0, (l.end-l.start)/2+2)}
	if _, err := f.statement(); err != nil {
		return nil, err
	}
	p := &Parser{src: l.src[:l.end], toks: f.toks, params: l.Params, rows: l.Rows}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	return stmt, nil
}

// clauses maps the keywords that open a clause to whether a literal in it
// is lifted: in WHERE, ON, SET and VALUES a literal is only a value;
// anywhere else it may name or shape something. SET and VALUES, which are
// also column names, open a clause only where lifter.statement says so.
var clauses = map[string]bool{
	"WHERE": true, "ON": true, "SET": true, "VALUES": true,
	"SELECT": false, "FROM": false, "GROUP": false, "HAVING": false, "ORDER": false,
	"LIMIT": false, "OFFSET": false, "USING": false, "WITH": false,
	"UNION": false, "EXCEPT": false, "INTERSECT": false,
}

// operandStart lists the keywords after which a '-' is a sign, not a
// subtraction, in the clauses that lift.
var operandStart = map[string]bool{
	"WHERE": true, "ON": true, "AND": true, "OR": true, "NOT": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "BETWEEN": true, "LIKE": true,
}

// lifter lexes one script statement by statement. With toks set it also
// keeps the statement's tokens, slots included, for the parser.
type lifter struct {
	lx    Lexer
	lift  bool
	atEOF bool
	named bool // the script names a $N parameter

	key    []byte           // every statement's key, back to back
	params []sqltypes.Value // the statement's scalar slots
	sets   [][]sqltypes.Row // the statement's lifted VALUES lists
	toks   []Token          // nil unless parsing
	frames []bool           // per open parenthesis: does its clause lift
	prev   Token            // the last token emitted
	kinds  []sqltypes.Type  // scratch: the kinds of a VALUES list's first row
	depth  [8]bool          // frames' first backing array
}

// statement lexes the next statement, up to a ';' outside parentheses or
// the end of the script.
func (f *lifter) statement() (Lifted, error) {
	l := Lifted{src: f.lx.src, start: -1, lift: f.lift}
	keyAt := len(f.key)
	f.params, f.sets = nil, nil
	if f.frames == nil {
		f.frames = f.depth[:0]
	}
	f.frames = append(f.frames[:0], false)
	f.prev = Token{}
	first, sets := "", 0 // the statement's first keyword; SET clauses seen
	for {
		t, err := f.lx.Next()
		if err != nil {
			return l, err
		}
		end := f.lx.pos
		f.named = f.named || t.Kind == TokParam
		if t.Kind == TokEOF || (len(f.frames) == 1 && t.Kind == TokOp && t.Text == ";") {
			f.atEOF = t.Kind == TokEOF
			if l.start < 0 {
				l.start, l.end = t.Pos, t.Pos
			}
			if f.toks != nil {
				f.toks = append(f.toks, Token{Kind: TokEOF, Pos: l.end})
			}
			break
		}
		if l.start < 0 {
			l.start = t.Pos
			if t.Kind == TokKeyword {
				first = t.Text
			}
		}
		l.end = end
		lifting := f.lift && keyed(first)
		top := len(f.frames) - 1
		switch {
		case t.Kind == TokKeyword:
			prev := f.prev
			f.emit(t, end)
			switch t.Text {
			case "VALUES":
				// A clause only before a row; anywhere else a column name.
				if !f.opFollows("(") {
					continue
				}
				f.frames[top] = true
				if lifting {
					ok, err := f.rows()
					if err != nil {
						return l, err
					}
					if ok {
						l.end = f.lx.pos
					}
				}
			case "SET":
				// The SET of UPDATE t SET or of DO UPDATE SET; anywhere else a
				// column name.
				if (first == "UPDATE" && sets == 0) || (prev.Kind == TokKeyword && prev.Text == "UPDATE") {
					f.frames[top] = true
					sets++
				}
			default:
				if lifts, ok := clauses[t.Text]; ok {
					f.frames[top] = lifts
				}
			}
		case t.Kind == TokOp && t.Text == "(":
			f.frames = append(f.frames, f.frames[top])
			f.emit(t, end)
		case t.Kind == TokOp && t.Text == ")":
			if top > 0 {
				f.frames = f.frames[:top]
			}
			f.emit(t, end)
		case !lifting || !f.frames[top]:
			f.emit(t, end)
		case t.Kind == TokOp && t.Text == "-" && f.signPosition():
			// A sign folds into the number after it, as the parser folds
			// it, unless a cast binds the number first.
			mark := f.lx.pos
			n, err := f.lx.Next()
			if err != nil {
				return l, err
			}
			nend := f.lx.pos
			if v, ok := number(n); ok && !f.opFollows("::") {
				if v, err := sqltypes.Neg(v); err == nil {
					f.slot(Token{Kind: TokSlot, Text: f.lx.src[t.Pos:nend], Pos: t.Pos}, v)
					l.end = nend
					continue
				}
			}
			f.lx.pos = mark
			f.emit(t, end)
		case t.Kind == TokNumber || t.Kind == TokString:
			if v, ok := literal(t); ok {
				f.slot(Token{Kind: TokSlot, Text: f.lx.src[t.Pos:end], Pos: t.Pos}, v)
				continue
			}
			f.emit(t, end)
		default:
			f.emit(t, end)
		}
	}
	if !keyed(first) {
		f.key = f.key[:keyAt]
	} else if l.Key = f.key[keyAt:len(f.key):len(f.key)]; len(l.Key) > 0 {
		l.Key = l.Key[:len(l.Key)-1] // the separator after the last token
	}
	l.Params, l.Rows = f.params, f.sets
	return l, nil
}

// keyed reports whether a statement opening with keyword first has a key:
// it is a SELECT, INSERT, UPDATE or DELETE.
func keyed(first string) bool {
	switch first {
	case "SELECT", "WITH", "VALUES", "INSERT", "UPDATE", "DELETE":
		return true
	}
	return false
}

// emit appends t, which ends at end, to the key (and the tokens): a
// keyword as its canonical text, anything else as its source text.
func (f *lifter) emit(t Token, end int) {
	if t.Kind == TokKeyword {
		f.key = append(f.key, t.Text...)
	} else {
		f.key = append(f.key, f.lx.src[t.Pos:end]...)
	}
	f.key = append(f.key, ' ')
	f.push(t)
}

func (f *lifter) push(t Token) {
	f.prev = t
	if f.toks != nil {
		f.toks = append(f.toks, t)
	}
}

// slot lifts a literal of value v out of the text.
func (f *lifter) slot(t Token, v sqltypes.Value) {
	if v.T == sqltypes.TypeString {
		v.S = strings.Clone(v.S) // the value may be stored; it must not pin the text
	}
	t.Slot = int32(len(f.params))
	if f.params == nil {
		f.params = make([]sqltypes.Value, 0, 4)
	}
	f.params = append(f.params, v)
	f.key = append(f.key, '?', kindLetter(v.T), ' ')
	f.push(t)
}

// signPosition reports whether a '-' read now is a sign: nothing before it
// in the statement yields a value for it to subtract from.
func (f *lifter) signPosition() bool {
	switch f.prev.Kind {
	case TokEOF:
		return true
	case TokOp:
		return f.prev.Text != ")"
	case TokKeyword:
		return operandStart[f.prev.Text]
	}
	return false
}

// opFollows reports whether the next token is the operator op, leaving
// the lexer where it was.
func (f *lifter) opFollows(op string) bool {
	mark := f.lx.pos
	t, err := f.lx.Next()
	f.lx.pos = mark
	return err == nil && t.Kind == TokOp && t.Text == op
}

// rows lifts the VALUES list starting at the lexer's position when every
// row is as wide as the first and every cell a literal (a number, possibly
// signed, a string, NULL, TRUE or FALSE). It decodes the cells straight
// into rows; the key gets one slot, written with the first row's kinds,
// which are the types the binder gives the list's columns. Anything else
// leaves the lexer where it was, to lift the list literal by literal.
func (f *lifter) rows() (bool, error) {
	mark := f.lx.pos
	// The list has at most one cell more than the commas up to the end of
	// the statement (fewer when a string holds a ';').
	rest := f.lx.src[mark:]
	if i := strings.IndexByte(rest, ';'); i >= 0 {
		rest = rest[:i]
	}
	cells := make([]sqltypes.Value, 0, strings.Count(rest, ",")+1)
	f.kinds = f.kinds[:0]
	pos, width, nrows, strs, strLen := -1, -1, 0, 0, 0
	for {
		t, err := f.lx.Next()
		if err != nil || t.Kind != TokOp || t.Text != "(" {
			f.lx.pos = mark
			return false, nil
		}
		if pos < 0 {
			pos = t.Pos
		}
		n := 0
		for {
			v, ok := f.cell()
			if !ok {
				f.lx.pos = mark
				return false, nil
			}
			if nrows == 0 {
				f.kinds = append(f.kinds, v.T)
			}
			if v.T == sqltypes.TypeString {
				strs, strLen = strs+1, strLen+len(v.S)
			}
			cells = append(cells, v)
			n++
			t, err := f.lx.Next()
			if err != nil || t.Kind != TokOp || (t.Text != ")" && t.Text != ",") {
				f.lx.pos = mark
				return false, nil
			}
			if t.Text == ")" {
				break
			}
		}
		if width < 0 {
			width = n
		}
		if n != width {
			f.lx.pos = mark
			return false, nil
		}
		nrows++
		at := f.lx.pos
		if t, err := f.lx.Next(); err != nil || t.Kind != TokOp || t.Text != "," {
			f.lx.pos = at
			break
		}
	}
	// The strings of the list share one allocation rather than pin the text
	// they were read from: the rows may be stored.
	if strs > 0 {
		var sb strings.Builder
		sb.Grow(strLen)
		for _, v := range cells {
			sb.WriteString(v.S)
		}
		arena, at := sb.String(), 0
		for i := range cells {
			if cells[i].T == sqltypes.TypeString {
				n := len(cells[i].S)
				cells[i].S, at = arena[at:at+n], at+n
			}
		}
	}
	rows := make([]sqltypes.Row, nrows)
	for i := range rows {
		rows[i] = sqltypes.Row(cells[i*width : (i+1)*width : (i+1)*width])
	}
	f.key = append(f.key, '?', 'r')
	for _, k := range f.kinds {
		f.key = append(f.key, kindLetter(k))
	}
	f.key = append(f.key, ' ')
	f.push(Token{Kind: TokRows, Slot: int32(len(f.sets)), Text: f.lx.src[pos:f.lx.pos], Pos: pos})
	f.sets = append(f.sets, rows)
	return true, nil
}

// cell reads one literal cell of a VALUES row.
func (f *lifter) cell() (sqltypes.Value, bool) {
	t, err := f.lx.Next()
	if err != nil {
		return sqltypes.Null, false
	}
	switch t.Kind {
	case TokNumber, TokString:
		return literal(t)
	case TokKeyword:
		switch t.Text {
		case "NULL":
			return sqltypes.Null, true
		case "TRUE", "FALSE":
			return sqltypes.NewBool(t.Text == "TRUE"), true
		}
	case TokOp:
		if t.Text != "-" && t.Text != "+" {
			return sqltypes.Null, false
		}
		n, err := f.lx.Next()
		if err != nil {
			return sqltypes.Null, false
		}
		v, ok := number(n)
		if ok && t.Text == "-" {
			v, err = sqltypes.Neg(v)
			ok = err == nil
		}
		return v, ok
	}
	return sqltypes.Null, false
}

// literal is the value of a number or string token, as the parser reads
// it; a string's text is the token's, shared with the source.
func literal(t Token) (sqltypes.Value, bool) {
	if t.Kind == TokString {
		return sqltypes.NewString(t.Text), true
	}
	return number(t)
}

// number is the value of a number token: an integer unless it has a
// fraction or an exponent or overflows int64. ok is false for anything
// else, or a number no conversion accepts.
func number(t Token) (sqltypes.Value, bool) {
	if t.Kind != TokNumber {
		return sqltypes.Null, false
	}
	integer := true
	for i := 0; i < len(t.Text) && integer; i++ {
		integer = isDigit(t.Text[i])
	}
	if integer {
		if i, err := strconv.ParseInt(t.Text, 10, 64); err == nil {
			return sqltypes.NewInt(i), true
		}
	}
	fl, err := strconv.ParseFloat(t.Text, 64)
	return sqltypes.NewFloat(fl), err == nil
}

// kindLetter is how the key writes a slot of kind k.
func kindLetter(k sqltypes.Type) byte {
	switch k {
	case sqltypes.TypeInt:
		return 'i'
	case sqltypes.TypeFloat:
		return 'f'
	case sqltypes.TypeString:
		return 's'
	case sqltypes.TypeBool:
		return 'b'
	}
	return 'n'
}
