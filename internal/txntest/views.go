package txntest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// View is one generated materialized view and Def, its defining query.
type View struct{ Name, Def string }

// ViewHistory is a generated view workload, in SQL text only: Script
// creates two tables t and u and the Views over them, then writes to the
// tables, refreshes views and asks for checks (CheckViews). Each element
// is one statement, or one BEGIN … COMMIT block.
type ViewHistory struct {
	Views  []View
	Script []string
}

// CheckViews is the element of ViewHistory.Script at which a runner
// compares every view with its query.
const CheckViews = "-- check views"

// ViewOptions sizes a generated view history, and may pin what is
// otherwise drawn.
type ViewOptions struct {
	Views int // views drawn over the two tables, after Defs
	Ops   int // statements drawn after the views are created and Then

	Keys []string // when not nil, how t and u are keyed: "pk", "pk2", "index" or ""
	Defs []string // the first views' definitions
	Then []string // statements run after the views are created
}

// GenerateViews draws a view history. Each table is keyed by a primary
// key, by a composite one, or not at all, and may carry an index on the
// join column t.fk = u.uid. Its views are projections with filters and
// expressions, aggregates (SUM, COUNT, AVG, MIN, MAX) grouped by none, one
// or two nullable VARCHAR or DOUBLE columns, and equi-joins of t and u, plain
// and aggregated. Its writes are inserts, copies, INSERT OR REPLACE,
// updates of a key, a group or across a filter, deletes by id and by value,
// a row deleted and inserted again in one transaction, and statements that
// break a primary key and so keep nothing. Value domains are small, so rows
// repeat, groups empty and refill, sums reach 0 and some hold only NULLs;
// the DOUBLE domain holds both -0.0 and 0.0, which SQL finds equal. The
// options may pin how the tables are keyed and the first views, and script
// statements to run before the drawn ones.
func GenerateViews(rnd *rand.Rand, o ViewOptions) ViewHistory {
	g := &viewGen{rnd: rnd}
	if o.Keys != nil {
		g.tKey, g.uKey = o.Keys[0], o.Keys[1]
	} else {
		g.tKey, g.uKey = keyModes[rnd.Intn(len(keyModes))], keyModes[rnd.Intn(len(keyModes))]
	}
	h := ViewHistory{Script: g.schema()}
	for i := 0; i < 8; i++ {
		h.Script = append(h.Script, "INSERT INTO t VALUES "+g.tRow(g.fresh()))
	}
	for uid := 0; uid < 4; uid++ {
		h.Script = append(h.Script, "INSERT INTO u VALUES "+g.uRow(fmt.Sprint(uid)))
	}
	defs := slices.Clone(o.Defs)
	for i := 0; i < o.Views; i++ {
		defs = append(defs, g.view())
	}
	for i, def := range defs {
		v := View{Name: fmt.Sprintf("v%d", i), Def: def}
		h.Views = append(h.Views, v)
		h.Script = append(h.Script, "CREATE MATERIALIZED VIEW "+v.Name+" AS "+v.Def)
	}
	h.Script = append(h.Script, o.Then...)
	for i := 0; i < o.Ops; i++ {
		switch r := rnd.Intn(20); {
		case r == 0:
			h.Script = append(h.Script, CheckViews)
		case r == 1:
			h.Script = append(h.Script, "REFRESH MATERIALIZED VIEW "+h.Views[rnd.Intn(len(h.Views))].Name)
		case r < 6:
			h.Script = append(h.Script, g.uWrite())
		default:
			h.Script = append(h.Script, g.tWrite())
		}
	}
	return h
}

// keyModes are how a table is keyed: a primary key (which keys views most
// often), a composite one, an index on the join column, or nothing.
var keyModes = []string{"pk", "pk", "pk2", "index", ""}

type viewGen struct {
	rnd        *rand.Rand
	tKey, uKey string
	next       int // ids of t handed out so far
}

func (g *viewGen) pick(vals ...string) string { return vals[g.rnd.Intn(len(vals))] }

// The value domains. "a|" and "|x" render like "a" and "x" behind a
// separator, so a view that keys rows by concatenation confuses them.
func (g *viewGen) k() string   { return g.pick("NULL", "'a'", "'b'", "'a|'") }
func (g *viewGen) d() string   { return g.pick("NULL", "0.0", "-0.0", "0.5", "1.5", "-1.5") }
func (g *viewGen) v() string   { return g.pick("NULL", "-2", "-1", "0", "1", "2", "3") }
func (g *viewGen) uid() string { return fmt.Sprint(g.rnd.Intn(6)) }
func (g *viewGen) fk() string  { return g.pick("NULL", g.uid(), g.uid(), g.uid()) }
func (g *viewGen) gv() string  { return g.pick("NULL", "'x'", "'y'", "'|x'") }
func (g *viewGen) w() string   { return g.pick("NULL", "0", "1", "2", "3") }

func (g *viewGen) fresh() int { g.next++; return g.next - 1 }

// id is an id of t, handed out before and perhaps gone since.
func (g *viewGen) id() int { return g.rnd.Intn(g.next) }

func (g *viewGen) tRow(id int) string {
	return fmt.Sprintf("(%d, %d, %s, %s, %s, %s)", id, g.rnd.Intn(2), g.k(), g.d(), g.v(), g.fk())
}

func (g *viewGen) uRow(uid string) string {
	return fmt.Sprintf("(%s, %d, %s, %s)", uid, g.rnd.Intn(2), g.gv(), g.w())
}

// match selects every row whose col holds lit, NULL included.
func match(col, lit string) string {
	if lit == "NULL" {
		return col + " IS NULL"
	}
	return col + " = " + lit
}

func (g *viewGen) schema() []string {
	table := func(name, cols, key, pk, pk2, join string) []string {
		switch key {
		case "pk":
			return []string{fmt.Sprintf("CREATE TABLE %s (%s, PRIMARY KEY (%s))", name, cols, pk)}
		case "pk2":
			return []string{fmt.Sprintf("CREATE TABLE %s (%s, PRIMARY KEY (%s))", name, cols, pk2)}
		case "index":
			return []string{fmt.Sprintf("CREATE TABLE %s (%s)", name, cols), fmt.Sprintf("CREATE INDEX %s_join ON %s (%s)", name, name, join)}
		}
		return []string{fmt.Sprintf("CREATE TABLE %s (%s)", name, cols)}
	}
	return append(table("t", "id INTEGER NOT NULL, n INTEGER NOT NULL, k VARCHAR, d DOUBLE, v INTEGER, fk INTEGER", g.tKey, "id", "id, n", "fk"),
		table("u", "uid INTEGER NOT NULL, m INTEGER NOT NULL, g VARCHAR, w INTEGER", g.uKey, "uid", "uid, m", "uid")...)
}

// some returns a non-empty random subset of items, in their order.
func (g *viewGen) some(items ...string) []string {
	var out []string
	for len(out) == 0 {
		for _, it := range items {
			if g.rnd.Intn(3) == 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// aggs returns the aggregate select items over args, named a0, a1, …, with
// and without a declared COUNT(*).
func (g *viewGen) aggs(args ...string) []string {
	var fns []string
	for _, a := range args {
		fns = append(fns, "SUM("+a+")", "COUNT("+a+")", "AVG("+a+")", "MIN("+a+")", "MAX("+a+")")
	}
	if fns = g.some(fns...); g.rnd.Intn(3) == 0 {
		fns = fns[:1] // one aggregate, as Listing 1's view has
	}
	if g.rnd.Intn(2) == 0 {
		fns = append(fns, "COUNT(*)")
	}
	for i := range fns {
		fns[i] += fmt.Sprintf(" AS a%d", i)
	}
	return fns
}

func (g *viewGen) where(conds ...string) string {
	if g.rnd.Intn(3) == 0 {
		return ""
	}
	return " WHERE " + g.pick(conds...)
}

const join = " FROM t JOIN u ON t.fk = u.uid"

func (g *viewGen) view() string {
	switch g.rnd.Intn(6) {
	case 0: // projection, keyed when it names t's key
		items := g.some("k", "d", "v", "fk", "v + 1 AS v1", "d * 2 AS d2", "7 AS seven")
		if g.rnd.Intn(2) == 0 {
			items = append([]string{"id", "n"}, items...)
		}
		return "SELECT " + strings.Join(items, ", ") + " FROM t" +
			g.where("v > 0", "v IS NULL OR v < 2", "k <> 'a'", "d >= 0", "v >= 1 AND k IS NOT NULL")
	case 1, 2: // aggregate of t, grouped or not
		keys := [][]string{nil, {"k"}, {"d"}, {"k", "d"}}[g.rnd.Intn(4)]
		sel := "SELECT " + strings.Join(append(keys, g.aggs("v", "d")...), ", ") + " FROM t" + g.where("v > 0", "k <> 'b'", "d IS NOT NULL")
		if len(keys) > 0 {
			sel += " GROUP BY " + strings.Join(keys, ", ")
		}
		return sel
	case 3: // aggregate of u
		return "SELECT g, " + strings.Join(g.aggs("w"), ", ") + " FROM u GROUP BY g"
	case 4: // join, keyed when t and u are (FK→PK)
		return g.pick("SELECT t.id, t.n, u.g, t.v", "SELECT t.id, t.n, u.g, t.v", "SELECT t.k, u.g, u.w", "SELECT t.id, t.d, u.m") + join +
			g.where("u.g <> 'x' AND t.v >= 0", "t.v > 0", "u.w IS NOT NULL")
	}
	keys := g.pick("u.g", "u.g, t.k", "t.d")
	return "SELECT " + strings.Join(append([]string{keys}, g.aggs("t.v", "u.w")...), ", ") + join + " GROUP BY " + keys
}

func (g *viewGen) tWrite() string {
	id := g.id()
	switch g.rnd.Intn(14) {
	case 0, 1:
		return "INSERT INTO t VALUES " + g.tRow(g.fresh())
	case 2: // then a row whose id t may hold: a repeat, or a broken key that keeps neither
		return "INSERT INTO t VALUES " + g.tRow(g.fresh()) + ", " + g.tRow(id)
	case 3: // a copy, under a new id or its own
		return fmt.Sprintf("INSERT INTO t SELECT %s, n, k, d, v, fk FROM t WHERE id = %d", g.pick(fmt.Sprint(g.fresh()), "id"), id)
	case 4: // replaced by other values or by itself
		if g.tKey == "pk" || g.tKey == "pk2" {
			return g.pick("INSERT OR REPLACE INTO t VALUES "+g.tRow(id), fmt.Sprintf("INSERT OR REPLACE INTO t SELECT * FROM t WHERE id = %d", id))
		}
		return "INSERT INTO t VALUES " + g.tRow(id)
	case 5: // the key changes, perhaps onto one t holds
		return fmt.Sprintf("UPDATE t SET id = %s WHERE id = %d", g.pick(fmt.Sprint(g.fresh()), fmt.Sprint(g.id())), id)
	case 6, 7: // across the filters
		return fmt.Sprintf("UPDATE t SET v = %s WHERE id = %d", g.v(), id)
	case 8: // to another group and join partner
		return fmt.Sprintf("UPDATE t SET k = %s, d = %s, fk = %s WHERE id = %d", g.k(), g.d(), g.fk(), id)
	case 9:
		return "UPDATE t SET v = v + 1 WHERE " + match("k", g.k())
	case 10, 11:
		return fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
	case 12: // by value, a whole group, or every row
		byValue := " WHERE " + match("k", g.k()) + " AND " + g.pick(match("v", g.v()), match("d", g.d()))
		return "DELETE FROM t" + g.pick(byValue, byValue, " WHERE "+match("k", g.k()), "")
	}
	// Deleted and inserted again in one transaction, through a shadow id.
	s := id + 100000
	return fmt.Sprintf("BEGIN; INSERT INTO t SELECT %d, n, k, d, v, fk FROM t WHERE id = %d; DELETE FROM t WHERE id = %d; "+
		"INSERT INTO t SELECT %d, n, k, d, v, fk FROM t WHERE id = %d; DELETE FROM t WHERE id = %d; COMMIT", s, id, id, id, s, s)
}

func (g *viewGen) uWrite() string {
	uid := g.uid()
	switch g.rnd.Intn(8) {
	case 0, 1: // a uid u may hold: a repeat, or a broken key
		return "INSERT INTO u VALUES " + g.uRow(uid)
	case 2:
		return fmt.Sprintf("INSERT INTO u SELECT uid, %d, g, w FROM u WHERE uid = %s", g.rnd.Intn(2), uid)
	case 3:
		if g.uKey == "pk" || g.uKey == "pk2" {
			return "INSERT OR REPLACE INTO u VALUES " + g.uRow(uid)
		}
		fallthrough
	case 4:
		return fmt.Sprintf("UPDATE u SET g = %s, w = %s WHERE uid = %s", g.gv(), g.w(), uid)
	case 5: // the key changes
		return fmt.Sprintf("UPDATE u SET uid = %s WHERE uid = %s", g.uid(), uid)
	case 6:
		return "DELETE FROM u WHERE uid = " + uid
	}
	return "DELETE FROM u" + g.pick(" WHERE "+match("g", g.gv()), " WHERE "+match("g", g.gv()), "")
}
