package ivmext

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqltypes"
	"openivm/internal/txntest"
)

// TestViewOracle is the oracle for the contract every maintained view
// keeps: after any history of writes, refreshes and reads, it equals its
// defining query. txntest.GenerateViews draws the histories. The lazy arm
// runs each statement alone, so deltas pile up between checks; the eager
// arm refreshes every view after each statement. A failure prints
// TXNTEST_SEED and the history shrunk to the SQL it ran, which replays in
// cmd/minidb.
func TestViewOracle(t *testing.T) {
	histories := 100
	if testing.Short() {
		histories = 15
	}
	for _, arm := range []string{"lazy", "eager"} {
		t.Run(arm, func(t *testing.T) {
			t.Parallel()
			oracle(t, histories, txntest.ViewOptions{Views: 3, Ops: 80}, replay{arm: arm})
		})
	}
}

// replay is how the oracle runs a history and what its checks assert
// beside "every view equals its query".
type replay struct {
	views  []txntest.View
	script []string
	arm    string // "lazy" or "eager"
	reads  []bool // how a check's point reads find a group: by key (false), by an expression of it (true); nil for both
	key    string // "keyed" or "keyless": how every view must compile; "" for either
}

// oracle replays histories drawn under o from TXNTEST_SEED on, as r says.
// A failure prints the seed and the history shrunk to the SQL it ran.
func oracle(t *testing.T, histories int, o txntest.ViewOptions, r replay) {
	t.Helper()
	if r.reads == nil {
		r.reads = []bool{false, true}
	}
	seed, fromEnv := txntest.Seed()
	for i := 0; i < histories; i++ {
		h := txntest.GenerateViews(rand.New(rand.NewSource(seed+int64(i))), o)
		r.views, r.script = h.Views, h.Script
		if diff, _ := replayViews(t, r); diff != "" {
			r.script = txntest.Shrink(h.Script, func(s []string) bool {
				r.script = s
				d, _ := replayViews(nil, r)
				return d != ""
			})
			diff, ran := replayViews(nil, r)
			t.Fatalf("TXNTEST_SEED=%d (history %d, from env: %v): %s\nminimized script:\n%s", seed, i, fromEnv, diff, ran)
		}
	}
}

// replayViews runs r's script and a last txntest.CheckViews on a fresh
// database in r's arm, and returns the first difference a check finds (""
// for none) and the SQL it ran. Under a non-nil t a statement may fail only
// on a primary key, and every view's compiled key and access paths are
// asserted as it is created and at the end; a shrinking replay passes nil
// and runs what runs.
func replayViews(t *testing.T, r replay) (diff, ran string) {
	db := engine.Open("oracle", engine.DialectDuckDB)
	defer db.Close()
	ext := Install(db)
	s := db.NewSession()
	defer s.Close()
	var log strings.Builder
	exec := func(sql string) ([]sqltypes.Row, error) {
		log.WriteString(sql + ";\n")
		res, err := s.Exec(sql)
		if err == nil {
			return res.Rows, nil
		}
		if t != nil && !strings.Contains(err.Error(), "primary key") {
			t.Fatalf("%s: %v", sql, err)
		}
		if strings.HasPrefix(sql, "BEGIN;") { // a failed block leaves its transaction open
			log.WriteString("ROLLBACK;\n")
			s.Exec("ROLLBACK")
		}
		return nil, err
	}
	accessPaths := func(view string) {
		if t == nil {
			return
		}
		if problems := checkAccessPaths(s, ext, view); len(problems) > 0 {
			t.Errorf("%s: %s", view, strings.Join(problems, "; "))
		}
		if comp, ok := ext.Compilation(view); ok && r.key != "" && (comp.Key != nil) != (r.key == "keyed") {
			t.Errorf("%s is keyed by %v, want %s: %s", view, comp.Key, r.key, comp.SourceSQL)
		}
	}
	for _, stmt := range append(slices.Clip(r.script), txntest.CheckViews) {
		if stmt == txntest.CheckViews {
			if diff = checkViews(exec, ext, r); diff != "" {
				return diff, log.String()
			}
			continue
		}
		exec(stmt)
		if name, ok := strings.CutPrefix(stmt, "CREATE MATERIALIZED VIEW "); ok {
			accessPaths(strings.Fields(name)[0])
		}
		if r.arm == "eager" {
			for _, v := range ext.Views() {
				exec("REFRESH MATERIALIZED VIEW " + v)
			}
		}
	}
	for _, v := range r.views {
		accessPaths(v.Name)
	}
	return "", log.String()
}

// checkViews is the oracle's check. First each group of a grouped
// aggregate view, read by its key (pointReads), reads as the query's row
// for it: the read refreshes a stale view. Then every view is refreshed
// and read beside its query in one transaction, in which no lazy refresh
// runs, so both read one snapshot. It returns the first difference.
func checkViews(exec func(string) ([]sqltypes.Row, error), ext *Extension, r replay) string {
	for _, v := range r.views {
		if d := pointReads(exec, ext, v, r.reads); d != "" {
			return d
		}
	}
	for _, v := range ext.Views() {
		exec("REFRESH MATERIALIZED VIEW " + v)
	}
	exec("BEGIN")
	defer exec("COMMIT")
	for _, v := range r.views {
		if _, ok := ext.Compilation(v.Name); !ok {
			continue // a shrunk script may not create it
		}
		got, _ := exec("SELECT * FROM " + v.Name)
		want, _ := exec(v.Def)
		if d := rowsDiff(got, want); d != "" {
			return fmt.Sprintf("view %s (%s) differs from its query\n%s", v.Name, v.Def, d)
		}
	}
	return ""
}

// rowsDiff is the oracle's compare: "" when got and want hold the same
// rows in any order under SQL equality, which finds -0.0 equal to 0.0 (as
// sqltypes.EncodeKey does: a view row shows the zero its key stored
// first); otherwise both, sorted.
func rowsDiff(got, want []sqltypes.Row) string {
	if g, w := sortedRows(got), sortedRows(want); g != w {
		return " got: " + g + "\nwant: " + w
	}
	return ""
}

// sortedRows renders rows sorted, one a line. A string is quoted, so that
// no two rows render alike, and a zero DOUBLE renders without its sign.
func sortedRows(rows []sqltypes.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			switch {
			case v.T == sqltypes.TypeString:
				vals[j] = strconv.Quote(v.S)
			case v.T == sqltypes.TypeFloat && v.Float() == 0:
				vals[j] = "0.0"
			default:
				vals[j] = v.String()
			}
		}
		out[i] = strings.Join(vals, "|")
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// groupKeyed reports whether comp is an aggregate with a GROUP BY, whose
// groups a point read finds through V's key.
func groupKeyed(comp *ivm.Compilation) bool {
	return (comp.Class == ivm.ClassAggregate || comp.Class == ivm.ClassJoinAggregate) && len(comp.GroupColumns()) > 0
}

// groupWhere selects the group of row r of comp's view, by equality on
// each key column or (expr) on an expression of it that no index answers.
// ok is false when a key value is NULL, which no equality selects.
func groupWhere(comp *ivm.Compilation, r sqltypes.Row, expr bool) (where string, ok bool) {
	var conds []string
	for i, col := range comp.Columns {
		switch {
		case !col.IsGroupKey:
			continue
		case r[i].T == sqltypes.TypeNull:
			return "", false
		case expr && col.Type == sqltypes.TypeString:
			conds = append(conds, col.Name+" || '' = "+r[i].SQLLiteral())
		case expr:
			conds = append(conds, col.Name+" + 0 = "+r[i].SQLLiteral())
		default:
			conds = append(conds, col.Name+" = "+r[i].SQLLiteral())
		}
	}
	return strings.Join(conds, " AND "), true
}

// absentGroup is a row of comp's view whose group no write makes.
func absentGroup(comp *ivm.Compilation) sqltypes.Row {
	r := make(sqltypes.Row, len(comp.Columns))
	for i, col := range comp.Columns {
		switch col.Type {
		case sqltypes.TypeString:
			r[i] = sqltypes.NewString("zz")
		case sqltypes.TypeFloat:
			r[i] = sqltypes.NewFloat(99.5)
		default:
			r[i] = sqltypes.NewInt(99)
		}
	}
	return r
}

// pointReads reads two groups of a grouped aggregate view that its query
// holds, and one it does not, by key (false in reads) and by an expression
// of the key (true); each must read as the query's row, or as nothing.
func pointReads(exec func(string) ([]sqltypes.Row, error), ext *Extension, v txntest.View, reads []bool) string {
	comp, ok := ext.Compilation(v.Name)
	if !ok || !groupKeyed(comp) {
		return ""
	}
	rows, err := exec(v.Def)
	if err != nil {
		return ""
	}
	n := min(2, len(rows))
	groups := append(rows[:n:n], absentGroup(comp))
	for i, r := range groups {
		var want []sqltypes.Row
		if i < n {
			want = []sqltypes.Row{r}
		}
		for _, expr := range reads {
			where, ok := groupWhere(comp, r, expr)
			if !ok {
				continue
			}
			if got, err := exec("SELECT * FROM " + v.Name + " WHERE " + where); err == nil {
				if d := rowsDiff(got, want); d != "" {
					return fmt.Sprintf("view %s (%s) read by %s\n%s", v.Name, v.Def, where, d)
				}
			}
		}
	}
	return ""
}

// checkAccessPaths returns each way view's refresh or point read strays
// from its access path. Step 3, the last delete from V, finds the groups
// or rows it deletes through V's key, a NULL key too (KeyedDelete). Step
// 2's SELECT reads no V: its upsert's key probe is the only place it finds
// a row of V. A point read of a grouped aggregate by key probes V's key
// index, and one by an expression of the key scans V.
func checkAccessPaths(s *engine.Session, ext *Extension, view string) (problems []string) {
	comp, ok := ext.Compilation(view)
	if !ok || len(comp.GroupColumns()) == 0 {
		return nil // a scalar aggregate's one row needs no key
	}
	explain := func(sql string) []string {
		res, err := s.Exec("EXPLAIN " + sql)
		if err != nil {
			problems = append(problems, err.Error())
			return []string{""}
		}
		lines := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			lines[i] = r[0].S
		}
		return lines
	}
	step3 := ""
	for _, st := range comp.Propagate.Stmts {
		if sql := st.SQL(); strings.HasPrefix(sql, "DELETE FROM "+comp.Storage+" USING ") {
			step3 = sql
		}
	}
	if step3 == "" {
		problems = append(problems, "no step 3")
	} else if got := strings.Fields(explain(step3)[0]); len(got) == 0 || got[0] != "KeyedDelete" {
		problems = append(problems, fmt.Sprintf("step 3 runs as %q", got))
	}
	if _, sel := step2(comp); sel != "" {
		if reads := readsOf(explain(sel), comp.Storage); len(reads) > 0 {
			problems = append(problems, fmt.Sprintf("step 2 reads V outside its upsert: %q", reads))
		}
	}
	if groupKeyed(comp) {
		for expr, want := range map[bool]string{false: " KeyedScan " + comp.Storage + "[pk] keys=1 ", true: " Scan " + comp.Storage + " "} {
			where, _ := groupWhere(comp, absentGroup(comp), expr)
			if plan := " " + strings.Join(explain("SELECT * FROM "+view+" WHERE "+where), " ") + " "; !strings.Contains(plan, want) {
				problems = append(problems, fmt.Sprintf("the point read by %s explains as %s, want %s", where, plan, want))
			}
		}
	}
	if len(problems) > 0 {
		problems = append(problems, "view: "+comp.SourceSQL)
	}
	return problems
}

// step2 returns the view's step 2, the upsert into V, and its SELECT: the
// delta grouped by V's key, without the ON CONFLICT clause. Both are ""
// when its body has none.
func step2(comp *ivm.Compilation) (stmt, sel string) {
	for _, st := range comp.Body.Stmts {
		if ins, ok := st.(*duckast.Insert); ok && len(ins.Set) > 0 {
			return ins.SQL(), ins.Select.SQL()
		}
	}
	return "", ""
}

// readsOf returns the lines of an EXPLAIN that read the table storage.
func readsOf(plan []string, storage string) []string {
	var reads []string
	for _, line := range plan {
		if line = strings.TrimSpace(line); strings.Contains(line, " "+storage) {
			reads = append(reads, line)
		}
	}
	return reads
}

// TestJoinDeltaStrategies: a join-aggregate view on keyed, indexed bases
// equals its query while the pending delta runs from a few rows to several
// times the base table, so the script's joins run on both sides of the
// index-join threshold: Δo ⋈ c through c's primary key or a hash of Δo,
// o ⋈ Δc through the user's index on the foreign key or a scan of o.
// EXPLAIN of the two delta terms, asked just before each refresh, says
// which way that refresh goes; every strategy must have been taken.
func TestJoinDeltaStrategies(t *testing.T) {
	db := engine.Open("prop", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE c (cid INTEGER PRIMARY KEY, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE o (oid INTEGER PRIMARY KEY, cid INTEGER, amt INTEGER)")
	mustExec(t, db, "CREATE INDEX o_cid ON o (cid)")
	const customers = 64
	rng := rand.New(rand.NewSource(37))
	for cid := 0; cid < customers; cid++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO c VALUES (%d, 'r%d')", cid, rng.Intn(4)))
	}
	var live []int // oids present in o
	nextO := 0
	insertOrder := func() {
		mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d)", nextO, rng.Intn(customers+4), rng.Intn(100)))
		live = append(live, nextO)
		nextO++
	}
	for i := 0; i < 300; i++ {
		insertOrder()
	}
	const def = "SELECT o.cid, c.region, SUM(o.amt) AS total, COUNT(*) AS n FROM o JOIN c ON o.cid = c.cid GROUP BY o.cid, c.region"
	mustExec(t, db, "CREATE MATERIALIZED VIEW ja AS "+def)

	taken := map[string]int{}
	tally := func(term, sql string) {
		for _, r := range mustExec(t, db, "EXPLAIN "+sql).Rows {
			if line := strings.TrimSpace(r[0].S); strings.Contains(line, "JOIN") {
				taken[term+" "+strings.Fields(line)[0]]++
			}
		}
	}
	for round, sizes := 0, []int{1, 2, 7, 9, 40, 250}; round < 36; round++ {
		for n := sizes[rng.Intn(len(sizes))]; n > 0; n-- {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0:
				insertOrder()
			case op < 7:
				j := rng.Intn(len(live))
				mustExec(t, db, fmt.Sprintf("DELETE FROM o WHERE oid = %d", live[j]))
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 9:
				mustExec(t, db, fmt.Sprintf("UPDATE o SET amt = %d, cid = %d WHERE oid = %d",
					rng.Intn(100), rng.Intn(customers+4), live[rng.Intn(len(live))]))
			default:
				mustExec(t, db, fmt.Sprintf("UPDATE c SET region = 'r%d' WHERE cid = %d", rng.Intn(4), rng.Intn(customers)))
			}
		}
		if round%4 == 3 { // a burst of customer moves: a large Δc
			for n := sizes[rng.Intn(len(sizes))]; n > 0; n-- {
				mustExec(t, db, fmt.Sprintf("UPDATE c SET region = 'r%d' WHERE cid = %d", rng.Intn(4), rng.Intn(customers)))
			}
		}
		tally("Δo⋈c", "SELECT c.region FROM delta_o AS o JOIN c ON (o.cid = c.cid)")
		tally("o⋈Δc", "SELECT o.amt FROM o JOIN delta_c AS c ON (o.cid = c.cid)")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW ja")
		viewEquals(t, db, "*", "ja", def)
	}
	for _, want := range []string{"Δo⋈c IndexJoin", "Δo⋈c HashJoin", "o⋈Δc IndexJoin", "o⋈Δc HashJoin"} {
		if taken[want] == 0 {
			t.Errorf("no refresh ran %s: %v", want, taken)
		}
	}
}

// TestExplainViewPointRead: the benchmark's point reads of an aggregate
// view — inlined key and prepared `$1` — go through the key index of the
// view's storage, beneath the plain view that reads its SUM through the
// SUM's count.
func TestExplainViewPointRead(t *testing.T) {
	db := engine.Open("bench", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)")
	mustExec(t, db, "INSERT INTO groups VALUES (1, 'g0123', 5), (2, 'g0123', 6), (3, 'g0001', 7)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index")
	comp, _ := ext.Compilation("query_groups")
	s := db.NewSession()
	defer s.Close()
	s.BindParams([]sqltypes.Value{sqltypes.NewString("g0123")})
	for _, q := range []string{
		"SELECT total_value, n FROM query_groups WHERE group_index = 'g0123'",
		"SELECT total_value, n FROM query_groups WHERE group_index = $1",
	} {
		res, err := s.Exec("EXPLAIN " + q)
		if err != nil {
			t.Fatal(err)
		}
		if plan := fmt.Sprint(res.Rows); !strings.Contains(plan, " KeyedScan "+comp.Storage+"[pk] keys=1 [filter: ") {
			t.Errorf("EXPLAIN %s: %s", q, plan)
		}
		if res, err = s.Exec(q); err != nil || len(res.Rows) != 1 || res.Rows[0].String() != "11|2" {
			t.Errorf("%s: %v, %v", q, res, err)
		}
	}
}

// TestExplainStep2ReadsDeltaDirectly: step 2 of an aggregate view's script
// reads the delta through no Project that passes its input through — a CTE's
// own select list and its reference each made one, and step 2 has no CTE —
// so its plan's only Projects are the root, which names the result, and a
// join-aggregate view's three product-rule terms, each its select list over
// its join. It reads V nowhere: the upsert into V finds each group's row
// through V's key, for an aggregate and a join-aggregate view whose group
// keys are nullable.
func TestExplainStep2ReadsDeltaDirectly(t *testing.T) {
	db := engine.Open("step2", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)")
	mustExec(t, db, "CREATE TABLE tags (id INTEGER, tag VARCHAR)")
	mustExec(t, db, "INSERT INTO groups VALUES (1, 'g0123', 5), (2, 'g0001', 7), (3, NULL, 9)")
	mustExec(t, db, "INSERT INTO tags VALUES (1, 'x'), (3, NULL)")
	mustExec(t, db, "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY group_index")
	mustExec(t, db, "CREATE MATERIALIZED VIEW tag_groups AS SELECT tags.tag, groups.group_index, SUM(groups.group_value) AS total_value, COUNT(*) AS n FROM groups JOIN tags ON groups.id = tags.id GROUP BY tags.tag, groups.group_index")
	for view, terms := range map[string]int{"query_groups": 0, "tag_groups": 3} {
		comp, _ := ext.Compilation(view)
		stmt, sel := step2(comp)
		var plan, projects []string
		for _, r := range mustExec(t, db, "EXPLAIN "+sel).Rows {
			plan = append(plan, r[0].S)
			if line := strings.TrimSpace(r[0].S); strings.HasPrefix(line, "Project ") {
				projects = append(projects, line)
			}
		}
		if len(projects) != 1+terms {
			t.Errorf("%s: step 2 plans %d Projects, want the root and %d terms: %q", view, len(projects), terms, projects)
		}
		if got := readsOf(plan, comp.Storage); len(got) != 0 {
			t.Errorf("%s: step 2 reads V outside its upsert: %q", view, got)
		}
		if got := mustExec(t, db, "EXPLAIN "+stmt).Rows[0][0].S; got != "Upsert "+comp.Storage {
			t.Errorf("%s: step 2 explains as %q, want the upsert into V", view, got)
		}
	}
}
