package ivmext

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"openivm/internal/duckast"
	"openivm/internal/engine"
	"openivm/internal/sqltypes"
)

// The central IVM correctness invariant, exercised by randomized workloads:
// after any interleaving of INSERT/DELETE/UPDATE batches and refreshes, the
// maintained view equals recomputing its query from scratch.

// randWorkload drives n random DML statements through write (armWrite)
// against table "t" with columns (k VARCHAR, v INTEGER), refreshing the
// view at random points.
func randWorkload(t *testing.T, db *engine.DB, write func(sql string), rng *rand.Rand, n int, view, viewCols, recompute string) {
	t.Helper()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		v := rng.Intn(41) - 20
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // insert-heavy
			write(fmt.Sprintf("INSERT INTO t VALUES ('%s', %d)", k, v))
		case 5, 6:
			write(fmt.Sprintf("DELETE FROM t WHERE k = '%s' AND v = %d", k, v))
		case 7:
			write(fmt.Sprintf("DELETE FROM t WHERE k = '%s'", k))
		case 8:
			write(fmt.Sprintf("UPDATE t SET v = v + %d WHERE k = '%s'", rng.Intn(7)-3, k))
		case 9:
			mustExec(t, db, "REFRESH MATERIALIZED VIEW "+view)
		}
		if rng.Intn(13) == 0 {
			checkView(t, db, i, view, viewCols, recompute)
		}
	}
	checkView(t, db, n, view, viewCols, recompute)
}

func checkView(t *testing.T, db *engine.DB, step int, view, viewCols, recompute string) {
	t.Helper()
	got := mustExec(t, db, "SELECT "+viewCols+" FROM "+view).Rows
	want := mustExec(t, db, recompute).Rows
	g := make([]string, len(got))
	for i, r := range got {
		g[i] = r.String()
	}
	w := make([]string, len(want))
	for i, r := range want {
		w[i] = r.String()
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("step %d: view %s diverged\n got: %v\nwant: %v", step, view, g, w)
	}
}

// armWrite returns how a test arm runs its writes. The "lazy" arm runs a
// write alone: a view refreshes when a statement reads it stale or the
// workload refreshes it. The "eager" arm follows each write with REFRESH
// MATERIALIZED VIEW of every view there is, so each write is its own
// refresh window.
func armWrite(t *testing.T, ext *Extension, mode string) func(sql string) {
	return func(sql string) {
		t.Helper()
		mustExec(t, ext.db, sql)
		refreshAfterWrite(t, ext, mode)
	}
}

// refreshAfterWrite is what a write of arm mode runs after its statement
// (armWrite).
func refreshAfterWrite(t *testing.T, ext *Extension, mode string) {
	t.Helper()
	if mode != "eager" {
		return
	}
	for _, v := range ext.Views() {
		mustExec(t, ext.db, "REFRESH MATERIALIZED VIEW "+v)
	}
}

func propertyDB(t *testing.T) (*engine.DB, *Extension) {
	t.Helper()
	db := engine.Open("prop", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE t (k VARCHAR, v INTEGER)")
	return db, ext
}

// TestPropertySumCount: a SUM/COUNT view under Listing 2's upsert-left-join
// combine, lazy and eager, grouped and without GROUP BY (one row, folded in
// place).
func TestPropertySumCount(t *testing.T) {
	for _, mode := range []string{"lazy", "eager"} {
		for _, shape := range []struct{ name, key, groupBy string }{
			{"upsert_left_join_", "k, ", " GROUP BY k"},
			{"no_group_by_", "", ""},
		} {
			t.Run(shape.name+mode, func(t *testing.T) {
				db, ext := propertyDB(t)
				mustExec(t, db, "CREATE MATERIALIZED VIEW vw AS SELECT "+shape.key+
					"SUM(v) AS s, COUNT(*) AS n FROM t"+shape.groupBy)
				rng := rand.New(rand.NewSource(int64(16 + len(mode))))
				randWorkload(t, db, armWrite(t, ext, mode), rng, 120, "vw", shape.key+"s, n",
					"SELECT "+shape.key+"SUM(v), COUNT(*) FROM t"+shape.groupBy)
			})
		}
	}
}

// TestPropertyMinMax: MIN/MAX views equal their queries after random
// histories: grouped with a declared COUNT(*) and with the hidden count
// (step 3 tests either), and without GROUP BY, whose one row keeps no
// count and is recomputed whole on a deletion.
func TestPropertyMinMax(t *testing.T) {
	for i, c := range []struct{ cols, def, recompute string }{
		{"k, lo, hi, n", "SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k", "SELECT k, MIN(v), MAX(v), COUNT(*) FROM t GROUP BY k"},
		{"k, hi", "SELECT k, MAX(v) AS hi FROM t GROUP BY k", "SELECT k, MAX(v) FROM t GROUP BY k"},
		{"lo, hi", "SELECT MIN(v) AS lo, MAX(v) AS hi FROM t", "SELECT MIN(v), MAX(v) FROM t"},
	} {
		db, ext := propertyDB(t)
		mustExec(t, db, "CREATE MATERIALIZED VIEW mm AS "+c.def)
		rng := rand.New(rand.NewSource(int64(7 + i)))
		randWorkload(t, db, armWrite(t, ext, "lazy"), rng, 150, "mm", c.cols, c.recompute)
	}
}

func TestPropertyFilteredAggregate(t *testing.T) {
	db, ext := propertyDB(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW pf AS SELECT k,
		SUM(v) AS s, COUNT(*) AS n FROM t WHERE v > 0 GROUP BY k`)
	rng := rand.New(rand.NewSource(11))
	randWorkload(t, db, armWrite(t, ext, "lazy"), rng, 150, "pf", "k, s, n",
		"SELECT k, SUM(v), COUNT(*) FROM t WHERE v > 0 GROUP BY k")
}

func TestPropertyProjectionDistinctRows(t *testing.T) {
	// Projection views assume row-identity (no duplicate rows); give each
	// row a unique id so the workload respects that.
	db := engine.Open("prop", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE t (id INTEGER, k VARCHAR, v INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW pv AS SELECT id, k, v FROM t WHERE v >= 10`)
	rng := rand.New(rand.NewSource(13))
	next := 0
	for i := 0; i < 150; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 'k%d', %d)", next, rng.Intn(4), rng.Intn(30)))
			next++
		case 2:
			if next > 0 {
				mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE id = %d", rng.Intn(next)))
			}
		case 3:
			if next > 0 {
				mustExec(t, db, fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", rng.Intn(30), rng.Intn(next)))
			}
		}
		if rng.Intn(11) == 0 {
			checkView(t, db, i, "pv", "id, k, v", "SELECT id, k, v FROM t WHERE v >= 10")
		}
	}
	checkView(t, db, 150, "pv", "id, k, v", "SELECT id, k, v FROM t WHERE v >= 10")
}

func TestPropertyJoin(t *testing.T) {
	db := engine.Open("prop", engine.DialectDuckDB)
	Install(db)
	mustExec(t, db, "CREATE TABLE c (cid INTEGER, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE o (oid INTEGER, cid INTEGER, amt INTEGER)")
	mustExec(t, db, `CREATE MATERIALIZED VIEW jv AS
		SELECT o.oid, c.region, o.amt FROM o JOIN c ON o.cid = c.cid`)
	recompute := "SELECT o.oid, c.region, o.amt FROM o JOIN c ON o.cid = c.cid"
	rng := rand.New(rand.NewSource(17))
	nextC, nextO := 0, 0
	for i := 0; i < 150; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			mustExec(t, db, fmt.Sprintf("INSERT INTO c VALUES (%d, 'r%d')", nextC, rng.Intn(3)))
			nextC++
		case 2, 3, 4:
			if nextC > 0 {
				mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d)", nextO, rng.Intn(nextC), rng.Intn(100)))
				nextO++
			}
		case 5:
			if nextO > 0 {
				mustExec(t, db, fmt.Sprintf("DELETE FROM o WHERE oid = %d", rng.Intn(nextO)))
			}
		case 6:
			if nextC > 0 {
				mustExec(t, db, fmt.Sprintf("DELETE FROM c WHERE cid = %d", rng.Intn(nextC)))
			}
		case 7:
			if nextC > 0 {
				mustExec(t, db, fmt.Sprintf("UPDATE c SET region = 'r%d' WHERE cid = %d", rng.Intn(3), rng.Intn(nextC)))
			}
		}
		if rng.Intn(11) == 0 {
			checkView(t, db, i, "jv", "oid, region, amt", recompute)
		}
	}
	checkView(t, db, 150, "jv", "oid, region, amt", recompute)
}

// TestPropertyFilteredJoin: a join view with WHERE conjuncts on both sides
// (its delta terms filter each side before they join) equals its recompute
// after any interleaving of writes to both sides, lazy and eager; updates
// move rows across both conjuncts' boundaries.
func TestPropertyFilteredJoin(t *testing.T) {
	for _, mode := range []string{"lazy", "eager"} {
		t.Run(mode, func(t *testing.T) {
			db := engine.Open("prop", engine.DialectDuckDB)
			ext := Install(db)
			mustExec(t, db, "CREATE TABLE c (cid INTEGER, region VARCHAR)")
			mustExec(t, db, "CREATE TABLE o (oid INTEGER, cid INTEGER, amt INTEGER)")
			const def = "SELECT o.oid, c.region, o.amt FROM o JOIN c ON o.cid = c.cid WHERE c.region <> 'r0' AND o.amt >= 30"
			mustExec(t, db, "CREATE MATERIALIZED VIEW fj AS "+def)
			write := armWrite(t, ext, mode)
			rng := rand.New(rand.NewSource(int64(43 + len(mode))))
			nextC, nextO := 0, 0
			for i := 0; i < 150; i++ {
				switch rng.Intn(9) {
				case 0, 1:
					write(fmt.Sprintf("INSERT INTO c VALUES (%d, 'r%d')", nextC, rng.Intn(3)))
					nextC++
				case 2, 3, 4:
					if nextC > 0 {
						write(fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d)", nextO, rng.Intn(nextC), rng.Intn(100)))
						nextO++
					}
				case 5:
					if nextO > 0 {
						write(fmt.Sprintf("DELETE FROM o WHERE oid = %d", rng.Intn(nextO)))
					}
				case 6:
					if nextC > 0 {
						write(fmt.Sprintf("UPDATE c SET region = 'r%d' WHERE cid = %d", rng.Intn(3), rng.Intn(nextC)))
					}
				case 7:
					if nextO > 0 {
						write(fmt.Sprintf("UPDATE o SET amt = %d WHERE oid = %d", rng.Intn(100), rng.Intn(nextO)))
					}
				case 8:
					mustExec(t, db, "REFRESH MATERIALIZED VIEW fj")
				}
				if rng.Intn(11) == 0 {
					checkView(t, db, i, "fj", "oid, region, amt", def)
				}
			}
			checkView(t, db, 150, "fj", "oid, region, amt", def)
		})
	}
}

// TestPropertyJoinAggregate: a join-aggregate view under Listing 2's
// upsert-left-join combine.
func TestPropertyJoinAggregate(t *testing.T) {
	t.Run("upsert_left_join", func(t *testing.T) {
		db := engine.Open("prop", engine.DialectDuckDB)
		Install(db)
		mustExec(t, db, "CREATE TABLE c (cid INTEGER, region VARCHAR)")
		mustExec(t, db, "CREATE TABLE o (oid INTEGER, cid INTEGER, amt INTEGER)")
		mustExec(t, db, `CREATE MATERIALIZED VIEW ja AS
			SELECT c.region, SUM(o.amt) AS total, COUNT(*) AS n
			FROM o JOIN c ON o.cid = c.cid GROUP BY c.region`)
		recompute := `SELECT c.region, SUM(o.amt), COUNT(*)
			FROM o JOIN c ON o.cid = c.cid GROUP BY c.region`
		rng := rand.New(rand.NewSource(23))
		nextC, nextO := 0, 0
		for i := 0; i < 120; i++ {
			switch rng.Intn(8) {
			case 0, 1:
				mustExec(t, db, fmt.Sprintf("INSERT INTO c VALUES (%d, 'r%d')", nextC, rng.Intn(3)))
				nextC++
			case 2, 3, 4:
				if nextC > 0 {
					mustExec(t, db, fmt.Sprintf("INSERT INTO o VALUES (%d, %d, %d)", nextO, rng.Intn(nextC), rng.Intn(100)))
					nextO++
				}
			case 5:
				if nextO > 0 {
					mustExec(t, db, fmt.Sprintf("DELETE FROM o WHERE oid = %d", rng.Intn(nextO)))
				}
			case 6:
				if nextC > 0 {
					mustExec(t, db, fmt.Sprintf("DELETE FROM c WHERE cid = %d", rng.Intn(nextC)))
				}
			case 7:
				mustExec(t, db, "REFRESH MATERIALIZED VIEW ja")
			}
			if rng.Intn(11) == 0 {
				checkView(t, db, i, "ja", "region, total, n", recompute)
			}
		}
		checkView(t, db, 120, "ja", "region, total, n", recompute)
	})
}

func TestPropertyTwoViewsSharedBase(t *testing.T) {
	db, _ := propertyDB(t)
	mustExec(t, db, `CREATE MATERIALIZED VIEW s1 AS SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k`)
	mustExec(t, db, `CREATE MATERIALIZED VIEW s2 AS SELECT k, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k`)
	rng := rand.New(rand.NewSource(29))
	keys := []string{"a", "b", "c"}
	for i := 0; i < 120; i++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0, 1, 2, 3:
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES ('%s', %d)", k, rng.Intn(50)))
		case 4:
			mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE k = '%s' AND v < %d", k, rng.Intn(25)))
		case 5:
			mustExec(t, db, "REFRESH MATERIALIZED VIEW s1")
		}
		if rng.Intn(9) == 0 {
			checkView(t, db, i, "s1", "k, s, n", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
			checkView(t, db, i, "s2", "k, hi, n", "SELECT k, MAX(v), COUNT(*) FROM t GROUP BY k")
		}
	}
	checkView(t, db, 120, "s1", "k, s, n", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k")
	checkView(t, db, 120, "s2", "k, hi, n", "SELECT k, MAX(v), COUNT(*) FROM t GROUP BY k")
}

// TestPropertyJoinWindowSizes is the join invariant on keyed, indexed base
// tables with the pending delta drawn from a few rows to several times the
// base table, so the script's joins run on both sides of the index-join
// threshold: Δo ⋈ c through c's primary key or a hash of Δo, o ⋈ Δc
// through the user's index on the foreign key or a scan of o, ivm_cte LEFT
// JOIN V through V's composite key or a hash. EXPLAIN of the two delta
// terms, asked just before each refresh, says which way that refresh goes;
// the test requires every strategy to have been taken.
func TestPropertyJoinWindowSizes(t *testing.T) {
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
	mustExec(t, db, `CREATE MATERIALIZED VIEW ja AS
		SELECT o.cid, c.region, SUM(o.amt) AS total, COUNT(*) AS n
		FROM o JOIN c ON o.cid = c.cid GROUP BY o.cid, c.region`)
	recompute := `SELECT o.cid, c.region, SUM(o.amt), COUNT(*)
		FROM o JOIN c ON o.cid = c.cid GROUP BY o.cid, c.region`

	taken := map[string]int{}
	tally := func(term, sql string) {
		for _, r := range mustExec(t, db, "EXPLAIN "+sql).Rows {
			line := strings.TrimSpace(r[0].S)
			if strings.Contains(line, "JOIN") {
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
		checkView(t, db, round, "ja", "cid, region, total, n", recompute)
	}
	for _, want := range []string{"Δo⋈c IndexJoin", "Δo⋈c HashJoin", "o⋈Δc IndexJoin", "o⋈Δc HashJoin"} {
		if taken[want] == 0 {
			t.Errorf("no refresh ran %s: %v", want, taken)
		}
	}
}

// step3Access returns how the engine finds the rows of the view's step 3
// (the emptied-group delete of its propagation script, the last delete
// from V; a MIN/MAX view has none, and its repair's delete stands in): the
// first word of its EXPLAIN line.
func step3Access(t *testing.T, db *engine.DB, ext *Extension, view string) string {
	t.Helper()
	comp, _ := ext.Compilation(view)
	for i := len(comp.Propagate.Stmts) - 1; i >= 0; i-- {
		if stmt := comp.Propagate.Stmts[i].SQL(); strings.HasPrefix(stmt, "DELETE FROM "+comp.Storage+" USING ") {
			return strings.Fields(mustExec(t, db, "EXPLAIN "+stmt).Rows[0][0].S)[0]
		}
	}
	t.Fatalf("no step 3 in the script of %s:\n%s", view, comp.PropagateSQL())
	return ""
}

// step2Select returns the view's step 2 statement, the upsert, and its
// SELECT (the delta grouped by V's key, without the ON CONFLICT clause).
func step2Select(t *testing.T, ext *Extension, view string) (stmt, sel string) {
	t.Helper()
	comp, _ := ext.Compilation(view)
	for _, st := range comp.Body.Stmts {
		if ins, ok := st.(*duckast.Insert); ok && len(ins.Set) > 0 {
			return ins.SQL(), ins.Select.SQL()
		}
	}
	t.Fatalf("no step 2 in the script of %s:\n%s", view, comp.PropagateSQL())
	return "", ""
}

// step2ReadsV returns the lines of the EXPLAIN of step 2's SELECT that
// read V, whose storage table is storage: none, since the upsert's own key
// probe is the only place step 2 finds a group's row of V.
func step2ReadsV(t *testing.T, db *engine.DB, ext *Extension, view, storage string) []string {
	t.Helper()
	_, sel := step2Select(t, ext, view)
	var reads []string
	for _, r := range mustExec(t, db, "EXPLAIN "+sel).Rows {
		if line := strings.TrimSpace(r[0].S); strings.Contains(line, " "+storage) {
			reads = append(reads, line)
		}
	}
	return reads
}

// TestPropertyEmptiedGroups is the invariant for step 3 — groups whose
// count reaches zero leave the view, found through the keys ΔT retracts —
// on a single and a composite group key, lazy and eager, through V's key
// index, with no NULL-keyed group in V (upsert_left_join, the combine that
// gives V its key) and with one that stays in the view throughout
// (null_key: the NULL-safe lookup finds it through the index too, so step
// 3 stays keyed).
// A scripted prefix empties a group, then empties and refills one inside a
// single generation; a random workload that keeps deleting whole groups
// follows.
func TestPropertyEmptiedGroups(t *testing.T) {
	type shape struct{ name, def, cols, recompute string }
	shapes := []shape{
		{"single", "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k", "k, s, n",
			"SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k"},
		{"composite", "SELECT k, w, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k, w", "k, w, s, n",
			"SELECT k, w, SUM(v), COUNT(*) FROM t GROUP BY k, w"},
		// No COUNT(*): the hidden count empties the group, whose SUM
		// (values from -20 to 20) often nets to 0 while it has rows.
		{"sum_only", "SELECT k, SUM(v) AS s FROM t GROUP BY k", "k, s",
			"SELECT k, SUM(v) FROM t GROUP BY k"},
	}
	for arm, nullKey := range map[string]bool{"upsert_left_join": false, "null_key": true} {
		for _, mode := range []string{"lazy", "eager"} {
			for _, sh := range shapes {
				t.Run(arm+"_"+mode+"_"+sh.name, func(t *testing.T) {
					db := engine.Open("prop", engine.DialectDuckDB)
					ext := Install(db)
					mustExec(t, db, "CREATE TABLE t (k VARCHAR, w INTEGER, v INTEGER)")
					mustExec(t, db, "INSERT INTO t VALUES ('a', 1, 5), ('a', 1, 6), ('a', 2, 7), ('b', 1, 8), ('c', 3, 9)")
					write := armWrite(t, ext, mode)
					// The workload never deletes a row whose k is NULL.
					keepNull := func() {
						if nullKey {
							write("INSERT INTO t VALUES (NULL, NULL, 1)")
						}
					}
					keepNull()
					mustExec(t, db, "CREATE MATERIALIZED VIEW vw AS "+sh.def)
					if got := step3Access(t, db, ext, "vw"); got != "KeyedDelete" {
						t.Errorf("step 3 runs as %s", got)
					}
					step := 0
					check := func() {
						t.Helper()
						mustExec(t, db, "REFRESH MATERIALIZED VIEW vw")
						checkView(t, db, step, "vw", sh.cols, sh.recompute)
						step++
					}
					// A group reaches zero.
					write("DELETE FROM t WHERE k = 'c'")
					check()
					if n := len(mustExec(t, db, "SELECT * FROM vw WHERE k = 'c'").Rows); n != 0 {
						t.Fatalf("emptied group c still has %d rows in the view", n)
					}
					// A group reaches zero and reappears in the same generation.
					write("DELETE FROM t WHERE k = 'a'")
					write("INSERT INTO t VALUES ('a', 1, 40)")
					check()
					// ... reappears and empties again.
					write("INSERT INTO t VALUES ('c', 3, 1), ('d', 4, 2)")
					write("DELETE FROM t WHERE k = 'c'")
					check()
					// Every group at once, then a fresh start.
					write("DELETE FROM t")
					check()
					if n := len(mustExec(t, db, "SELECT * FROM vw").Rows); n != 0 {
						t.Fatalf("the emptied view holds %d rows", n)
					}
					keepNull()

					rng := rand.New(rand.NewSource(int64(57 + len(mode) + len(sh.name))))
					keys := []string{"a", "b", "c", "d", "e"}
					for i := 0; i < 160; i++ {
						k, w := keys[rng.Intn(len(keys))], rng.Intn(3)
						switch rng.Intn(10) {
						case 0, 1, 2, 3, 4:
							write(fmt.Sprintf("INSERT INTO t VALUES ('%s', %d, %d)", k, w, rng.Intn(41)-20))
						case 5:
							write(fmt.Sprintf("DELETE FROM t WHERE k = '%s' AND w = %d", k, w))
						case 6:
							write(fmt.Sprintf("DELETE FROM t WHERE k = '%s'", k))
						case 7:
							write(fmt.Sprintf("UPDATE t SET w = %d WHERE k = '%s' AND w = %d", rng.Intn(3), k, w))
						case 8:
							write(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k = '%s'", k))
						case 9:
							check()
						}
					}
					check()
				})
			}
		}
	}
}

// TestPropertyNullGroups: groups whose key holds a NULL are maintained like
// any other — step 2 finds their row of V through IS NOT DISTINCT FROM,
// the MIN/MAX repair recomputes them, and step 3 removes them once emptied
// (a plain `g IN (SELECT g FROM ΔT)` would never select them) — on a
// single and a composite key, a MIN/MAX view and a join-aggregate view,
// each declaring COUNT(*) (count_star) and not (hidden_count: the hidden
// row count, behind a plain view); the whole view is compared. A subtest
// is named <count>_duckdb_<shape>: the extension in the engine, the
// paper's DuckDB mode. Steps 2 and 3 probe V's key index throughout, NULL
// keys included.
func TestPropertyNullGroups(t *testing.T) {
	type shape struct{ name, def, cols, recompute, keyNull string }
	const join = "SELECT t.k, SUM(t.v) AS s, COUNT(*) AS n FROM t JOIN d ON t.w = d.w GROUP BY t.k"
	shapes := []shape{
		{"single", "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k", "k, s, n",
			"SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k", "k IS NULL"},
		{"composite", "SELECT k, w, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k, w", "k, w, s, n",
			"SELECT k, w, SUM(v), COUNT(*) FROM t GROUP BY k, w", "k IS NULL OR w IS NULL"},
		{"minmax", "SELECT k, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k", "k, lo, hi, n",
			"SELECT k, MIN(v), MAX(v), COUNT(*) FROM t GROUP BY k", "k IS NULL"},
		{"join", join, "k, s, n", join, "k IS NULL"},
	}
	for _, count := range []string{"count_star", "hidden_count"} {
		for _, sh := range shapes {
			if count == "hidden_count" {
				sh.def = strings.Replace(sh.def, ", COUNT(*) AS n", "", 1)
				sh.cols = strings.TrimSuffix(sh.cols, ", n")
				sh.recompute = strings.Replace(strings.Replace(sh.recompute, ", COUNT(*) AS n", "", 1), ", COUNT(*)", "", 1)
			}
			t.Run(count+"_duckdb_"+sh.name, func(t *testing.T) {
				db := engine.Open("prop", engine.DialectDuckDB)
				ext := Install(db)
				mustExec(t, db, "CREATE TABLE t (k VARCHAR, w INTEGER, v INTEGER)")
				mustExec(t, db, "CREATE TABLE d (w INTEGER, z INTEGER)")
				mustExec(t, db, "INSERT INTO d VALUES (1, 10), (2, 20)")
				mustExec(t, db, "INSERT INTO t VALUES ('a', 1, 5), ('b', 1, 8), ('c', 2, 9)")
				mustExec(t, db, "CREATE MATERIALIZED VIEW vw AS "+sh.def)
				if got := step3Access(t, db, ext, "vw"); got != "KeyedDelete" {
					t.Errorf("no NULL key in the view yet, step 3 runs as %s", got)
				}
				step := 0
				check := func() {
					t.Helper()
					mustExec(t, db, "REFRESH MATERIALIZED VIEW vw")
					checkView(t, db, step, "vw", sh.cols, sh.recompute)
					step++
				}
				mustExec(t, db, "INSERT INTO t VALUES (NULL, 1, 5), (NULL, 1, 6), ('d', NULL, 7), (NULL, NULL, 1)")
				check()
				if got := step3Access(t, db, ext, "vw"); got != "KeyedDelete" {
					t.Errorf("the view holds NULL keys, step 3 runs as %s", got)
				}
				comp, _ := ext.Compilation("vw")
				if got := step2ReadsV(t, db, ext, "vw", comp.Storage); len(got) != 0 {
					t.Errorf("step 2 reads V outside its upsert: %q", got)
				}
				// A NULL group grows, and loses its least and its greatest row.
				mustExec(t, db, "INSERT INTO t VALUES (NULL, 1, 7), (NULL, 2, 2)")
				check()
				mustExec(t, db, "DELETE FROM t WHERE k IS NULL AND (v = 2 OR v = 7)")
				check()
				// The NULL groups reach zero, beside a whole-keyed one.
				mustExec(t, db, "DELETE FROM t WHERE k IS NULL OR w IS NULL OR k = 'c'")
				check()
				if n := len(mustExec(t, db, "SELECT * FROM vw WHERE k = 'c'").Rows); n != 0 {
					t.Errorf("emptied group c still has %d rows in the view", n)
				}
				if n := len(mustExec(t, db, "SELECT * FROM vw WHERE "+sh.keyNull).Rows); n != 0 {
					t.Errorf("%d emptied NULL groups are still in the view", n)
				}
				// ... and one of them comes back, then leaves again.
				mustExec(t, db, "INSERT INTO t VALUES (NULL, 1, 3), ('a', 1, 1)")
				check()
				mustExec(t, db, "DELETE FROM t WHERE k IS NULL OR k = 'a'")
				check()
			})
		}
	}
}

// TestPropertyNullRows: a projection or join view finds the rows it must
// delete through its key, all its columns, and a row holding a NULL is
// found too (a plain IN never matches it, so such a row used to stay
// forever). Values that concatenate alike stay apart: ('a|', 'b') is not
// ('a', '|b').
func TestPropertyNullRows(t *testing.T) {
	t.Run("projection", func(t *testing.T) {
		db := engine.Open("prop", engine.DialectDuckDB)
		Install(db)
		mustExec(t, db, "CREATE TABLE t (k VARCHAR, v INTEGER)")
		mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', NULL)")
		mustExec(t, db, "CREATE MATERIALIZED VIEW pv AS SELECT k, v FROM t WHERE k <> 'zz'")
		recompute := "SELECT k, v FROM t WHERE k <> 'zz'"
		mustExec(t, db, "DELETE FROM t WHERE k = 'b'")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW pv")
		checkView(t, db, 0, "pv", "k, v", recompute)

		mustExec(t, db, "INSERT INTO t VALUES (NULL, 2), (NULL, NULL), ('a|', 3), ('a', 4)")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW pv")
		checkView(t, db, 1, "pv", "k, v", recompute)
		mustExec(t, db, "DELETE FROM t WHERE v IS NULL OR v = 4")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW pv")
		checkView(t, db, 2, "pv", "k, v", recompute)
	})
	t.Run("separator", func(t *testing.T) {
		db := engine.Open("prop", engine.DialectDuckDB)
		Install(db)
		mustExec(t, db, "CREATE TABLE t (a VARCHAR, b VARCHAR)")
		mustExec(t, db, "INSERT INTO t VALUES ('a|', 'b'), ('a', '|b'), ('1', '11'), ('11', '1')")
		mustExec(t, db, "CREATE MATERIALIZED VIEW pv AS SELECT a, b FROM t")
		mustExec(t, db, "DELETE FROM t WHERE a = 'a|' OR a = '11'")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW pv")
		checkView(t, db, 0, "pv", "a, b", "SELECT a, b FROM t")
	})
	t.Run("join", func(t *testing.T) {
		db := engine.Open("prop", engine.DialectDuckDB)
		Install(db)
		mustExec(t, db, "CREATE TABLE c (cid INTEGER, region VARCHAR)")
		mustExec(t, db, "CREATE TABLE o (oid INTEGER, cid INTEGER, amt INTEGER)")
		mustExec(t, db, "INSERT INTO c VALUES (1, NULL), (2, 'eu')")
		mustExec(t, db, "INSERT INTO o VALUES (10, 1, 5), (11, 2, NULL), (12, 2, 7)")
		mustExec(t, db, `CREATE MATERIALIZED VIEW jv AS
			SELECT o.oid, c.region, o.amt FROM o JOIN c ON o.cid = c.cid`)
		recompute := "SELECT o.oid, c.region, o.amt FROM o JOIN c ON o.cid = c.cid"
		mustExec(t, db, "DELETE FROM o WHERE oid = 11")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW jv")
		checkView(t, db, 0, "jv", "oid, region, amt", recompute)
		mustExec(t, db, "DELETE FROM c WHERE cid = 1")
		mustExec(t, db, "REFRESH MATERIALIZED VIEW jv")
		checkView(t, db, 1, "jv", "oid, region, amt", recompute)
	})
}

// TestPropertyPointReads: reading a maintained view one group at a time by
// its key gives, group for group, the full-view read — after every refresh
// and, in the lazy arm, straight after the write that left the view stale (the
// point read refreshes it). A read that names the key goes through V's key
// index (index=true); the same read over an expression of the key columns
// (`k || ”`, `w + 0`) scans (index=false); absent groups read as nothing
// either way.
func TestPropertyPointReads(t *testing.T) {
	type shape struct {
		name, def, cols, recompute string
		where                      func(r []string) string
		absent                     [][]string
	}
	shapes := []shape{
		{"single", "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k", "k, s, n", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k",
			func(r []string) string { return fmt.Sprintf("k = '%s'", r[0]) }, [][]string{{"zz"}}},
		{"composite", "SELECT k, w, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k, w", "k, w, s, n", "SELECT k, w, SUM(v), COUNT(*) FROM t GROUP BY k, w",
			func(r []string) string { return fmt.Sprintf("w = %s AND k = '%s'", r[1], r[0]) }, [][]string{{"zz", "1"}, {"a", "99"}}},
	}
	for _, index := range []bool{true, false} {
		for _, mode := range []string{"lazy", "eager"} {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("index=%v_%s_%s", index, mode, sh.name), func(t *testing.T) {
					db := engine.Open("prop", engine.DialectDuckDB)
					ext := Install(db)
					mustExec(t, db, "CREATE TABLE t (k VARCHAR, w INTEGER, v INTEGER)")
					mustExec(t, db, "INSERT INTO t VALUES ('a', 1, 5), ('a', 2, 7), ('b', 1, 8)")
					mustExec(t, db, "CREATE MATERIALIZED VIEW vw AS "+sh.def)
					comp, _ := ext.Compilation("vw")
					wantAccess, where := "KeyedScan "+comp.Storage+"[pk] keys=1", sh.where
					if !index {
						wantAccess = "Scan " + comp.Storage
						where = func(r []string) string {
							return strings.NewReplacer("k =", "k || '' =", "w =", "w + 0 =").Replace(sh.where(r))
						}
					}
					write := armWrite(t, ext, mode)
					point := "SELECT " + sh.cols + " FROM vw WHERE "
					plan := fmt.Sprint(mustExec(t, db, "EXPLAIN "+point+where([]string{"a", "1"})).Rows)
					if !strings.Contains(plan, " "+wantAccess+" ") {
						t.Fatalf("the point read explains as %s, want %s", plan, wantAccess)
					}
					// readByKey reads every group of want, and the absent ones, by key.
					readByKey := func(step int, want [][]string) {
						t.Helper()
						for _, r := range want {
							got := mustExec(t, db, point+where(r)).Rows
							if len(got) != 1 || got[0].String() != strings.Join(r, "|") {
								t.Fatalf("step %d: group %v read by key as %v", step, r, got)
							}
						}
						for _, r := range sh.absent {
							if got := mustExec(t, db, point+where(r)).Rows; len(got) != 0 {
								t.Fatalf("step %d: absent group %v read by key as %v", step, r, got)
							}
						}
					}
					rowsOf := func(sql string) [][]string {
						var out [][]string
						for _, r := range mustExec(t, db, sql).Rows {
							out = append(out, strings.Split(r.String(), "|"))
						}
						return out
					}
					rng := rand.New(rand.NewSource(int64(7 + len(mode) + len(sh.name))))
					keys := []string{"a", "b", "c", "d", "e"}
					for i := 0; i < 120; i++ {
						k, w := keys[rng.Intn(len(keys))], rng.Intn(3)
						switch rng.Intn(8) {
						case 0, 1, 2, 3:
							write(fmt.Sprintf("INSERT INTO t VALUES ('%s', %d, %d)", k, w, rng.Intn(41)-20))
						case 4:
							write(fmt.Sprintf("DELETE FROM t WHERE k = '%s' AND w = %d", k, w))
						case 5:
							write(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k = '%s'", k))
						case 6:
							// Stale (lazy) or just propagated (eager): the point
							// reads come first and must already be fresh.
							readByKey(i, rowsOf(sh.recompute))
						case 7:
							mustExec(t, db, "REFRESH MATERIALIZED VIEW vw")
							readByKey(i, rowsOf("SELECT "+sh.cols+" FROM vw"))
							checkView(t, db, i, "vw", sh.cols, sh.recompute)
						}
					}
				})
			}
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
		stmt, sel := step2Select(t, ext, view)
		var projects []string
		for _, r := range mustExec(t, db, "EXPLAIN "+sel).Rows {
			if line := strings.TrimSpace(r[0].S); strings.HasPrefix(line, "Project ") {
				projects = append(projects, line)
			}
		}
		if len(projects) != 1+terms {
			t.Errorf("%s: step 2 plans %d Projects, want the root and %d terms: %q", view, len(projects), terms, projects)
		}
		if got := step2ReadsV(t, db, ext, view, comp.Storage); len(got) != 0 {
			t.Errorf("%s: step 2 reads V outside its upsert: %q", view, got)
		}
		if got := mustExec(t, db, "EXPLAIN "+stmt).Rows[0][0].S; got != "Upsert "+comp.Storage {
			t.Errorf("%s: step 2 explains as %q, want the upsert into V", view, got)
		}
	}
}
