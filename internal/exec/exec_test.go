package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// load inserts rows into tbl as one committed transaction of c.
func load(t testing.TB, c *catalog.Catalog, tbl *catalog.Table, rows ...sqltypes.Row) {
	t.Helper()
	tx := c.MVCC().Begin()
	if err := tbl.InsertBatchTxn(tx, rows); err != nil {
		t.Fatal(err)
	}
	if err := c.MVCC().Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	tbl, err := c.CreateTable("nums", []catalog.Column{
		{Name: "k", Type: sqltypes.TypeString},
		{Name: "v", Type: sqltypes.TypeInt},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		load(t, c, tbl, sqltypes.Row{
			sqltypes.NewString(fmt.Sprint("k", i%3)),
			sqltypes.NewInt(int64(i)),
		})
	}
	return c
}

// Run materializes all rows produced by the plan.
func Run(n plan.Node) ([]sqltypes.Row, error) { return RunOpts(n, Options{}) }

func runSQL(t *testing.T, c *catalog.Catalog, sql string) []sqltypes.Row {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanAll(t *testing.T) {
	c := testCatalog(t)
	rows := runSQL(t, c, "SELECT k, v FROM nums")
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFilterEval(t *testing.T) {
	c := testCatalog(t)
	rows := runSQL(t, c, "SELECT v FROM nums WHERE v % 2 = 0")
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestHashAggDeterministicFirstSeenOrder(t *testing.T) {
	c := testCatalog(t)
	rows := runSQL(t, c, "SELECT k, SUM(v) FROM nums GROUP BY k")
	// k0 inserted first, so it must come out first (first-seen order).
	if rows[0][0].S != "k0" || rows[1][0].S != "k1" || rows[2][0].S != "k2" {
		t.Fatalf("order = %v", rows)
	}
	// k0: 0+3+6+9=18
	if rows[0][1].I != 18 {
		t.Fatalf("sum = %v", rows[0])
	}
}

func TestAggOnNullGroup(t *testing.T) {
	c := testCatalog(t)
	tbl, _ := c.Table("nums")
	load(t, c, tbl, sqltypes.Row{sqltypes.Null, sqltypes.NewInt(100)})
	load(t, c, tbl, sqltypes.Row{sqltypes.Null, sqltypes.NewInt(200)})
	rows := runSQL(t, c, "SELECT k, SUM(v) FROM nums GROUP BY k")
	// NULL keys form one group (SQL GROUP BY semantics).
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	found := false
	for _, r := range rows {
		if r[0].IsNull() && r[1].I == 300 {
			found = true
		}
	}
	if !found {
		t.Fatalf("NULL group missing: %v", rows)
	}
}

// TestHashAggMatchesReference checks the hash aggregate against sums,
// counts, extremes and averages computed in Go from the scanned rows: NULL
// keys and arguments, the IVM combine's CASE and COALESCE argument shapes,
// a DISTINCT count, and a batch size small enough that every group spans
// batches. Groups come out in first-seen order.
func TestHashAggMatchesReference(t *testing.T) {
	c := groupCatalog(t, 12000)
	type ref struct {
		key                                     sqltypes.Value
		sum, signed, coalesced, n, nv, min, max int64
		fsum                                    float64
		distinct                                map[int64]bool
	}
	groups := map[string]*ref{}
	var order []*ref
	for _, r := range runSQL(t, c, "SELECT g, v, f FROM p") {
		g := groups[r[0].String()]
		if g == nil {
			g = &ref{key: r[0], min: math.MaxInt64, max: math.MinInt64, distinct: map[int64]bool{}}
			groups[r[0].String()] = g
			order = append(order, g)
		}
		g.n++
		g.fsum += r[2].Float()
		if r[1].IsNull() {
			continue
		}
		v := r[1].I
		g.sum += v
		g.signed += v
		if v > 500 {
			g.signed -= 2 * v
		}
		g.coalesced += v
		g.nv++
		g.min, g.max = min(g.min, v), max(g.max, v)
		g.distinct[v] = true
	}
	const sql = "SELECT g, SUM(v), SUM(CASE WHEN v > 500 THEN -v ELSE v END), SUM(COALESCE(v, 0)), " +
		"COUNT(*), COUNT(v), MIN(v), MAX(v), AVG(f), COUNT(DISTINCT v) FROM p GROUP BY g"
	for _, bs := range []int{64, DefaultBatchSize} {
		got, err := RunOpts(bindSQL(t, c, sql), Options{BatchSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(order) {
			t.Fatalf("bs=%d: %d groups, want %d", bs, len(got), len(order))
		}
		for i, g := range order {
			want := sqltypes.Row{g.key, sqltypes.NewInt(g.sum), sqltypes.NewInt(g.signed), sqltypes.NewInt(g.coalesced),
				sqltypes.NewInt(g.n), sqltypes.NewInt(g.nv), sqltypes.NewInt(g.min), sqltypes.NewInt(g.max),
				sqltypes.NewFloat(g.fsum / float64(g.n)), sqltypes.NewInt(int64(len(g.distinct)))}
			if got[i].String() != want.String() {
				t.Fatalf("bs=%d group %d: got %v, want %v", bs, i, got[i], want)
			}
		}
	}
}

// TestAggFoldMatchesReference checks every aggregate the hash aggregate
// folds in its output rows against a Go reference: SUM, COUNT, COUNT(*),
// MIN, MAX and AVG over NULL arguments, a SUM whose arguments mix INTEGER
// and DOUBLE within a group, DISTINCT forms, a global aggregate over all
// rows and over none, and a grouped one over none. The 1 500 groups of
// 6 000 rows cross the 1 024-row batch and slab-block boundaries, and a
// 64-row batch size crosses them many times.
func TestAggFoldMatchesReference(t *testing.T) {
	c := catalog.New()
	tbl, err := c.CreateTable("q", []catalog.Column{
		{Name: "g", Type: sqltypes.TypeInt},
		{Name: "v", Type: sqltypes.TypeInt},
		{Name: "f", Type: sqltypes.TypeFloat},
	}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var rows []sqltypes.Row
	for i := 0; i < 6000; i++ {
		r := sqltypes.Row{sqltypes.NewInt(int64(rng.Intn(1500))), sqltypes.NewInt(int64(rng.Intn(40))), sqltypes.NewFloat(float64(rng.Intn(64)) / 4)}
		for c := range r {
			if rng.Intn(12) == 0 {
				r[c] = sqltypes.Null
			}
		}
		rows = append(rows, r)
	}
	load(t, c, tbl, rows...)

	// ref folds one group the way SQL defines each aggregate. Every value
	// is a small integer or a multiple of 1/4, so every sum is exact and
	// the order of additions cannot matter.
	type ref struct {
		key                      sqltypes.Value
		n, nv, nf                int64
		sumV, sumF, mixed        float64
		mixedFloat, anyMixed     bool
		minV, maxV, minF, maxF   sqltypes.Value
		distinctV, distinctF     map[float64]bool
		distinctSumV, distinctAF float64
	}
	fold := func(g *ref, v, f sqltypes.Value) {
		g.n++
		if !v.IsNull() {
			x := float64(v.I)
			g.nv++
			g.sumV += x
			if g.minV.IsNull() || v.I < g.minV.I {
				g.minV = v
			}
			if g.maxV.IsNull() || v.I > g.maxV.I {
				g.maxV = v
			}
			if !g.distinctV[x] {
				g.distinctV[x] = true
				g.distinctSumV += x
			}
		}
		if !f.IsNull() {
			x := f.Float()
			g.nf++
			g.sumF += x
			if g.minF.IsNull() || x < g.minF.Float() {
				g.minF = f
			}
			if g.maxF.IsNull() || x > g.maxF.Float() {
				g.maxF = f
			}
			if !g.distinctF[x] {
				g.distinctF[x] = true
				g.distinctAF += x
			}
		}
		// CASE WHEN v % 2 = 0 THEN v ELSE f END
		m := f
		if !v.IsNull() && v.I%2 == 0 {
			m = v
		}
		if !m.IsNull() {
			g.anyMixed = true
			g.mixedFloat = g.mixedFloat || m.T == sqltypes.TypeFloat
			g.mixed += m.AsFloat()
		}
	}
	result := func(g *ref) sqltypes.Row {
		sumOrNull := func(any bool, sum float64, float bool) sqltypes.Value {
			switch {
			case !any:
				return sqltypes.Null
			case float:
				return sqltypes.NewFloat(sum)
			}
			return sqltypes.NewInt(int64(sum))
		}
		avg := func(sum float64, n int64) sqltypes.Value {
			if n == 0 {
				return sqltypes.Null
			}
			return sqltypes.NewFloat(sum / float64(n))
		}
		return sqltypes.Row{
			sumOrNull(g.nv > 0, g.sumV, false), sqltypes.NewInt(g.nv), sqltypes.NewInt(g.n),
			g.minV, g.maxV, avg(g.sumV, g.nv), avg(g.sumF, g.nf), g.minF, g.maxF,
			sumOrNull(g.anyMixed, g.mixed, g.mixedFloat),
			sqltypes.NewInt(int64(len(g.distinctV))), sumOrNull(g.nv > 0, g.distinctSumV, false),
			avg(g.distinctAF, int64(len(g.distinctF))),
		}
	}
	newRef := func(key sqltypes.Value) *ref {
		return &ref{key: key, distinctV: map[float64]bool{}, distinctF: map[float64]bool{}}
	}
	groups := map[sqltypes.Value]*ref{}
	var order []*ref
	all := newRef(sqltypes.Null)
	for _, r := range runSQL(t, c, "SELECT g, v, f FROM q") {
		g := groups[r[0]]
		if g == nil {
			g = newRef(r[0])
			groups[r[0]] = g
			order = append(order, g)
		}
		fold(g, r[1], r[2])
		fold(all, r[1], r[2])
	}
	if len(order) <= DefaultBatchSize {
		t.Fatalf("%d groups do not cross a batch", len(order))
	}

	const aggs = "SUM(v), COUNT(v), COUNT(*), MIN(v), MAX(v), AVG(v), AVG(f), MIN(f), MAX(f), " +
		"SUM(CASE WHEN v % 2 = 0 THEN v ELSE f END), COUNT(DISTINCT v), SUM(DISTINCT v), AVG(DISTINCT f)"
	check := func(sql string, want []sqltypes.Row) {
		t.Helper()
		for _, bs := range []int{64, DefaultBatchSize} {
			got, err := RunOpts(bindSQL(t, c, sql), Options{BatchSize: bs})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s (batch %d): %d rows, want %d", sql, bs, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s (batch %d) row %d:\n got %v\nwant %v", sql, bs, i, got[i], want[i])
				}
			}
		}
	}
	var want []sqltypes.Row
	for _, g := range order {
		want = append(want, append(sqltypes.Row{g.key}, result(g)...))
	}
	check("SELECT g, "+aggs+" FROM q GROUP BY g", want)
	check("SELECT "+aggs+" FROM q", []sqltypes.Row{result(all)})
	check("SELECT "+aggs+" FROM q WHERE g < 0", []sqltypes.Row{result(newRef(sqltypes.Null))})
	check("SELECT g, "+aggs+" FROM q WHERE g < 0 GROUP BY g", nil)
}

// TestAggKeepsMixedTypeGroupKeys: a derived key whose cells mix INTEGER and
// DOUBLE (a CASE whose branches differ; Expr.Type reports the first) groups
// by the values its cells hold, none of them turned into NULL.
func TestAggKeepsMixedTypeGroupKeys(t *testing.T) {
	c := groupCatalog(t, 100)
	var hi, lo int64
	for _, r := range runSQL(t, c, "SELECT v FROM p WHERE v IS NOT NULL") {
		if r[0].I > 500 {
			hi++
		} else {
			lo++
		}
	}
	got := runSQL(t, c, "SELECT x, COUNT(*) FROM (SELECT CASE WHEN v > 500 THEN 1 ELSE 0.5 END AS x FROM p WHERE v IS NOT NULL) AS s GROUP BY x ORDER BY x")
	want := []sqltypes.Row{{sqltypes.NewFloat(0.5), sqltypes.NewInt(lo)}, {sqltypes.NewInt(1), sqltypes.NewInt(hi)}}
	if len(got) != len(want) || got[0].String() != want[0].String() || got[0][0].T != sqltypes.TypeFloat ||
		got[1].String() != want[1].String() || got[1][0].T != sqltypes.TypeInt {
		t.Fatalf("mixed-type group keys: got %v, want %v", got, want)
	}
}

// TestNonBooleanWhereKeepsNothing: a WHERE clause that is not boolean (SQL
// tolerates `WHERE 1`) is never TRUE, so it keeps no row.
func TestNonBooleanWhereKeepsNothing(t *testing.T) {
	c := testCatalog(t)
	for _, sql := range []string{
		"SELECT v FROM nums WHERE v + 1",
		"SELECT v FROM nums WHERE v",
		"SELECT v FROM nums WHERE 1",
	} {
		if rows := runSQL(t, c, sql); len(rows) != 0 {
			t.Fatalf("%s: non-boolean WHERE kept %d rows", sql, len(rows))
		}
	}
}

func TestSortStability(t *testing.T) {
	c := testCatalog(t)
	rows := runSQL(t, c, "SELECT k, v FROM nums ORDER BY k")
	// Within equal keys, input order must be preserved (stable sort).
	var k0 []int64
	for _, r := range rows {
		if r[0].S == "k0" {
			k0 = append(k0, r[1].I)
		}
	}
	if !sort.SliceIsSorted(k0, func(i, j int) bool { return k0[i] < k0[j] }) {
		t.Fatalf("stable order violated: %v", k0)
	}
}

func TestSortNullsFirst(t *testing.T) {
	c := testCatalog(t)
	tbl, _ := c.Table("nums")
	load(t, c, tbl, sqltypes.Row{sqltypes.Null, sqltypes.NewInt(999)})
	rows := runSQL(t, c, "SELECT k FROM nums ORDER BY k")
	if !rows[0][0].IsNull() {
		t.Fatalf("NULL should sort first ASC: %v", rows[0])
	}
	rows = runSQL(t, c, "SELECT k FROM nums ORDER BY k DESC")
	if !rows[len(rows)-1][0].IsNull() {
		t.Fatalf("NULL should sort last DESC")
	}
}

func TestLimitOffsetEdge(t *testing.T) {
	c := testCatalog(t)
	if rows := runSQL(t, c, "SELECT v FROM nums LIMIT 0"); len(rows) != 0 {
		t.Fatalf("LIMIT 0 rows = %d", len(rows))
	}
	if rows := runSQL(t, c, "SELECT v FROM nums LIMIT 5 OFFSET 10"); len(rows) != 2 {
		t.Fatalf("offset tail rows = %d", len(rows))
	}
	if rows := runSQL(t, c, "SELECT v FROM nums OFFSET 100"); len(rows) != 0 {
		t.Fatalf("past-end offset rows = %d", len(rows))
	}
}

func TestExceptAllMultiset(t *testing.T) {
	c := catalog.New()
	tbl, _ := c.CreateTable("m", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	for _, v := range []int64{1, 1, 1, 2} {
		load(t, c, tbl, sqltypes.Row{sqltypes.NewInt(v)})
	}
	// {1,1,1,2} EXCEPT ALL {1} = {1,1,2}
	rows := runSQL(t, c, "SELECT x FROM m EXCEPT ALL SELECT 1")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// {1,1,1,2} EXCEPT {1} = {2}
	rows = runSQL(t, c, "SELECT x FROM m EXCEPT SELECT 1")
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestIntersectDedup(t *testing.T) {
	c := catalog.New()
	tbl, _ := c.CreateTable("m", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	for _, v := range []int64{1, 1, 2, 3} {
		load(t, c, tbl, sqltypes.Row{sqltypes.NewInt(v)})
	}
	rows := runSQL(t, c, "SELECT x FROM m INTERSECT SELECT x FROM m")
	if len(rows) != 3 {
		t.Fatalf("INTERSECT must dedup: %v", rows)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// Property: the hash path (equi keys) and the nested-loop path
	// (residual ON) must agree on random inputs.
	c := catalog.New()
	a, _ := c.CreateTable("a", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	b, _ := c.CreateTable("b", []catalog.Column{{Name: "y", Type: sqltypes.TypeInt}}, nil, false)
	for i := 0; i < 30; i++ {
		load(t, c, a, sqltypes.Row{sqltypes.NewInt(int64(i % 7))})
		load(t, c, b, sqltypes.Row{sqltypes.NewInt(int64(i % 5))})
	}
	hash := runSQL(t, c, "SELECT a.x, b.y FROM a JOIN b ON a.x = b.y")
	// Force nested loop by obscuring the equality from key extraction.
	loop := runSQL(t, c, "SELECT a.x, b.y FROM a JOIN b ON a.x + 0 = b.y")
	if len(hash) != len(loop) {
		t.Fatalf("hash %d rows vs loop %d rows", len(hash), len(loop))
	}
	key := func(rows []sqltypes.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	h, l := key(hash), key(loop)
	for i := range h {
		if h[i] != l[i] {
			t.Fatalf("row %d: %q vs %q", i, h[i], l[i])
		}
	}
}

func TestFullOuterBothUnmatched(t *testing.T) {
	c := catalog.New()
	a, _ := c.CreateTable("a", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	b, _ := c.CreateTable("b", []catalog.Column{{Name: "y", Type: sqltypes.TypeInt}}, nil, false)
	load(t, c, a, sqltypes.Row{sqltypes.NewInt(1)})
	load(t, c, b, sqltypes.Row{sqltypes.NewInt(2)})
	rows := runSQL(t, c, "SELECT a.x, b.y FROM a FULL OUTER JOIN b ON a.x = b.y")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	var nullRight, nullLeft bool
	for _, r := range rows {
		if r[1].IsNull() {
			nullRight = true
		}
		if r[0].IsNull() {
			nullLeft = true
		}
	}
	if !nullRight || !nullLeft {
		t.Fatalf("unmatched sides missing: %v", rows)
	}
}

func TestEmptyInputs(t *testing.T) {
	c := catalog.New()
	c.CreateTable("e", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	if rows := runSQL(t, c, "SELECT x FROM e"); len(rows) != 0 {
		t.Fatal("empty scan")
	}
	if rows := runSQL(t, c, "SELECT e.x FROM e JOIN e AS e2 ON e.x = e2.x"); len(rows) != 0 {
		t.Fatal("empty join")
	}
	if rows := runSQL(t, c, "SELECT SUM(x) FROM e GROUP BY x"); len(rows) != 0 {
		t.Fatal("empty grouped agg must produce no rows")
	}
	if rows := runSQL(t, c, "SELECT SUM(x), COUNT(*) FROM e"); len(rows) != 1 {
		t.Fatal("empty global agg must produce one row")
	}
}

func TestDistinctOnExpressions(t *testing.T) {
	c := testCatalog(t)
	rows := runSQL(t, c, "SELECT DISTINCT v % 2 FROM nums")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestErrorPropagation(t *testing.T) {
	c := testCatalog(t)
	stmt, _ := sqlparser.Parse("SELECT v FROM nums WHERE k * 2 = 4")
	n, err := plan.NewBinder(c).BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(n); err == nil {
		t.Fatal("string arithmetic must surface as execution error")
	}
}

// TestJoinBuildSideSelection checks every join kind against a brute-force
// nested loop when the cost model picks either build side.
func TestJoinBuildSideSelection(t *testing.T) {
	c := catalog.New()
	small, _ := c.CreateTable("small", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, nil, false)
	big, _ := c.CreateTable("big", []catalog.Column{{Name: "y", Type: sqltypes.TypeInt}}, nil, false)
	for i := 0; i < 3; i++ {
		load(t, c, small, sqltypes.Row{sqltypes.NewInt(int64(i * 2))}) // 0 2 4
	}
	load(t, c, small, sqltypes.Row{sqltypes.Null})
	for i := 0; i < 40; i++ {
		load(t, c, big, sqltypes.Row{sqltypes.NewInt(int64(i % 6))})
	}
	load(t, c, big, sqltypes.Row{sqltypes.Null})

	cases := []string{
		// small on the left: cost model builds left, probes right
		"SELECT small.x, big.y FROM small JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small LEFT JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small RIGHT JOIN big ON small.x = big.y",
		"SELECT small.x, big.y FROM small FULL OUTER JOIN big ON small.x = big.y",
		// small on the right: classic right-side build
		"SELECT big.y, small.x FROM big JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big LEFT JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big RIGHT JOIN small ON big.y = small.x",
		"SELECT big.y, small.x FROM big FULL OUTER JOIN small ON big.y = small.x",
	}
	for _, sql := range cases {
		got := sortedStrings(t, runSQL(t, c, sql))
		// Reference: the same join with the equi key obscured, forcing the
		// nested-loop path (no hash table, no build-side choice).
		ref := sortedStrings(t, runSQL(t, c, replaceEquals(sql)))
		if len(got) != len(ref) {
			t.Fatalf("%s: %d rows vs nested-loop %d", sql, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s row %d: %q vs %q", sql, i, got[i], ref[i])
			}
		}
	}
}

func sortedStrings(t *testing.T, rows []sqltypes.Row) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// replaceEquals rewrites "a = b" into "a + 0 = b" in the ON clause so the
// planner cannot extract equi keys (same trick as the existing hash-vs-loop
// test), keeping NULL semantics identical.
func replaceEquals(sql string) string {
	const on = " ON "
	for i := 0; i+len(on) <= len(sql); i++ {
		if sql[i:i+len(on)] == on {
			head, cond := sql[:i+len(on)], sql[i+len(on):]
			for j := 0; j+3 <= len(cond); j++ {
				if cond[j:j+3] == " = " {
					return head + cond[:j] + " + 0 = " + cond[j+3:]
				}
			}
		}
	}
	return sql
}
