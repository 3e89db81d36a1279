package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/expr"
	"openivm/internal/optimizer"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// indexJoinCatalog builds a six-row build table d and four keyed probe
// tables. pad adds that many rows to every probe table under keys d never
// carries: the joins' inner matches are the same at any pad, only the size
// ratio — and with it the join strategy — changes.
func indexJoinCatalog(t *testing.T, pad int) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mk := func(name string, pk []string, cols ...catalog.Column) *catalog.Table {
		tbl, err := c.CreateTable(name, cols, pk, false)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	col := func(name string, typ sqltypes.Type) catalog.Column { return catalog.Column{Name: name, Type: typ} }
	i, f, s := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString

	// Duplicate key 2, a NULL key, and key 50 that matches nothing.
	d := mk("d", nil, col("k", sqltypes.TypeInt), col("a", sqltypes.TypeInt), col("f", sqltypes.TypeFloat), col("s", sqltypes.TypeString))
	load(t, c, d,
		sqltypes.Row{i(1), i(10), f(1), s("s1")},
		sqltypes.Row{i(2), i(20), f(2), s("s2")},
		sqltypes.Row{i(2), i(21), f(2), s("s2")},
		sqltypes.Row{i(3), i(30), f(3), s("s3")},
		sqltypes.Row{sqltypes.Null, i(40), sqltypes.Null, sqltypes.Null},
		sqltypes.Row{i(50), i(50), f(50), s("s50")},
	)

	tk := mk("t", []string{"k"}, col("k", sqltypes.TypeInt), col("v", sqltypes.TypeInt), col("s", sqltypes.TypeString))
	t2 := mk("t2", []string{"a", "b"}, col("a", sqltypes.TypeInt), col("b", sqltypes.TypeInt), col("v", sqltypes.TypeInt))
	t3 := mk("t3", []string{"id"}, col("id", sqltypes.TypeInt), col("k", sqltypes.TypeInt), col("v", sqltypes.TypeInt))
	ts := mk("ts", []string{"s"}, col("s", sqltypes.TypeString), col("v", sqltypes.TypeInt))
	load(t, c, tk, sqltypes.Row{sqltypes.Null, i(-1), s("null-keyed")})
	for k := int64(1); k <= 5; k++ {
		load(t, c, tk, sqltypes.Row{i(k), i(k * 7), s(fmt.Sprint("t", k))})
		load(t, c, t2, sqltypes.Row{i(k), i(k * 10), i(k)}, sqltypes.Row{i(k), i(k*10 + 1), i(-k)})
		load(t, c, t3, sqltypes.Row{i(k), i(k), i(k)}, sqltypes.Row{i(k + 100), i(k), i(-k)})
		load(t, c, ts, sqltypes.Row{s(fmt.Sprint("s", k)), i(k)})
	}
	for p := int64(0); p < int64(pad); p++ {
		k := 1000 + p
		load(t, c, tk, sqltypes.Row{i(k), i(k), s("pad")})
		load(t, c, t2, sqltypes.Row{i(k), i(k), i(k)})
		load(t, c, t3, sqltypes.Row{i(k), i(k), i(k)})
		load(t, c, ts, sqltypes.Row{s(fmt.Sprint("pad", k)), i(k)})
	}
	if _, err := t3.CreateIndex("t3_k", []string{"k"}, false, false); err != nil {
		t.Fatal(err)
	}
	return c
}

func multiset(rows []sqltypes.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// joinAlgoOf opens the first join of the plan and reports the strategy the
// operator chose.
func joinAlgoOf(t *testing.T, n plan.Node) plan.JoinAlgo {
	t.Helper()
	var j *plan.Join
	plan.Walk(n, func(x plan.Node) bool {
		if jn, ok := x.(*plan.Join); ok && j == nil {
			j = jn
		}
		return j == nil
	})
	it, err := newBatchJoin(j, Options{BatchSize: DefaultBatchSize})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	return it.(*batchJoin).algo
}

// TestIndexJoinMatchesHashJoin runs the same joins with the probe table on
// both sides of the index-join threshold — small enough that the operator
// hashes, padded enough that it probes the key index — and requires each
// run to equal, as a multiset, the same condition evaluated without the
// index: the equality hidden from key extraction behind COALESCE, which
// leaves a nested loop (for the composite key, a hash join on half of it).
// It also pins which strategy each shape gets: joins that preserve the
// probe side and INTEGER-vs-DOUBLE keys stay on the hash path at any size.
func TestIndexJoinMatchesHashJoin(t *testing.T) {
	cases := []struct {
		name   string
		from   string // FROM clause with %s where the d-side key reference goes
		key    string
		padded plan.JoinAlgo // strategy once the probe table is large
	}{
		{"inner", "d JOIN t ON %s = t.k", "d.k", plan.IndexJoin},
		{"left, build side preserved", "d LEFT JOIN t ON %s = t.k", "d.k", plan.IndexJoin},
		{"right, build side preserved", "t RIGHT JOIN d ON t.k = %s", "d.k", plan.IndexJoin},
		{"right, probe side preserved", "d RIGHT JOIN t ON %s = t.k", "d.k", plan.HashJoin},
		{"full outer", "d FULL OUTER JOIN t ON %s = t.k", "d.k", plan.HashJoin},
		{"residual predicate", "d LEFT JOIN t ON %s = t.k AND d.a < t.v * 2", "d.k", plan.IndexJoin},
		{"composite primary key", "d JOIN t2 ON d.a = t2.b AND %s = t2.a", "d.k", plan.IndexJoin},
		{"secondary index", "d JOIN t3 ON %s = t3.k", "d.k", plan.IndexJoin},
		{"secondary index, left", "d LEFT JOIN t3 ON %s = t3.k AND t3.v > 0", "d.k", plan.IndexJoin},
		{"string key", "d JOIN ts ON %s = ts.s", "d.s", plan.IndexJoin},
		{"integer key against double", "d JOIN t ON %s = t.k", "d.f", plan.HashJoin},
	}
	for _, size := range []struct {
		label string
		pad   int
	}{{"small probe table", 6}, {"padded probe table", 100}} {
		c := indexJoinCatalog(t, size.pad)
		for _, tc := range cases {
			t.Run(size.label+"/"+tc.name, func(t *testing.T) {
				sql := "SELECT * FROM " + fmt.Sprintf(tc.from, tc.key)
				ref := "SELECT * FROM " + fmt.Sprintf(tc.from, "COALESCE("+tc.key+", "+tc.key+")")
				want := plan.HashJoin
				if size.pad == 100 {
					want = tc.padded
				}
				if got := joinAlgoOf(t, bindSQL(t, c, sql)); got != want {
					t.Fatalf("join strategy = %d, want %d", got, want)
				}
				if joinAlgoOf(t, bindSQL(t, c, ref)) == plan.IndexJoin {
					t.Fatal("the reference query must not run as an index join")
				}
				// A batch size of 2 makes the operator resume mid-build-side.
				got, err := RunOpts(bindSQL(t, c, sql), Options{BatchSize: 2})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := multiset(got), multiset(runSQL(t, c, ref)); g != w {
					t.Fatalf("%s\ngot:\n%s\nreference:\n%s", sql, g, w)
				}
			})
		}
	}
}

// TestIndexJoinAppliesScanFilterAndProjection hand-builds the join a
// smarter pushdown would produce — the probe scan carrying a filter and a
// column pruning — and requires the index path to apply both to the rows it
// fetches, exactly like the scan the hash path runs.
func TestIndexJoinAppliesScanFilterAndProjection(t *testing.T) {
	var results [2]string
	for i, pad := range []int{6, 100} {
		c := indexJoinCatalog(t, pad)
		d, _ := c.Table("d")
		tk, _ := c.Table("t")
		probe := plan.NewScan(tk, "")
		probe.Projection = []int{2, 0} // (s, k): the key moves to position 1
		probe.Filter = &expr.Binary{Op: "<>", Left: &expr.Column{Idx: 1, Name: "v"}, Right: &expr.Literal{Val: sqltypes.NewInt(14)}}
		j := &plan.Join{Kind: sqlparser.JoinLeft, Left: plan.NewScan(d, ""), Right: probe, EquiLeft: []int{0}, EquiRight: []int{1}, EquiNullSafe: []bool{false}}
		want := plan.HashJoin
		if pad == 100 {
			want = plan.IndexJoin
		}
		if got := joinAlgoOf(t, j); got != want {
			t.Fatalf("pad %d: join strategy = %d, want %d", pad, got, want)
		}
		rows, err := Run(j)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = multiset(rows)
	}
	if results[0] != results[1] {
		t.Fatalf("hash path:\n%s\nindex path:\n%s", results[0], results[1])
	}
	// k=2 matches t's v=14, which the filter removes: both d rows with k=2
	// come out NULL-padded, and the projected columns are (s, k).
	for _, want := range []string{"1|10|1.0|s1|t1|1", "2|20|2.0|s2|NULL|NULL", "2|21|2.0|s2|NULL|NULL", "3|30|3.0|s3|t3|3"} {
		if !strings.Contains(results[1], want) {
			t.Fatalf("missing %q in:\n%s", want, results[1])
		}
	}
}

// TestExplainNamesTheExecutedJoin: EXPLAIN (plan.Join.Describe) and the
// operator decide a join's build side and algorithm with the same
// functions, so what EXPLAIN prints is what opens. The build side is the
// smaller input when both inputs' source counts are known, else the right
// one; d holds 6 rows and the probe tables 106.
func TestExplainNamesTheExecutedJoin(t *testing.T) {
	c := indexJoinCatalog(t, 100)
	small := indexJoinCatalog(t, 6)
	values := func(right plan.Node) *plan.Join {
		v := &plan.Values{
			Rows:    [][]expr.Expr{{&expr.Literal{Val: sqltypes.NewInt(1)}}, {&expr.Literal{Val: sqltypes.NewInt(3)}}},
			Columns: []plan.ColumnInfo{{Table: "v", Name: "k", Type: sqltypes.TypeInt}},
		}
		return &plan.Join{Kind: sqlparser.JoinInner, Left: v, Right: right, EquiLeft: []int{0}, EquiRight: []int{0}, EquiNullSafe: []bool{false}}
	}
	tk, _ := c.Table("t")
	cases := []struct {
		name    string
		node    plan.Node
		explain string // how Describe begins
		algo    plan.JoinAlgo
		left    bool
	}{
		{"scan small-left join keyed scan", bindSQL(t, c, "SELECT * FROM d JOIN t ON d.k = t.k"),
			"IndexJoin t[pk] build=left", plan.IndexJoin, true},
		{"keyed scan join scan small-right", bindSQL(t, c, "SELECT * FROM t JOIN d ON t.k = d.k"),
			"IndexJoin t[pk] build=right", plan.IndexJoin, false},
		{"scan join scan under the fan-out", bindSQL(t, small, "SELECT * FROM d JOIN t ON d.k = t.k"),
			"HashJoin build=left", plan.HashJoin, true},
		{"aggregate left join keyed scan",
			bindSQL(t, c, "SELECT * FROM (SELECT k, SUM(a) AS a FROM d GROUP BY k) g LEFT JOIN t ON g.k = t.k"),
			"IndexJoin t[pk] build=left", plan.IndexJoin, true},
		{"join join scan", bindSQL(t, c, "SELECT * FROM d JOIN t3 ON d.k = t3.k JOIN t ON d.k = t.k"),
			"HashJoin build=right", plan.HashJoin, false},
		{"values join keyed scan", values(plan.NewScan(tk, "")),
			"IndexJoin t[pk] build=left", plan.IndexJoin, true},
		{"cross join", bindSQL(t, c, "SELECT * FROM d, t3"),
			"NestedLoop build=left", plan.NestedLoopJoin, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var j *plan.Join
			plan.Walk(tc.node, func(x plan.Node) bool {
				if jn, ok := x.(*plan.Join); ok && j == nil {
					j = jn
				}
				return j == nil
			})
			if d := j.Describe(); !strings.HasPrefix(d, tc.explain+" ") {
				t.Fatalf("EXPLAIN %q, want it to begin %q", d, tc.explain)
			}
			it, err := newBatchJoin(j, Options{BatchSize: DefaultBatchSize})
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if bj := it.(*batchJoin); bj.algo != tc.algo || bj.buildLeft != tc.left {
				t.Fatalf("executor ran algo %d build-left %v, EXPLAIN said %q", bj.algo, bj.buildLeft, tc.explain)
			}
		})
	}

	// A join as the build side has no count until drained: EXPLAIN names
	// both algorithms the operator may open, and it opens one of them.
	j := bindSQL(t, c, "SELECT * FROM t JOIN (SELECT d.k FROM d JOIN t3 ON d.k = t3.k) x ON t.k = x.k").(*plan.Project).Input.(*plan.Join)
	if d := j.Describe(); !strings.HasPrefix(d, "HashJoin or IndexJoin t[pk] build=right ") {
		t.Fatalf("EXPLAIN %q", d)
	}
	it, err := newBatchJoin(j, Options{BatchSize: DefaultBatchSize})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if bj := it.(*batchJoin); bj.algo != plan.IndexJoin || bj.buildLeft {
		t.Fatalf("executor ran algo %d build-left %v over a 5-row build side", bj.algo, bj.buildLeft)
	}
}

// TestNullSafeJoinMatchesNestedLoop: a key compared with IS NOT DISTINCT
// FROM matches a NULL to a NULL on every join path — the hash join building
// either side, and the index join through a primary key, a composite one
// and a secondary index, each probed with a NULL — and an `=` key beside it
// still matches no NULL. Each run equals, as a multiset, the same condition
// hidden from key extraction behind COALESCE, which the nested loop
// evaluates row by row.
func TestNullSafeJoinMatchesNestedLoop(t *testing.T) {
	cases := []struct {
		name             string
		from             string // %s is where the d-side key reference goes
		buildLeft        bool   // the side the small tables build
		padded           plan.JoinAlgo
		paddedBuildsLeft bool
	}{
		{"inner, build left", "d JOIN t ON %s IS NOT DISTINCT FROM t.k", true, plan.IndexJoin, true},
		{"inner, build right", "t JOIN d ON t.k IS NOT DISTINCT FROM %s", false, plan.IndexJoin, false},
		{"left", "d LEFT JOIN t ON %s IS NOT DISTINCT FROM t.k", true, plan.IndexJoin, true},
		{"full outer", "d FULL OUTER JOIN t ON %s IS NOT DISTINCT FROM t.k", true, plan.HashJoin, true},
		{"composite key beside =", "d JOIN t2 ON d.a = t2.b AND %s IS NOT DISTINCT FROM t2.a", true, plan.IndexJoin, true},
		{"secondary index", "d JOIN t3 ON %s IS NOT DISTINCT FROM t3.k", true, plan.IndexJoin, true},
	}
	for _, size := range []struct {
		label string
		pad   int
	}{{"small probe table", 6}, {"padded probe table", 100}} {
		c := indexJoinCatalog(t, size.pad)
		for name, row := range map[string]sqltypes.Row{
			"t2": {sqltypes.Null, sqltypes.NewInt(40), sqltypes.NewInt(9)},
			"t3": {sqltypes.NewInt(200), sqltypes.Null, sqltypes.NewInt(7)},
		} {
			tbl, err := c.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			load(t, c, tbl, row)
		}
		for _, tc := range cases {
			t.Run(size.label+"/"+tc.name, func(t *testing.T) {
				sql := "SELECT * FROM " + fmt.Sprintf(tc.from, "d.k")
				ref := "SELECT * FROM " + fmt.Sprintf(tc.from, "COALESCE(d.k, d.k)")
				algo, buildLeft := plan.HashJoin, tc.buildLeft
				if size.pad == 100 {
					algo, buildLeft = tc.padded, tc.paddedBuildsLeft
				}
				n := bindSQL(t, c, sql)
				var j *plan.Join
				plan.Walk(n, func(x plan.Node) bool {
					if jn, ok := x.(*plan.Join); ok && j == nil {
						j = jn
					}
					return j == nil
				})
				it, err := newBatchJoin(j, Options{BatchSize: DefaultBatchSize})
				if err != nil {
					t.Fatal(err)
				}
				bj := it.(*batchJoin)
				if bj.algo != algo || bj.buildLeft != buildLeft {
					t.Errorf("join runs as %d building left=%v, want %d building left=%v", bj.algo, bj.buildLeft, algo, buildLeft)
				}
				it.Close()
				got, err := RunOpts(n, Options{BatchSize: 2})
				if err != nil {
					t.Fatal(err)
				}
				want := runSQL(t, c, ref)
				if g, w := multiset(got), multiset(want); g != w {
					t.Fatalf("%s\ngot:\n%s\nreference:\n%s", sql, g, w)
				}
				if !strings.Contains(multiset(want), "NULL") {
					t.Fatal("the reference matched no NULL key")
				}
			})
		}
	}
}

// TestDashboardJoinProbesOrdersIndex: at the sizes of the repository
// benchmark's wire-dashboards workload (64 regions in 8 zones, 1 000
// customers, 10 000 orders) its ad-hoc three-table join, rotated so that
// orders joins what customers ⋈ regions leave of one zone, probes orders
// through the index a join view's setup creates on orders(cid): the build
// side drains 125 customers, under one eighth of the orders. EXPLAIN names
// the index; the operator opens the index join; and the result equals the
// same join without the index.
func TestDashboardJoinProbesOrdersIndex(t *testing.T) {
	c := catalog.New()
	col := func(name string, typ sqltypes.Type) catalog.Column { return catalog.Column{Name: name, Type: typ} }
	mk := func(name string, rows []sqltypes.Row, cols ...catalog.Column) *catalog.Table {
		tbl, err := c.CreateTable(name, cols, []string{cols[0].Name}, false)
		if err != nil {
			t.Fatal(err)
		}
		load(t, c, tbl, rows...)
		return tbl
	}
	i, s := sqltypes.NewInt, sqltypes.NewString
	region := func(r int) sqltypes.Value { return s(fmt.Sprintf("r%02d", r)) }
	var regions, customers, orders []sqltypes.Row
	for r := 0; r < 64; r++ {
		regions = append(regions, sqltypes.Row{region(r), s(fmt.Sprintf("z%d", r%8))})
	}
	for cid := 0; cid < 1000; cid++ {
		customers = append(customers, sqltypes.Row{i(int64(cid)), region(cid % 64)})
	}
	for oid := 0; oid < 10000; oid++ {
		orders = append(orders, sqltypes.Row{i(int64(oid)), i(int64(oid * 7919 % 1000)), i(int64(oid % 500))})
	}
	mk("regions", regions, col("region", sqltypes.TypeString), col("zone", sqltypes.TypeString))
	mk("customers", customers, col("cid", sqltypes.TypeInt), col("region", sqltypes.TypeString))
	ot := mk("orders", orders, col("oid", sqltypes.TypeInt), col("cid", sqltypes.TypeInt), col("amount", sqltypes.TypeInt))
	const sql = "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid JOIN regions ON customers.region = regions.region WHERE regions.zone = 'z3' AND orders.amount >= 250 GROUP BY customers.region"
	run := func() (string, []string) {
		n := optimizer.Optimize(bindSQL(t, c, sql))
		var j *plan.Join
		plan.Walk(n, func(x plan.Node) bool {
			if jn, ok := x.(*plan.Join); ok && j == nil {
				j = jn
			}
			return j == nil
		})
		it, err := newBatchJoin(j, Options{BatchSize: DefaultBatchSize})
		if err != nil {
			t.Fatal(err)
		}
		bj := it.(*batchJoin)
		algo := fmt.Sprintf("%s over %d build rows", j.Describe(), len(bj.buildRows))
		if bj.algo != plan.IndexJoin {
			algo = "hash: " + algo
		}
		it.Close()
		res, err := Run(n)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res {
			rows = append(rows, r.String())
		}
		sort.Strings(rows)
		return algo, rows
	}
	_, want := run()
	if len(want) != 8 {
		t.Fatalf("zone z3 holds 8 regions, the join reads %v", want)
	}
	if _, err := ot.CreateIndex("orders_cid_ivm_idx", []string{"cid"}, false, false); err != nil {
		t.Fatal(err)
	}
	algo, got := run()
	if !strings.HasPrefix(algo, "HashJoin or IndexJoin orders[orders_cid_ivm_idx] ") || !strings.HasSuffix(algo, " over 125 build rows") {
		t.Errorf("the dashboard join runs as %s", algo)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("through the index the join reads\n%v\nwithout it\n%v", got, want)
	}
}
