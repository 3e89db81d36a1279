package optimizer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/exec"
	"openivm/internal/expr"
	"openivm/internal/plan"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
)

// placementCatalog fills five tables with random rows: a and b share a
// join key k drawn from a small domain with NULLs and repeats, c is keyed
// on k, d is a handful of rows — small enough beside c that a join of
// the two probes c's key index — and e is keyed on the pair (k, j), a
// NULL in j for a quarter of its rows.
func placementCatalog(t *testing.T, seed int64) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := catalog.New()
	num := func(n int) sqltypes.Value {
		if rng.Intn(6) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewInt(int64(rng.Intn(n)))
	}
	str := func() sqltypes.Value {
		if rng.Intn(6) == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewString([]string{"p", "q"}[rng.Intn(2)])
	}
	tx := c.MVCC().Begin()
	fill := func(name string, cols []catalog.Column, pk []string, n int, row func(i int) sqltypes.Row) {
		tbl, err := c.CreateTable(name, cols, pk, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tbl.InsertTxn(tx, row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	intCol := func(name string) catalog.Column { return catalog.Column{Name: name, Type: sqltypes.TypeInt} }
	strCol := func(name string) catalog.Column { return catalog.Column{Name: name, Type: sqltypes.TypeString} }
	fill("a", []catalog.Column{intCol("k"), intCol("x"), strCol("s")}, nil, 24, func(int) sqltypes.Row {
		return sqltypes.Row{num(6), num(5), str()}
	})
	fill("b", []catalog.Column{intCol("k"), intCol("y"), strCol("s")}, nil, 24, func(int) sqltypes.Row {
		return sqltypes.Row{num(6), num(5), str()}
	})
	fill("c", []catalog.Column{intCol("k"), intCol("z")}, []string{"k"}, 40, func(i int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(int64(i)), num(5)}
	})
	fill("d", []catalog.Column{intCol("k"), intCol("w")}, nil, rng.Intn(5), func(int) sqltypes.Row {
		return sqltypes.Row{num(8), num(3)}
	})
	fill("e", []catalog.Column{intCol("k"), intCol("j"), intCol("v")}, []string{"k", "j"}, 24, func(i int) sqltypes.Row {
		j := sqltypes.NewInt(int64(i / 6))
		if i >= 18 {
			j = sqltypes.Null
		}
		return sqltypes.Row{sqltypes.NewInt(int64(i % 6)), j, num(4)}
	})
	if err := c.MVCC().Commit(tx); err != nil {
		t.Fatal(err)
	}
	return c
}

// placementQueries are the statements the differential test runs: every
// join kind with conjuncts of the ON condition and of WHERE on each side,
// on both, on neither and through subqueries, then comma joins, CTE and
// subquery references, index-join shapes, and the join chains of
// rotatedChains and unrotatedChains.
func placementQueries() []string {
	var qs []string
	ons := []string{"", " AND a.x > 1", " AND b.y < 3", " AND a.x = b.y", " AND b.y IS NULL",
		" AND a.x IS NOT NULL AND b.s = 'q'", " AND (a.x > 2 OR b.y > 2)", " AND $1 > 1",
		" AND a.k IN (SELECT k FROM c WHERE z > 0)"}
	wheres := []string{"", " WHERE a.x > 1", " WHERE b.y IS NULL", " WHERE b.y < 3 AND a.x >= 0",
		" WHERE a.x = b.y", " WHERE a.k = $1", " WHERE b.k IN (1, 3) AND a.s <> 'p'",
		" WHERE COALESCE(b.y, -1) = -1", " WHERE a.x BETWEEN 1 AND 3 OR b.s = 'q'",
		" WHERE CASE WHEN a.x > 2 THEN 1 ELSE 0 END = 1 AND CAST(b.y AS VARCHAR) <> '2'",
		" WHERE a.k + b.k > 3", " WHERE b.k IN (SELECT k FROM c WHERE z > 1) AND a.x < 4", " WHERE $1 = 3"}
	for _, kind := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		for _, on := range ons {
			for _, where := range wheres {
				qs = append(qs, "SELECT a.k, a.x, a.s, b.k, b.y, b.s FROM a "+kind+" b ON a.k = b.k"+on+where)
			}
		}
	}
	qs = append(qs,
		"SELECT * FROM a, b WHERE a.k = b.k",
		"SELECT * FROM a, b WHERE a.k = b.k AND a.x > 1 AND b.s = 'p'",
		"SELECT * FROM a, b WHERE a.x = b.y AND a.s = b.s",
		"SELECT * FROM a, b WHERE a.x < b.y AND b.k = 2",
		"SELECT * FROM a CROSS JOIN b WHERE b.k = a.k AND (a.x > 1 OR b.y IS NULL)",
		"SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND c.z > 1",
		"SELECT * FROM a, b, c WHERE a.k = c.k AND c.z = b.y AND a.x = $1",
		"WITH ca AS (SELECT k, x FROM a WHERE s IS NOT NULL) SELECT * FROM ca JOIN b ON ca.k = b.k WHERE ca.x > 1 AND b.y < 3",
		"WITH ca AS (SELECT k, x FROM a) SELECT * FROM ca c1 JOIN ca c2 ON c1.k = c2.k WHERE c1.x > 1 AND c2.x < 3",
		"WITH ca AS (SELECT k, x FROM a) SELECT * FROM ca c1 LEFT JOIN ca c2 ON c1.k = c2.k AND c2.x > 2 WHERE c1.x IS NOT NULL",
		"WITH ca AS (SELECT k, x FROM a) SELECT * FROM ca, ca AS c2 WHERE ca.k = c2.x AND c2.k = 1",
		"SELECT * FROM (SELECT k, x + 1 AS x1, s FROM a) sa JOIN b ON sa.k = b.k WHERE sa.x1 > 2 AND sa.s = 'p'",
		"SELECT * FROM (SELECT k, COUNT(*) AS n FROM b GROUP BY k) g JOIN a ON g.k = a.k WHERE g.n > 1 AND a.x > 0",
		"SELECT * FROM (SELECT DISTINCT k, y FROM b) dd JOIN a ON dd.k = a.k WHERE dd.y > 1",
		"SELECT * FROM (SELECT k, y FROM b ORDER BY k, y, s LIMIT 5) l JOIN a ON l.k = a.k WHERE l.y > 0",
		"SELECT * FROM (SELECT k, x FROM a UNION ALL SELECT k, y FROM b) u JOIN c ON u.k = c.k WHERE u.x > 1 AND c.z < 3",
		"SELECT * FROM (SELECT * FROM a WHERE k IN (SELECT k FROM b)) sa LEFT JOIN b ON sa.k = b.k WHERE sa.x > 0",
		"SELECT b.s, COUNT(*), SUM(a.x) FROM a JOIN b ON a.k = b.k WHERE a.x > 0 AND b.y IS NOT NULL GROUP BY b.s HAVING COUNT(*) > 1",
		"SELECT * FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.k = c.k AND c.z > 1 WHERE a.x < 3 AND c.z IS NULL",
		"SELECT * FROM a LEFT JOIN b ON a.k = b.k JOIN c ON a.k = c.k WHERE b.y > 1 AND c.z < 4",
		"SELECT * FROM a FULL JOIN b ON a.k = b.k AND a.x > 1 LEFT JOIN c ON b.k = c.k WHERE c.z = 2 OR a.x IS NULL",
		"SELECT * FROM b JOIN c ON b.k = c.k RIGHT JOIN a ON a.k = b.k WHERE c.z > 0 AND a.s = 'q' AND b.y < 4",
		"SELECT * FROM d JOIN c ON d.k = c.k WHERE c.z > 1",
		"SELECT * FROM d LEFT JOIN c ON d.k = c.k AND c.z > 1",
		"SELECT * FROM c JOIN d ON c.k = d.k WHERE c.k = $1",
		"SELECT * FROM d JOIN c ON d.k = c.k WHERE c.k IN (1, 2, 3) AND d.w > 0",
		"SELECT x1, k, x1 FROM (SELECT k, x + 1 AS x1 FROM a WHERE s = 'p') sa WHERE sa.k > 0",
		"SELECT sa.k, g FROM (SELECT k, x FROM a) sa, generate_series(1, sa.x) AS g WHERE sa.k = 1 AND g > 1",
		"SELECT k, s FROM a, generate_series(0, x) WHERE x < 3",
		"SELECT u.k, u.y FROM (SELECT k, y FROM b, generate_series(1, k)) u JOIN c ON u.k = c.k WHERE c.z > 0",
	)
	return append(append(qs, rotatedChains...), unrotatedChains...)
}

// rotatedChains are inner join chains (A ⋈ B) ⋈ C that RotateKeyedJoin
// turns into A ⋈ (B ⋈ C): the upper join reads only B and C, C is joined
// on its whole primary key, and B (d, a handful of rows) is smaller than A.
var rotatedChains = []string{
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k AND d.w < c.z",
	"SELECT * FROM a JOIN d ON a.k = d.k AND a.x <> d.w JOIN c ON d.w = c.k AND (d.k > 1 OR c.z IS NULL)",
	"SELECT * FROM a JOIN d ON a.k IS NOT DISTINCT FROM d.k JOIN c ON d.k IS NOT DISTINCT FROM c.k",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k WHERE a.x > 1 AND d.w IS NOT NULL AND c.z < 4 AND a.s = 'p'",
	"SELECT a.s, d.w, c.z FROM a JOIN d ON a.k = d.k JOIN c ON c.k = d.k WHERE c.z = $1 AND a.x = $1",
	"SELECT * FROM a, d, c WHERE a.k = d.k AND d.k = c.k AND c.z > 0",
	"SELECT * FROM a CROSS JOIN d JOIN c ON d.k = c.k WHERE a.x = 1",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN e ON d.k = e.k AND d.w = e.j",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN e ON d.k = e.k AND d.w IS NOT DISTINCT FROM e.j",
	"SELECT * FROM c JOIN d ON c.z = d.w JOIN c AS c2 ON d.k = c2.k",
	"SELECT a.s, COUNT(*), SUM(c.z) FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k WHERE a.x >= 1 GROUP BY a.s",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k JOIN b ON a.k = b.k WHERE b.y < 3",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k LEFT JOIN b ON c.z = b.y",
	"WITH dd AS (SELECT k, w FROM d WHERE w IS NOT NULL) SELECT * FROM a JOIN dd ON a.k = dd.k JOIN c ON dd.k = c.k JOIN dd AS d2 ON c.z = d2.w",
	"WITH ch AS (SELECT a.k, a.x, d.w, c.z FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k) SELECT * FROM ch JOIN ch AS ch2 ON ch.x = ch2.z WHERE ch.w > 0",
}

// unrotatedChains are chains RotateKeyedJoin must leave as written: an
// outer join in the chain, an upper join reading A, C joined on a non-key
// or on part of a composite key, B not smaller than A, and A pinned by key.
var unrotatedChains = []string{
	"SELECT * FROM a LEFT JOIN d ON a.k = d.k JOIN c ON d.k = c.k",
	"SELECT * FROM a JOIN d ON a.k = d.k LEFT JOIN c ON d.k = c.k",
	"SELECT * FROM a RIGHT JOIN d ON a.k = d.k JOIN c ON d.k = c.k",
	"SELECT * FROM a JOIN d ON a.x = d.w JOIN c ON a.k = c.k",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k AND a.x < c.z",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.w = c.z",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.w + 1 = c.k",
	"SELECT a.s, d.w, c.z FROM a JOIN d ON a.k = d.k JOIN c ON c.k = d.k WHERE c.z = $1 OR a.x = $1",
	"SELECT * FROM a JOIN d ON a.k = d.k JOIN e ON d.k = e.k",
	"SELECT * FROM d JOIN a ON d.k = a.k JOIN c ON a.k = c.k",
	"SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
	"SELECT * FROM c JOIN d ON c.z = d.w JOIN c AS c2 ON d.k = c2.k WHERE c.k = 1",
	"SELECT * FROM c JOIN d ON c.z = d.w JOIN c AS c2 ON d.k = c2.k WHERE c.k IN (1, 2, 3)",
}

// bindPlacement binds sql over c with $1 = 2, its IN subqueries run
// unoptimized.
func bindPlacement(t *testing.T, c *catalog.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	b := plan.NewBinder(c)
	b.Params = &expr.ParamBinding{Vals: []sqltypes.Value{sqltypes.NewInt(2)}}
	b.SubqueryRowsFn = func(sel *sqlparser.SelectStmt) (func() ([]sqltypes.Row, error), error) {
		n, err := b.BindSelect(sel)
		if err != nil {
			return nil, err
		}
		return func() ([]sqltypes.Row, error) { return exec.RunOpts(n, exec.Options{}) }, nil
	}
	n, err := b.BindSelect(stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return n
}

// multiset renders rows sorted, for comparison regardless of order.
func multiset(rows []sqltypes.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// TestPlacementMatchesUnoptimized is the differential oracle of predicate
// placement: every statement of placementQueries returns, as a multiset,
// what its bound but unoptimized plan returns, over tables of several
// random fills.
func TestPlacementMatchesUnoptimized(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := placementCatalog(t, seed)
		for _, sql := range placementQueries() {
			want, err := exec.RunOpts(bindPlacement(t, c, sql), exec.Options{})
			if err != nil {
				t.Fatalf("seed %d, unoptimized %s: %v", seed, sql, err)
			}
			opt := Optimize(bindPlacement(t, c, sql))
			got, err := exec.RunOpts(opt, exec.Options{})
			if err != nil {
				t.Fatalf("seed %d, optimized %s: %v\n%s", seed, sql, err, plan.Explain(opt))
			}
			if g, w := multiset(got), multiset(want); g != w {
				t.Fatalf("seed %d: %s\noptimized plan:\n%s got:\n%s\nwant:\n%s", seed, sql, plan.Explain(opt), g, w)
			}
		}
	}
}

// TestPlacementLeavesSharedCTEAlone: a CTE read twice is one subtree under
// both references; a conjunct placed into one of them must not reach the
// other.
func TestPlacementLeavesSharedCTEAlone(t *testing.T) {
	c := placementCatalog(t, 1)
	n := bindPlacement(t, c, "WITH ca AS (SELECT k, x FROM a) SELECT * FROM ca c1 JOIN ca c2 ON c1.k = c2.k WHERE c1.x = 1")
	ex := plan.Explain(Optimize(n))
	if got := strings.Count(ex, "[filter:"); got != 1 {
		t.Errorf("%d filtered scans, want 1:\n%s", got, ex)
	}
}

// TestPlacementExplain pins where conjuncts end up, one shape per rule.
func TestPlacementExplain(t *testing.T) {
	c := placementCatalog(t, 1)
	for _, tc := range []struct{ sql, want string }{
		// A conjunct on one side of an inner join goes to that side's scan.
		{"SELECT * FROM a JOIN b ON a.k = b.k WHERE a.x > 1 AND b.s = 'p'",
			"Project k, x, s, k, y, s\n  HashJoin build=right JOIN (keys: [0]=[0])\n    Scan a [filter: (x > 1)]\n    Scan b [filter: (s = 'p')]\n"},
		// A comma join's equality becomes its hash key.
		{"SELECT * FROM a, b WHERE a.k = b.k AND a.x < b.y",
			"Project k, x, s, k, y, s\n  HashJoin build=right JOIN (keys: [0]=[0]) [residual: (x < y)]\n    Scan a\n    Scan b\n"},
		// Through a LEFT join: WHERE into the preserved side, ON into the
		// null-supplying side; the rest stays.
		{"SELECT * FROM a LEFT JOIN b ON a.k = b.k AND b.y > 3 AND a.x > 0 WHERE b.y IS NULL AND a.s = 'q'",
			"Project k, x, s, k, y, s\n  Filter (y IS NULL)\n    HashJoin build=right LEFT JOIN (keys: [0]=[0]) [residual: (x > 0)]\n      Scan a [filter: (s = 'q')]\n      Scan b [filter: (y > 3)]\n"},
		// Through a FULL join nothing moves.
		{"SELECT * FROM a FULL JOIN b ON a.k = b.k AND b.y > 3 WHERE a.x > 0",
			"Project k, x, s, k, y, s\n  Filter (x > 0)\n    HashJoin build=right FULL OUTER JOIN (keys: [0]=[0]) [residual: (y > 3)]\n      Scan a\n      Scan b\n"},
		// Through a subquery's renaming Project, not past a computed column.
		{"SELECT * FROM (SELECT k, x + 1 AS x1 FROM a) sa JOIN b ON sa.k = b.k WHERE sa.x1 > 2 AND sa.k = 1",
			"Project k, x1, k, y, s\n  HashJoin build=right JOIN (keys: [0]=[0])\n    Filter (x1 > 2)\n      Project k, (x + 1)\n        Scan a [filter: (k = 1)]\n    Scan b\n"},
		// A Project that only selects columns folds into the one below it.
		{"SELECT x1, k FROM (SELECT k, x + 1 AS x1 FROM a) sa",
			"Project (x + 1), k\n  Scan a\n"},
		// Below generate_series goes what does not read its integer; a
		// series whose integer nothing reads repeats its input rows.
		{"SELECT k FROM a, generate_series(1, x) AS g WHERE a.s = 'p' AND g > 1",
			"Project k\n  Filter (g > 1)\n    Series g = generate_series(1, x)\n      Scan a [filter: (s = 'p')]\n"},
		{"SELECT k FROM a, generate_series(1, x) AS g WHERE a.s = 'p'",
			"Project k\n  Series g = generate_series(1, x) [bare]\n    Scan a [filter: (s = 'p')]\n"},
		// A subquery stays in its Filter.
		{"SELECT * FROM a JOIN b ON a.k = b.k WHERE b.k IN (SELECT k FROM c) AND b.y = 1",
			"Project k, x, s, k, y, s\n  Filter (k IN (<subquery>))\n    HashJoin build=right JOIN (keys: [0]=[0])\n      Scan a\n      Scan b [filter: (y = 1)]\n"},
	} {
		if got := plan.Explain(Optimize(bindPlacement(t, c, tc.sql))); got != tc.want {
			t.Errorf("%s\n got:\n%s\nwant:\n%s", tc.sql, got, tc.want)
		}
	}
}

// rotated reports whether n holds a join whose right input is a join: what
// RotateKeyedJoin makes, and the binder never does for a chain written
// without parentheses.
func rotated(n plan.Node) bool {
	found := false
	plan.Walk(n, func(x plan.Node) bool {
		if j, ok := x.(*plan.Join); ok {
			_, r := j.Right.(*plan.Join)
			found = found || r
		}
		return true
	})
	return found
}

// TestRotateKeyedJoinFires: the rule rewrites every chain of rotatedChains
// and none of unrotatedChains, over each fill (d holds 0 to 4 rows, always
// fewer than a and c).
func TestRotateKeyedJoinFires(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := placementCatalog(t, seed)
		for _, chains := range []struct {
			sqls []string
			want bool
		}{{rotatedChains, true}, {unrotatedChains, false}} {
			for _, sql := range chains.sqls {
				if opt := Optimize(bindPlacement(t, c, sql)); rotated(opt) != chains.want {
					t.Errorf("seed %d: %s: rotated %v, want %v\n%s", seed, sql, !chains.want, chains.want, plan.Explain(opt))
				}
			}
		}
	}
}

// TestRotateKeyedJoinExplain pins the rewritten trees: A probes what B and
// C leave of each other, the moved join's keys and residual renumbered
// from B's first column and the output columns in their written order.
func TestRotateKeyedJoinExplain(t *testing.T) {
	c := placementCatalog(t, 1)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k AND d.w < c.z WHERE a.x > 1 AND c.z < 4",
			"Project k, x, s, k, w, k, z\n  HashJoin build=right JOIN (keys: [0]=[0])\n    Scan a [filter: (x > 1)]\n    IndexJoin c[pk] build=left JOIN (keys: [0]=[0]) [residual: (w < z)]\n      Scan d\n      Scan c [filter: (z < 4)]\n"},
		{"SELECT * FROM a JOIN d ON a.k IS NOT DISTINCT FROM d.k JOIN e ON d.w = e.j AND d.k = e.k",
			"Project k, x, s, k, w, k, j, v\n  HashJoin build=right JOIN (keys: [0]=[0])\n    Scan a\n    HashJoin build=left JOIN (keys: [1 0]=[1 0])\n      Scan d\n      Scan e\n"},
		{"SELECT a.s, c.z FROM a, d, c WHERE a.k = d.k AND d.k = c.k AND a.s = 'q'",
			"Project s, z\n  HashJoin build=right JOIN (keys: [0]=[0])\n    Scan a [filter: (s = 'q')]\n    IndexJoin c[pk] build=left JOIN (keys: [0]=[0])\n      Scan d\n      Scan c\n"},
		// Left as written: the upper join reads A.
		{"SELECT * FROM a JOIN d ON a.k = d.k JOIN c ON d.k = c.k AND a.x < c.z",
			"Project k, x, s, k, w, k, z\n  HashJoin build=right JOIN (keys: [3]=[0]) [residual: (x < z)]\n    HashJoin build=right JOIN (keys: [0]=[0])\n      Scan a\n      Scan d\n    Scan c\n"},
	} {
		if got := plan.Explain(Optimize(bindPlacement(t, c, tc.sql))); got != tc.want {
			t.Errorf("%s\n got:\n%s\nwant:\n%s", tc.sql, got, tc.want)
		}
	}
}

// TestIdentityProjectsDropped: a Project that passes its input through is
// gone below the root; the root one, which names the result, stays.
func TestIdentityProjectsDropped(t *testing.T) {
	c := placementCatalog(t, 1)
	sql := "WITH ca AS (SELECT k, x, s FROM a) SELECT k, x, s FROM ca AS v"
	n := Optimize(bindPlacement(t, c, sql))
	if got, want := plan.Explain(n), "Project k, x, s\n  Scan a\n"; got != want {
		t.Errorf("%s\n got:\n%s\nwant:\n%s", sql, got, want)
	}
	var names []string
	for _, col := range n.Schema() {
		names = append(names, col.Name)
	}
	if got := strings.Join(names, ","); got != "k,x,s" {
		t.Errorf("result columns %s", got)
	}
}
