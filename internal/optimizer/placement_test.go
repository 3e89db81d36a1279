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

// placementCatalog fills four tables with random rows: a and b share a
// join key k drawn from a small domain with NULLs and repeats, c is keyed
// on k, and d is a handful of rows — small enough beside c that a join of
// the two probes c's key index.
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
	if err := c.MVCC().Commit(tx); err != nil {
		t.Fatal(err)
	}
	return c
}

// placementQueries are the statements the differential test runs: every
// join kind with conjuncts of the ON condition and of WHERE on each side,
// on both, on neither and through subqueries, then comma joins, CTE and
// subquery references, and index-join shapes.
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
	return append(qs,
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
	)
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
		// A subquery stays in its Filter.
		{"SELECT * FROM a JOIN b ON a.k = b.k WHERE b.k IN (SELECT k FROM c) AND b.y = 1",
			"Project k, x, s, k, y, s\n  Filter (k IN (<subquery>))\n    HashJoin build=right JOIN (keys: [0]=[0])\n      Scan a\n      Scan b [filter: (y = 1)]\n"},
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
