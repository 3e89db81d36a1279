package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// explainLines is EXPLAIN's plan for sql, one trimmed line per operator,
// parents first.
func explainLines(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	var lines []string
	for _, r := range queryRows(t, db, "EXPLAIN "+sql) {
		lines = append(lines, strings.TrimSpace(r[0].S))
	}
	return lines
}

// lineAt is the index of the first line with the prefix, -1 for none.
func lineAt(lines []string, prefix string) int {
	return slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) })
}

// dashboardSQL is the dashboards' ad-hoc join over dashboardDB's tables.
const dashboardSQL = "SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n FROM orders JOIN customers ON orders.cid = customers.cid JOIN regions ON customers.region = regions.region WHERE regions.zone = 'z3' AND orders.amount >= 250 GROUP BY customers.region"

// dashboardDB holds the dashboards' three schemas, with fewer customers
// than orders and fewer regions than customers.
func dashboardDB(t *testing.T) *DB {
	t.Helper()
	db := Open("placement", DialectDuckDB)
	for _, sql := range []string{
		"CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)",
		"CREATE TABLE regions (region VARCHAR PRIMARY KEY, zone VARCHAR)",
		"CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)",
		"INSERT INTO regions VALUES ('r1', 'z1'), ('r2', 'z3'), ('r3', 'z3')",
		"INSERT INTO customers VALUES (1, 'r1'), (2, 'r2'), (3, 'r3'), (4, 'r2')",
		"INSERT INTO orders VALUES (1, 1, 300), (2, 2, 400), (3, 2, 100), (4, 3, 250), (5, 4, 900), (6, 1, 50), (7, 4, 10)",
	} {
		mustExec(t, db, sql)
	}
	return db
}

// TestExplainPredicatePlacement: WHERE and ON conjuncts move through joins
// to the scans they read, and what may not move stays put.
func TestExplainPredicatePlacement(t *testing.T) {
	db := dashboardDB(t)

	// The dashboards' ad-hoc join: both conjuncts reach their scans, and
	// no Filter is left above a join.
	lines := explainLines(t, db, dashboardSQL)
	if lineAt(lines, "Filter") >= 0 {
		t.Errorf("a Filter is left in the plan:\n%s", strings.Join(lines, "\n"))
	}
	for _, want := range []string{"Scan regions [filter: (zone = 'z3')]", "Scan orders [filter: (amount >= 250)]"} {
		if !slices.Contains(lines, want) {
			t.Errorf("no %q in the plan:\n%s", want, strings.Join(lines, "\n"))
		}
	}
	got := fmt.Sprint(queryRows(t, db, dashboardSQL+" ORDER BY customers.region"))
	if want := "[r2|1300|2 r3|250|1]"; got != want {
		t.Errorf("%s = %s, want %s", dashboardSQL, got, want)
	}

	// A comma join's equality is a hash (or index) key, not a nested loop.
	lines = explainLines(t, db, "SELECT * FROM orders o, customers c WHERE o.cid = c.cid")
	if join := lines[lineAt(lines, "Project")+1]; !strings.HasPrefix(join, "HashJoin") && !strings.HasPrefix(join, "IndexJoin") {
		t.Errorf("comma join with an equality runs as %s", join)
	}

	// A key pinned through a join reaches the keyed scan.
	lines = explainLines(t, db, "SELECT * FROM orders o JOIN customers c ON o.cid = c.cid WHERE o.oid = 7")
	if lineAt(lines, "KeyedScan orders[pk] AS o keys=1") < 0 {
		t.Errorf("key pin through a join:\n%s", strings.Join(lines, "\n"))
	}

	// A WHERE conjunct on the null-supplying side of a LEFT join stays
	// above it; the ON conjunct goes into that side.
	lines = explainLines(t, db, "SELECT * FROM orders o LEFT JOIN customers c ON o.cid = c.cid AND c.cid > 3 WHERE c.cid IS NULL")
	filter, join := lineAt(lines, "Filter (cid IS NULL)"), lineAt(lines, "HashJoin")
	if filter < 0 || join < 0 || filter > join || lineAt(lines, "Scan customers AS c [filter: (cid > 3)]") < 0 {
		t.Errorf("LEFT JOIN placement:\n%s", strings.Join(lines, "\n"))
	}
}

// TestExplainDashboardJoinOrder: the dashboards' join runs as orders ⋈
// (customers ⋈ regions) — customers meet the zone's regions first, and the
// scan of orders probes what is left of them once — and answers as written.
func TestExplainDashboardJoinOrder(t *testing.T) {
	db := dashboardDB(t)
	want := []string{
		"Project region, sum(orders.amount), count(*)",
		"HashAggregate region, SUM(amount), COUNT(*)",
		"HashJoin build=right JOIN (keys: [1]=[0])",
		"Scan orders [filter: (amount >= 250)]",
		"HashJoin build=right JOIN (keys: [1]=[0])",
		"Scan customers",
		"Scan regions [filter: (zone = 'z3')]",
	}
	if got := explainLines(t, db, dashboardSQL); !slices.Equal(got, want) {
		t.Errorf("EXPLAIN %s:\n got %s\nwant %s", dashboardSQL, strings.Join(got, "\n    "), strings.Join(want, "\n    "))
	}
	got := fmt.Sprint(queryRows(t, db, dashboardSQL+" ORDER BY customers.region"))
	if want := "[r2|1300|2 r3|250|1]"; got != want {
		t.Errorf("%s = %s, want %s", dashboardSQL, got, want)
	}
}
