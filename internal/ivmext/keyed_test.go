package ivmext

import (
	"fmt"
	"strings"
	"testing"

	"openivm/internal/engine"
)

// TestProjectionReinsertKeepsRow: a row deleted and inserted again, and a
// row replaced by itself, stay in a projection view. The combine nets the
// delta per row before applying it; the row-value plan inserted the unchanged
// row a second time and then deleted every copy of it.
func TestProjectionReinsertKeepsRow(t *testing.T) {
	for _, mode := range []string{"lazy", "eager"} {
		t.Run(mode, func(t *testing.T) {
			db := engine.Open("reinsert", engine.DialectDuckDB)
			Install(db)
			mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
			mustExec(t, db, "INSERT INTO orders VALUES (1,1,300),(2,2,100),(5,5,400)")
			mustExec(t, db, "CREATE MATERIALIZED VIEW big_orders AS SELECT oid, cid, amount FROM orders WHERE amount >= 250")
			for _, sql := range []string{"DELETE FROM orders WHERE oid = 5", "INSERT INTO orders VALUES (5,5,400)", "INSERT OR REPLACE INTO orders VALUES (1,1,300)"} {
				mustExec(t, db, sql)
				if mode == "eager" {
					mustExec(t, db, "REFRESH MATERIALIZED VIEW big_orders")
				}
			}
			var got []string
			for _, r := range mustExec(t, db, "SELECT oid, cid, amount FROM big_orders ORDER BY oid").Rows {
				got = append(got, r.String())
			}
			if want := "1|1|300 5|5|400"; strings.Join(got, " ") != want {
				t.Errorf("big_orders reads %q, want %q", got, want)
			}
		})
	}
}

// TestExplainKeyedBody: every statement of a view's body explains — steps
// 2–3, which read ΔT or a join's product-rule terms — for a keyed
// projection and a keyed FK→PK join view, and
// for views that hold a NULL group: an aggregate grouped by a nullable
// column, a keyless projection (keyed by all its columns) and a MIN view.
// Step 2 and the MIN/MAX repair upsert V's storage, step 3 deletes through
// its key, a NULL key too (the MIN view's body ends with step 3, as every
// grouped view's does), and a point read of a keyed view, through its
// plain view, is a key probe of the storage.
func TestExplainKeyedBody(t *testing.T) {
	db := engine.Open("keyedbody", engine.DialectDuckDB)
	ext := Install(db)
	mustExec(t, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
	mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
	mustExec(t, db, "INSERT INTO customers VALUES (1, 'eu'), (2, 'us')")
	mustExec(t, db, "INSERT INTO orders VALUES (1, 1, 300), (2, 2, 100), (5, 1, 400), (7, NULL, 500)")
	for _, c := range []struct {
		view, def string
		want      []string // <V> stands for V's storage
		pointRead bool
	}{
		{"big_orders", "SELECT oid, cid, amount FROM orders WHERE amount >= 250",
			[]string{"Upsert <V>", "KeyedDelete <V>[pk] keys=IN(subquery)"}, true},
		{"order_regions", "SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid",
			[]string{"Upsert <V>", "KeyedDelete <V>[pk] keys=IN(subquery)"}, true},
		{"cust_totals", "SELECT cid, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cid",
			[]string{"Upsert <V>", "KeyedDelete <V>[pk] keys=IN(subquery)"}, false},
		{"order_amounts", "SELECT cid, amount FROM orders",
			[]string{"Upsert <V>", "KeyedDelete <V>[pk] keys=IN(subquery)"}, false},
		{"cust_min", "SELECT cid, MIN(amount) AS lo FROM orders GROUP BY cid",
			[]string{"Upsert <V>", "Upsert <V>", "KeyedDelete <V>[pk] keys=IN(subquery)"}, false},
	} {
		mustExec(t, db, "CREATE MATERIALIZED VIEW "+c.view+" AS "+c.def)
		comp, _ := ext.Compilation(c.view)
		if !c.pointRead {
			if n := len(mustExec(t, db, "SELECT * FROM "+comp.Storage+" WHERE cid IS NULL").Rows); n != 1 {
				t.Fatalf("%s holds %d NULL groups, want 1", c.view, n)
			}
		}
		want := strings.ReplaceAll(strings.Join(c.want, "\n"), "<V>", comp.Storage)
		var got []string
		for _, stmt := range comp.Body.Stmts {
			got = append(got, mustExec(t, db, "EXPLAIN "+stmt.SQL()).Rows[0][0].S)
		}
		if strings.Join(got, "\n") != want {
			t.Errorf("%s body explains as\n%s\nwant\n%s", c.view, strings.Join(got, "\n"), want)
		}
		if !c.pointRead {
			continue
		}
		read := fmt.Sprint(mustExec(t, db, "EXPLAIN SELECT * FROM "+c.view+" WHERE oid = 5").Rows)
		if !strings.Contains(read, " KeyedScan "+comp.Storage+"[pk] keys=1 ") {
			t.Errorf("point read of %s: %s", c.view, read)
		}
	}
}
