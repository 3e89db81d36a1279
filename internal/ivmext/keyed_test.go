package ivmext

import (
	"fmt"
	"math/rand"
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
			ext := Install(db)
			mustExec(t, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
			mustExec(t, db, "INSERT INTO orders VALUES (1,1,300),(2,2,100),(5,5,400)")
			mustExec(t, db, "CREATE MATERIALIZED VIEW big_orders AS SELECT oid, cid, amount FROM orders WHERE amount >= 250")
			write := armWrite(t, ext, mode)
			write("DELETE FROM orders WHERE oid = 5")
			write("INSERT INTO orders VALUES (5,5,400)")
			write("INSERT OR REPLACE INTO orders VALUES (1,1,300)")
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

// TestPropertyKeyedViews: keyed projection views — single and composite
// key — and a keyed FK→PK join view equal their defining queries after
// random histories of key-changing UPDATEs, INSERT OR REPLACE of unchanged
// and of changed rows, a delete and re-insert of one row in one generation
// (one transaction), rows crossing the WHERE threshold both ways, NULLs in
// non-key columns and customers that move, vanish and change their key —
// eager and lazy.
func TestPropertyKeyedViews(t *testing.T) {
	views := []struct{ name, def, cols string }{
		{"big", "SELECT oid, cid, amt, note FROM o WHERE amt >= 50", "oid, cid, amt, note"},
		{"lines_big", "SELECT ln, oid, qty FROM l WHERE qty > 3", "ln, oid, qty"},
		{"regional", "SELECT o.oid, c.region, o.amt, o.note FROM o JOIN c ON o.cid = c.cid WHERE o.amt >= 20", "oid, region, amt, note"},
	}
	for _, mode := range []string{"eager", "lazy"} {
		t.Run(mode, func(t *testing.T) {
			db := engine.Open("keyedprop", engine.DialectDuckDB)
			ext := Install(db)
			mustExec(t, db, "CREATE TABLE c (cid INTEGER PRIMARY KEY, region VARCHAR)")
			mustExec(t, db, "CREATE TABLE o (oid INTEGER PRIMARY KEY, cid INTEGER, amt INTEGER, note VARCHAR)")
			mustExec(t, db, "CREATE TABLE l (oid INTEGER NOT NULL, ln INTEGER NOT NULL, qty INTEGER, PRIMARY KEY (oid, ln))")
			rng := rand.New(rand.NewSource(int64(59 + len(mode))))
			nullOr := func(s string) string {
				if rng.Intn(4) == 0 {
					return "NULL"
				}
				return s
			}
			orderRow := func(oid int) string {
				return fmt.Sprintf("(%d, %d, %d, %s)", oid, rng.Intn(12), rng.Intn(100), nullOr(fmt.Sprintf("'n%d'", rng.Intn(3))))
			}
			for cid := 0; cid < 8; cid++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO c VALUES (%d, %s)", cid, nullOr(fmt.Sprintf("'r%d'", rng.Intn(3)))))
			}
			nextO, nextC := 0, 8
			for ; nextO < 30; nextO++ {
				mustExec(t, db, "INSERT INTO o VALUES "+orderRow(nextO))
				mustExec(t, db, fmt.Sprintf("INSERT INTO l VALUES (%d, %d, %d)", nextO%10, nextO, rng.Intn(8)))
			}
			for _, v := range views {
				mustExec(t, db, "CREATE MATERIALIZED VIEW "+v.name+" AS "+v.def)
				if comp, _ := ext.Compilation(v.name); comp.Key == nil {
					t.Fatalf("%s is not keyed", v.name)
				}
			}
			write := armWrite(t, ext, mode)
			// current renders the row of table where selects as a VALUES
			// tuple, or "" when there is none.
			current := func(table, where string) string {
				rows := mustExec(t, db, "SELECT * FROM "+table+" WHERE "+where).Rows
				if len(rows) == 0 {
					return ""
				}
				parts := make([]string, len(rows[0]))
				for i, v := range rows[0] {
					parts[i] = v.SQLLiteral()
				}
				return "(" + strings.Join(parts, ", ") + ")"
			}
			// mayExec is write for a statement that may break a primary key;
			// one that does keeps nothing.
			mayExec := func(sql string) {
				t.Helper()
				if _, err := db.Exec(sql); err != nil && !strings.Contains(err.Error(), "primary key") {
					t.Fatalf("Exec(%q): %v", sql, err)
				}
				refreshAfterWrite(t, ext, mode)
			}
			check := func(step int) {
				t.Helper()
				for _, v := range views {
					checkView(t, db, step, v.name, v.cols, v.def)
				}
			}
			for i := 0; i < 300; i++ {
				oid := rng.Intn(nextO)
				switch rng.Intn(14) {
				case 0, 1:
					write("INSERT INTO o VALUES " + orderRow(nextO))
					nextO++
				case 2: // replaced by itself
					if row := current("o", fmt.Sprintf("oid = %d", oid)); row != "" {
						write("INSERT OR REPLACE INTO o VALUES " + row)
					}
				case 3: // replaced by other values
					write("INSERT OR REPLACE INTO o VALUES " + orderRow(oid))
				case 4: // deleted and inserted again in one generation
					if row := current("o", fmt.Sprintf("oid = %d", oid)); row != "" {
						write(fmt.Sprintf("BEGIN; DELETE FROM o WHERE oid = %d; INSERT INTO o VALUES %s; COMMIT", oid, row))
					}
				case 5: // the key changes
					write(fmt.Sprintf("UPDATE o SET oid = %d WHERE oid = %d", nextO, oid))
					nextO++
				case 6: // across the thresholds, either way
					write(fmt.Sprintf("UPDATE o SET amt = %d WHERE oid = %d", rng.Intn(100), oid))
				case 7:
					write(fmt.Sprintf("UPDATE o SET note = %s, cid = %d WHERE oid = %d", nullOr("'m'"), rng.Intn(12), oid))
				case 8:
					write(fmt.Sprintf("DELETE FROM o WHERE oid = %d", oid))
				case 9: // customers move, change their key, come and go
					cid := rng.Intn(nextC + 1)
					switch rng.Intn(4) {
					case 0:
						write(fmt.Sprintf("UPDATE c SET region = %s WHERE cid = %d", nullOr(fmt.Sprintf("'r%d'", rng.Intn(3))), cid))
					case 1:
						mayExec(fmt.Sprintf("UPDATE c SET cid = %d WHERE cid = %d", rng.Intn(12), cid))
					case 2:
						write(fmt.Sprintf("DELETE FROM c WHERE cid = %d", cid))
					default:
						write(fmt.Sprintf("INSERT OR REPLACE INTO c VALUES (%d, 'r%d')", rng.Intn(12), rng.Intn(3)))
					}
				case 10: // composite key: replaced by itself, moved, changed
					ln := rng.Intn(nextO + 1)
					switch row := current("l", fmt.Sprintf("ln = %d", ln)); {
					case row != "" && rng.Intn(2) == 0:
						write("INSERT OR REPLACE INTO l VALUES " + row)
					case rng.Intn(2) == 0:
						mayExec(fmt.Sprintf("UPDATE l SET oid = oid + 1, qty = %d WHERE ln = %d", rng.Intn(8), ln))
					default:
						write(fmt.Sprintf("INSERT OR REPLACE INTO l VALUES (%d, %d, %d)", rng.Intn(10), ln, rng.Intn(8)))
					}
				case 11:
					write(fmt.Sprintf("DELETE FROM l WHERE ln = %d", rng.Intn(nextO+1)))
				case 12:
					for _, v := range views {
						mustExec(t, db, "REFRESH MATERIALIZED VIEW "+v.name)
					}
				case 13:
					check(i)
				}
			}
			check(300)
		})
	}
}
