// Package openivm's root benchmark suite: one testing.B benchmark per
// experiment (E1–E21), regenerating the measurements behind every artifact
// of the paper's demonstration section, plus the primary-key index and wire
// micro-benchmarks. It is the repository's one experiment harness:
//
//	go test -run '^$' -bench 'E2_Recompute|E3_' .
package openivm

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"openivm/internal/catalog"
	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/ivmext"
	"openivm/internal/mvcc"
	"openivm/internal/oltp"
	"openivm/internal/sqlparser"
	"openivm/internal/sqltypes"
	"openivm/internal/storage"
	"openivm/internal/wire"

	"openivm/internal/htap"
)

const listing1View = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

// benchDB is a database and the session a benchmark's statements run on.
type benchDB struct {
	*engine.DB
	s *engine.Session
}

// openBench opens a database and a session to run its statements on.
func openBench(b *testing.B, name string) benchDB {
	b.Helper()
	db := engine.Open(name, engine.DialectDuckDB)
	return benchDB{DB: db, s: db.NewSession()}
}

func loadGroups(b *testing.B, rows, groups int) benchDB {
	b.Helper()
	db := openBench(b, "bench")
	ivmext.Install(db.DB)
	loadGroupsTable(b, db.DB, rows, groups)
	return db
}

// loadGroupsTable creates the paper's Listing 1 table, groups, and loads
// rows rows spread over groups group_index values, drawn from a fixed seed.
func loadGroupsTable(b *testing.B, db *engine.DB, rows, groups int) {
	rng := rand.New(rand.NewSource(42))
	loadTable(b, db, "groups", "(group_index VARCHAR, group_value INTEGER)", rows, func(int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewString(groupKey(rng.Intn(groups))), sqltypes.NewInt(int64(rng.Intn(1000)))}
	})
}

// loadSales creates the cross-system demo's customers dimension and orders
// fact table and loads them, drawn from seed: customer i in one of regions
// regions, order i of a random customer.
func loadSales(b *testing.B, db *engine.DB, customers, orders, regions int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	loadTable(b, db, "customers", "(cid INTEGER PRIMARY KEY, region VARCHAR)", customers, func(i int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("r%03d", rng.Intn(regions)))}
	})
	loadTable(b, db, "orders", "(oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)", orders, func(i int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(rng.Intn(max(1, customers)))), sqltypes.NewInt(int64(rng.Intn(500)))}
	})
}

// loadTable creates table with the columns cols and loads n rows of row(i),
// in order of i, as one committed catalog-level write, which fires no
// trigger: a base load is not part of the measured update stream.
func loadTable(b *testing.B, db *engine.DB, table, cols string, n int, row func(i int) sqltypes.Row) {
	b.Helper()
	if _, err := db.Exec("CREATE TABLE " + table + " " + cols); err != nil {
		b.Fatal(err)
	}
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = row(i)
	}
	s := db.NewSession()
	defer s.Close()
	if err := s.InsertRows(tbl, rows); err != nil {
		b.Fatal(err)
	}
}

// groupKey formats the i-th group key of the groups table.
func groupKey(i int) string { return fmt.Sprintf("g%06d", i) }

// fraction formats a float as a percentage label for a sub-benchmark.
func fraction(f float64) string {
	if f >= 0.01 {
		return fmt.Sprintf("%.0f%%", f*100)
	}
	return fmt.Sprintf("%.2g%%", f*100)
}

// updateStream generates a deterministic stream of n single-row INSERT,
// DELETE and UPDATE statements against the groups table over groups
// groups. insertFrac and deleteFrac set the mix (the rest are updates).
func updateStream(groups, n int, insertFrac, deleteFrac float64, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := groupKey(rng.Intn(groups))
		r := rng.Float64()
		switch {
		case r < insertFrac:
			out = append(out, fmt.Sprintf("INSERT INTO groups VALUES ('%s', %d)", key, rng.Intn(1000)))
		case r < insertFrac+deleteFrac:
			out = append(out, fmt.Sprintf("DELETE FROM groups WHERE group_index = '%s' AND group_value < %d", key, rng.Intn(200)))
		default:
			out = append(out, fmt.Sprintf("UPDATE groups SET group_value = group_value + 1 WHERE group_index = '%s'", key))
		}
	}
	return out
}

// insertBatch generates a multi-row INSERT of n rows into the groups table
// over groups groups in one statement.
func insertBatch(groups, n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	sql := "INSERT INTO groups VALUES "
	for i := 0; i < n; i++ {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("('%s', %d)", groupKey(rng.Intn(groups)), rng.Intn(1000))
	}
	return sql
}

func mustExecB(b *testing.B, db benchDB, sql string) {
	b.Helper()
	if _, err := db.s.Exec(sql); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1_Compile measures the SQL-to-SQL compiler itself: parsing,
// planning and emitting the Listing 2 scripts for the Listing 1 view.
func BenchmarkE1_Compile(b *testing.B) {
	db := openBench(b, "e1")
	mustExecB(b, db, "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
	stmt, err := sqlparser.Parse(listing1View)
	if err != nil {
		b.Fatal(err)
	}
	cv := stmt.(*sqlparser.CreateViewStmt)
	c := ivm.NewCompiler(db.DB, ivm.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := c.Compile(cv.Name, cv.Select, cv.SourceSQL)
		if err != nil {
			b.Fatal(err)
		}
		_ = comp.PropagateSQL()
	}
}

// BenchmarkE2_IVMRefresh / BenchmarkE2_Recompute sweep delta fraction on a
// fixed base (E2: the core incremental-vs-recompute claim); E2_IVMRefresh
// also sweeps the number of groups at a fixed delta (G4096 … G409600).
func BenchmarkE2_IVMRefresh(b *testing.B) {
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		b.Run(fraction(frac), func(b *testing.B) {
			const rows, groups = 20000, 256
			db := loadGroups(b, rows, groups)
			mustExecB(b, db, listing1View)
			deltaRows := int(float64(rows) * frac)
			if deltaRows < 1 {
				deltaRows = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mustExecB(b, db, trimmableBatch(groups, deltaRows, int64(i)))
				b.StartTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
				b.StopTimer()
				// Take the batch out again, so every iteration refreshes
				// the same base and view whatever b.N is.
				mustExecB(b, db, "DELETE FROM groups WHERE group_value >= 1000")
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
				b.StartTimer()
			}
		})
	}
	// The group-count sweep at a fixed 100-row delta: the view holds one
	// row per group, and refresh time must not grow with it — step 3 finds
	// the emptied groups among the ~100 keys of ΔT through the view's key
	// index, not by scanning the view. Every tenth refresh the batches are
	// taken out again, so the base never holds more than 1 000 rows beyond
	// its load whatever b.N is; taking them out scans the base, which after
	// every refresh would cost G409600 most of its run.
	for _, groups := range []int{4096, 40960, 409600} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			db := loadGroupView(b, groups)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mustExecB(b, db, trimmableBatch(groups, 100, int64(i)))
				b.StartTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
				if i%10 == 9 {
					b.StopTimer()
					mustExecB(b, db, "DELETE FROM groups WHERE group_value >= 1000")
					mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
					b.StartTimer()
				}
			}
		})
	}
}

// trimmableBatch is an INSERT of n rows into the Listing 1 base over
// groups groups whose values, unlike the loaded rows' [0, 1000), are at
// least 1000, so `group_value >= 1000` deletes exactly the batches.
func trimmableBatch(groups, n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("INSERT INTO groups VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('%s', %d)", groupKey(rng.Intn(groups)), 1000+rng.Intn(1000))
	}
	return sb.String()
}

// loadGroupView loads one base row per group and creates the Listing 1
// view over them: a fresh view of exactly groups rows.
func loadGroupView(b *testing.B, groups int) benchDB {
	b.Helper()
	db := openBench(b, "bench")
	ivmext.Install(db.DB)
	loadTable(b, db.DB, "groups", "(group_index VARCHAR, group_value INTEGER)", groups, func(g int) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewString(groupKey(g)), sqltypes.NewInt(int64(g % 1000))}
	})
	mustExecB(b, db, listing1View)
	return db
}

// BenchmarkE11_PointRead is one point read of a fresh aggregate view — the
// dashboard's statement — swept over the number of groups the view holds:
// as ad-hoc text (a new key, hence parse and plan, every time) and through
// a prepared handle with the key as `$1`. The read finds its row through
// the view's key index, so its time must not grow with the view.
func BenchmarkE11_PointRead(b *testing.B) {
	for _, groups := range []int{4096, 40960, 409600} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			db := loadGroupView(b, groups)
			s := db.NewSession()
			defer s.Close()
			read := func(b *testing.B, exec func(key string) (*engine.Result, error)) {
				b.Helper()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := exec(groupKey(i * 7919 % groups))
					if err != nil || len(res.Rows) != 1 {
						b.Fatalf("point read: %v, %v", res, err)
					}
				}
			}
			b.Run("adhoc", func(b *testing.B) {
				read(b, func(key string) (*engine.Result, error) {
					return s.Exec("SELECT total_value FROM query_groups WHERE group_index = '" + key + "'")
				})
			})
			b.Run("prepared", func(b *testing.B) {
				p, err := s.PrepareScript("SELECT total_value FROM query_groups WHERE group_index = $1")
				if err != nil {
					b.Fatal(err)
				}
				read(b, func(key string) (*engine.Result, error) {
					s.BindParams([]sqltypes.Value{sqltypes.NewString(key)})
					return s.ExecStmts(p)
				})
			})
		})
	}
}

// BenchmarkE13_AdhocWrite is the write side of the embedded workloads: a
// 25-row INSERT … VALUES into a 50 000-row table with an aggregate view on
// it (insert25), and a transaction of 96 single-row INSERTs (txn96), each
// as ad-hoc text — new literals every time — and through a prepared handle
// with the values as $N parameters. The lexer lifts the text's literals
// out and the statement's plan is found in the cache, so the ad-hoc
// allocs/op track the prepared ones instead of paying parse and bind. The
// view is refreshed, untimed, every 64 iterations.
func BenchmarkE13_AdhocWrite(b *testing.B) {
	const base, groups = 50_000, 1000
	names := make([]string, groups)
	for g := range names {
		names[g] = groupKey(g)
	}
	setup := func(b *testing.B) (benchDB, func(i int)) {
		db := openBench(b, "e13")
		ivmext.Install(db.DB)
		mustExecB(b, db, "CREATE TABLE g (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)")
		tbl, err := db.Catalog().Table("g")
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]sqltypes.Row, base)
		for id := range rows {
			rows[id] = sqltypes.Row{sqltypes.NewInt(int64(id)), sqltypes.NewString(names[id%groups]), sqltypes.NewInt(int64(id % 97))}
		}
		if err := db.s.InsertRows(tbl, rows); err != nil {
			b.Fatal(err)
		}
		mustExecB(b, db, "CREATE MATERIALIZED VIEW gv AS SELECT group_index, SUM(group_value) AS total, COUNT(*) AS n FROM g GROUP BY group_index")
		b.ReportAllocs()
		b.ResetTimer()
		return db, func(i int) {
			if i%64 == 63 {
				b.StopTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW gv")
				b.StartTimer()
			}
		}
	}
	// write appends one row's values for the id to the text and the
	// parameters.
	write := func(sql []byte, params []sqltypes.Value, id int) ([]byte, []sqltypes.Value) {
		sql = strconv.AppendInt(append(sql, '('), int64(id), 10)
		sql = strconv.AppendInt(append(append(append(sql, ",'"...), names[id%groups]...), "',"...), int64(id%89), 10)
		return append(sql, ')'), append(params, sqltypes.NewInt(int64(id)), sqltypes.NewString(names[id%groups]), sqltypes.NewInt(int64(id%89)))
	}
	var sql []byte
	var params []sqltypes.Value
	b.Run("insert25", func(b *testing.B) {
		b.Run("adhoc", func(b *testing.B) {
			db, tick := setup(b)
			for i := 0; i < b.N; i++ {
				sql = append(sql[:0], "INSERT INTO g VALUES "...)
				for r := 0; r < 25; r++ {
					if r > 0 {
						sql = append(sql, ',')
					}
					sql, _ = write(sql, nil, base+25*i+r)
				}
				mustExecB(b, db, string(sql))
				tick(i)
			}
		})
		b.Run("prepared", func(b *testing.B) {
			db, tick := setup(b)
			text := "INSERT INTO g VALUES "
			for r := 0; r < 25; r++ {
				if r > 0 {
					text += ","
				}
				text += fmt.Sprintf("($%d, $%d, $%d)", 3*r+1, 3*r+2, 3*r+3)
			}
			p, err := db.PrepareScript(text)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				params = params[:0]
				for r := 0; r < 25; r++ {
					_, params = write(nil, params, base+25*i+r)
				}
				db.s.BindParams(params)
				if _, err := db.s.ExecStmts(p); err != nil {
					b.Fatal(err)
				}
				tick(i)
			}
		})
	})
	b.Run("txn96", func(b *testing.B) {
		b.Run("adhoc", func(b *testing.B) {
			db, tick := setup(b)
			for i := 0; i < b.N; i++ {
				sql = append(sql[:0], "BEGIN; "...)
				for r := 0; r < 96; r++ {
					sql, _ = write(append(sql, "INSERT INTO g VALUES "...), nil, base+96*i+r)
					sql = append(sql, "; "...)
				}
				mustExecB(b, db, string(append(sql, "COMMIT"...)))
				tick(i)
			}
		})
		b.Run("prepared", func(b *testing.B) {
			db, tick := setup(b)
			p, err := db.PrepareScript("INSERT INTO g VALUES ($1, $2, $3)")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				mustExecB(b, db, "BEGIN")
				for r := 0; r < 96; r++ {
					_, params = write(nil, params[:0], base+96*i+r)
					db.s.BindParams(params)
					if _, err := db.s.ExecStmts(p); err != nil {
						b.Fatal(err)
					}
				}
				mustExecB(b, db, "COMMIT")
				tick(i)
			}
		})
	})
}

// BenchmarkE14_ProjectionRefresh is the refresh of a view that carries its
// base's key — the dashboards' big_orders projection (V5000 … V500000), and
// the same orders joined to their customers (join_V*) — after a one-row
// INSERT OR REPLACE that changes the row, swept over the number of rows the
// view holds. The view is keyed by orders.oid, so the refresh deletes the
// retracted row through V's key: its time must not grow with the view.
// Only the refresh is timed.
func BenchmarkE14_ProjectionRefresh(b *testing.B) {
	const customers = 1000
	arms := []struct{ prefix, view string }{
		{"", "CREATE MATERIALIZED VIEW v AS SELECT oid, cid, amount FROM orders WHERE amount >= 250"},
		{"join_", "CREATE MATERIALIZED VIEW v AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid"},
	}
	for _, arm := range arms {
		for _, rows := range []int{5000, 50000, 500000} {
			b.Run(fmt.Sprintf("%sV%d", arm.prefix, rows), func(b *testing.B) {
				db := openBench(b, "e14")
				ivmext.Install(db.DB)
				mustExecB(b, db, "CREATE TABLE customers (cid INTEGER PRIMARY KEY, region VARCHAR)")
				mustExecB(b, db, "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)")
				load := func(table string, n int, row func(i int) sqltypes.Row) {
					tbl, err := db.Catalog().Table(table)
					if err != nil {
						b.Fatal(err)
					}
					rows := make([]sqltypes.Row, n)
					for i := range rows {
						rows[i] = row(i)
					}
					if err := db.s.InsertRows(tbl, rows); err != nil {
						b.Fatal(err)
					}
				}
				load("customers", customers, func(i int) sqltypes.Row {
					return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("r%02d", i%16))}
				})
				load("orders", rows, func(i int) sqltypes.Row {
					return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % customers)), sqltypes.NewInt(int64(250 + i%500))}
				})
				mustExecB(b, db, arm.view)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					oid := i * 7919 % rows
					mustExecB(b, db, fmt.Sprintf("INSERT OR REPLACE INTO orders VALUES (%d, %d, %d)", oid, oid%customers, 250+(oid+i+1)%500))
					b.StartTimer()
					mustExecB(b, db, "REFRESH MATERIALIZED VIEW v")
				}
			})
		}
	}
}

// e21RowsPerGroup is the rows each group (or customer) holds in the E21
// sweeps, whatever their number.
const e21RowsPerGroup = 4

// BenchmarkE21_MinMaxDelete is the refresh of a MIN/MAX view after 100
// rows, each its group's maximum, are deleted again, swept over the number
// of groups at 4 rows a group. The repair recomputes the touched groups
// from the base, which it finds through the index the view's setup
// creates on the GROUP BY column: its time must not grow with the base.
// Only the refresh of the deletes is timed.
func BenchmarkE21_MinMaxDelete(b *testing.B) {
	for _, groups := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			db := openBench(b, "e21")
			ivmext.Install(db.DB)
			n := groups * e21RowsPerGroup
			loadTable(b, db.DB, "t", "(id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)", n, func(i int) sqltypes.Row {
				return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % groups)), sqltypes.NewInt(int64(i % 1000))}
			})
			mustExecB(b, db, "CREATE MATERIALIZED VIEW v AS SELECT g, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY g")
			var ins, del strings.Builder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ins.Reset()
				del.Reset()
				ins.WriteString("INSERT INTO t VALUES ")
				del.WriteString("DELETE FROM t WHERE id IN (")
				for r := 0; r < 100; r++ {
					if r > 0 {
						ins.WriteString(", ")
						del.WriteString(", ")
					}
					fmt.Fprintf(&ins, "(%d, %d, %d)", n+r, (i*100+r)*7919%groups, 1000+r)
					fmt.Fprintf(&del, "%d", n+r)
				}
				del.WriteString(")")
				mustExecB(b, db, ins.String())
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW v")
				mustExecB(b, db, del.String())
				b.StartTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW v")
			}
		})
	}
}

// BenchmarkE21_JoinCustomerUpdate is the refresh of an orders ⋈ customers
// view after 10 customers change region, swept over the number of
// customers at 4 orders a customer. ΔC finds its orders through the index
// the view's setup creates on orders(cid), the join's non-key side: its
// time must not grow with the base. Only the refresh is timed.
func BenchmarkE21_JoinCustomerUpdate(b *testing.B) {
	for _, customers := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("G%d", customers), func(b *testing.B) {
			db := openBench(b, "e21")
			ivmext.Install(db.DB)
			loadTable(b, db.DB, "customers", "(cid INTEGER PRIMARY KEY, region VARCHAR)", customers, func(i int) sqltypes.Row {
				return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("r%02d", i%16))}
			})
			loadTable(b, db.DB, "orders", "(oid INTEGER PRIMARY KEY, cid INTEGER, amount INTEGER)", customers*e21RowsPerGroup, func(i int) sqltypes.Row {
				return sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % customers)), sqltypes.NewInt(int64(i % 500))}
			})
			mustExecB(b, db, "CREATE MATERIALIZED VIEW v AS SELECT o.oid, c.region, o.amount FROM orders AS o JOIN customers AS c ON o.cid = c.cid")
			var upd strings.Builder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				upd.Reset()
				fmt.Fprintf(&upd, "UPDATE customers SET region = 'r%02d' WHERE cid IN (", i%16)
				for r := 0; r < 10; r++ {
					if r > 0 {
						upd.WriteString(", ")
					}
					fmt.Fprintf(&upd, "%d", (i*10+r)*7919%customers)
				}
				upd.WriteString(")")
				mustExecB(b, db, upd.String())
				b.StartTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW v")
			}
		})
	}
}

// BenchmarkE2_IVMRefreshWAL is the E2 refresh loop with a durable
// backend attached: each delta insert group-commits through the WAL
// before the refresh runs. The gap to BenchmarkE2_IVMRefresh/f10pct is
// the price of durability on the maintenance path (fsync dominated);
// the refresh itself touches only unlogged IVM state and appends
// nothing.
func BenchmarkE2_IVMRefreshWAL(b *testing.B) {
	const rows, groups = 20000, 256
	db := openBench(b, "bench")
	ivmext.Install(db.DB)
	bk, err := storage.OpenDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AttachBackend(bk); err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	loadGroupsTable(b, db.DB, rows, groups)
	mustExecB(b, db, listing1View)
	deltaRows := rows / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, db, insertBatch(groups, deltaRows, int64(i)))
		mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
	}
}

func BenchmarkE2_Recompute(b *testing.B) {
	const rows, groups = 20000, 256
	db := loadGroups(b, rows, groups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, db, "SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
	}
}

// BenchmarkE3_CrossSystem measures one sync+query cycle of the HTAP
// pipeline with and without IVM (E3: the four-way demo comparison; the
// pure-engine arms are BenchmarkE2_Recompute and BenchmarkE3_PureOLTP).
func BenchmarkE3_CrossSystemIVM(b *testing.B) {
	const orders = 5000
	store := oltp.New("pg")
	loadSales(b, store.DB, 500, orders, 16, 1)
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	p := htap.New(cl)
	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW region_totals AS
		SELECT customers.region, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cid = customers.cid
		GROUP BY customers.region`); err != nil {
		b.Fatal(err)
	}
	next := orders
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := cl.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)", next, next%500, next%400)); err != nil {
			b.Fatal(err)
		}
		next++
		b.StartTimer()
		if _, err := p.Query("SELECT region, total FROM region_totals"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_CrossSystemRecompute(b *testing.B) {
	store := oltp.New("pg")
	loadSales(b, store.DB, 500, 5000, 16, 1)
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Exec(`SELECT region, SUM(amount) FROM orders
			JOIN customers ON orders.cid = customers.cid GROUP BY region`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_PureOLTP(b *testing.B) {
	store := oltp.New("pg")
	loadSales(b, store.DB, 500, 5000, 16, 1)
	s := store.DB.NewSession()
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(`SELECT region, SUM(amount) FROM orders
			JOIN customers ON orders.cid = customers.cid GROUP BY region`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_CreateViewWithIndex measures view creation, which builds the
// view's key index — a primary key on the view table, an
// internal/index/slottab hash table — that the upsert combine of every
// refresh probes.
func BenchmarkE4_CreateViewWithIndex(b *testing.B) {
	for _, groups := range []int{100, 10000} {
		b.Run(fmt.Sprintf("G%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := loadGroups(b, 50000, groups)
				b.StartTimer()
				mustExecB(b, db, listing1View)
			}
		})
	}
}

// BenchmarkE6_Batch sweeps the propagation batch size (E6: recency vs
// amortization).
func BenchmarkE6_Batch(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			const rows, groups = 5000, 64
			db := loadGroups(b, rows, groups)
			mustExecB(b, db, listing1View)
			stream := updateStream(groups, batch, 0.8, 0.1, 13)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sql := range stream {
					mustExecB(b, db, sql)
				}
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW query_groups")
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
		})
	}
}

// BenchmarkE7_JoinIVM measures incremental join-view maintenance vs
// recomputing the join (E7), as a base-size sweep at a fixed 50-row delta:
// C2048 / C20480 / C204800 run Δorders ⋈ customers as an index join (one
// primary-key probe per delta row), so their refresh time must not grow
// with the customers table; C16 is smaller than the delta and stays on the
// hash path.
func BenchmarkE7_JoinIVM(b *testing.B) {
	for _, customers := range []int{16, 2048, 20480, 204800} {
		b.Run(fmt.Sprintf("C%d", customers), func(b *testing.B) {
			db := openBench(b, "e7")
			ivmext.Install(db.DB)
			const orders = 20000
			loadSales(b, db.DB, customers, orders, 8, 5)
			mustExecB(b, db, `CREATE MATERIALIZED VIEW region_totals AS
				SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n
				FROM orders JOIN customers ON orders.cid = customers.cid
				GROUP BY customers.region`)
			next := orders
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 50; j++ {
					mustExecB(b, db, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)",
						next, next%customers, next%300))
					next++
				}
				b.StartTimer()
				mustExecB(b, db, "REFRESH MATERIALIZED VIEW region_totals")
			}
		})
	}
}

func BenchmarkE7_JoinRecompute(b *testing.B) {
	db := openBench(b, "e7")
	loadSales(b, db.DB, 2048, 20000, 8, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, db, `SELECT customers.region, SUM(orders.amount), COUNT(*)
			FROM orders JOIN customers ON orders.cid = customers.cid
			GROUP BY customers.region`)
	}
}

// BenchmarkE7_JoinBuild measures the hash-join build side at scale: a
// 20 000-row build input (customers) probed by 30 000 orders.
func BenchmarkE7_JoinBuild(b *testing.B) {
	db := openBench(b, "e7b")
	loadSales(b, db.DB, 20000, 30000, 8, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExecB(b, db, `SELECT customers.region, SUM(orders.amount), COUNT(*)
			FROM orders JOIN customers ON orders.cid = customers.cid
			GROUP BY customers.region`)
	}
}

// BenchmarkE10_MultiViewRefresh measures refresh groups overlapping: K
// independent materialized views (disjoint base tables, so disjoint refresh
// groups) refreshed by K concurrent callers while W background writer
// sessions keep inserting single rows. Each iteration queues a delta batch
// per base (untimed), then refreshes all K views from K goroutines and
// waits (timed); each refresh runs on its caller's goroutine. stall-ns/op
// reports the writers' stall per iteration (time their commits waited for
// a change log's lock): bounded by a refresh building its window's rows,
// not by propagation duration.
func BenchmarkE10_MultiViewRefresh(b *testing.B) {
	const views, writers, deltaRows = 4, 2, 500
	db := engine.Open("e10", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	bdb := benchDB{DB: db, s: db.NewSession()}
	insertBatch := func(v, n int, round int64) string {
		sb := fmt.Appendf(nil, "INSERT INTO e10_t%d VALUES ", v)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb = append(sb, ',')
			}
			sb = fmt.Appendf(sb, "('k%d', %d)", i%64, round*int64(n)+int64(i))
		}
		return string(sb)
	}
	for v := 0; v < views; v++ {
		mustExecB(b, bdb, fmt.Sprintf("CREATE TABLE e10_t%d (k VARCHAR, v INTEGER)", v))
		mustExecB(b, bdb, insertBatch(v, 2000, -1))
		mustExecB(b, bdb, fmt.Sprintf(
			"CREATE MATERIALIZED VIEW e10_v%d AS SELECT k, SUM(v) AS sv FROM e10_t%d GROUP BY k", v, v))
	}
	var stop atomic.Bool
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; !stop.Load(); j++ {
				sql := fmt.Sprintf("INSERT INTO e10_t%d VALUES ('w%d', %d)", (w+j)%views, j%64, j)
				if _, err := s.ExecScript(sql); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	stall0 := atomic.LoadInt64(&ext.Stats.CaptureStallNanos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for v := 0; v < views; v++ {
			mustExecB(b, bdb, insertBatch(v, deltaRows, int64(i)))
		}
		b.StartTimer()
		var rwg sync.WaitGroup
		for v := 0; v < views; v++ {
			rwg.Add(1)
			go func(v int) {
				defer rwg.Done()
				s := db.NewSession()
				defer s.Close()
				if _, err := s.ExecScript(fmt.Sprintf("REFRESH MATERIALIZED VIEW e10_v%d", v)); err != nil {
					b.Error(err)
				}
			}(v)
		}
		rwg.Wait()
	}
	b.StopTimer()
	stop.Store(true)
	wwg.Wait()
	b.ReportMetric(float64(atomic.LoadInt64(&ext.Stats.CaptureStallNanos)-stall0)/float64(b.N), "stall-ns/op")
}

// startWireBig serves one preloaded engine with a wide 100k-row table
// for the streaming-transport benchmarks.
func startWireBig(b *testing.B, rows int) string {
	b.Helper()
	db := openBench(b, "bench")
	mustExecB(b, db, "CREATE TABLE big (id INTEGER, val INTEGER, tag VARCHAR)")
	var sb []byte
	const chunk = 2000
	for lo := 0; lo < rows; lo += chunk {
		sb = append(sb[:0], "INSERT INTO big VALUES "...)
		for i := lo; i < lo+chunk && i < rows; i++ {
			if i > lo {
				sb = append(sb, ',')
			}
			sb = fmt.Appendf(sb, "(%d, %d, 'tag%d')", i, i*7%1000, i%37)
		}
		mustExecB(b, db, string(sb))
	}
	srv := wire.NewServer(db.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return addr
}

// BenchmarkWire_Stream measures result transport on a 100k-row result:
// the server streams binary row-batch frames straight off the live
// operator tree and the consumer visits each batch as it lands — no
// materialization on either end. allocs/op is the headline number. (The
// one arm keeps the name "v2" it had beside the removed JSON protocol, so
// its BENCH_BASELINE.json entry stays comparable.)
func BenchmarkWire_Stream(b *testing.B) {
	const rows = 100_000
	const q = "SELECT id, val, tag FROM big"
	b.Run("v2", func(b *testing.B) {
		addr := startWireBig(b, rows)
		cl, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Exec(q); err != nil { // warm the plan cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := cl.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			got := 0
			for {
				batch, err := rs.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				got += len(batch)
			}
			if got != rows {
				b.Fatalf("rows = %d", got)
			}
		}
	})
}

// BenchmarkWire_Concurrent measures the multi-client wire server end to
// end: c concurrent connections — one engine.Session each — run the same
// aggregation against one preloaded engine, exercising the framed v2 transport,
// per-session dispatch and the shared SQL-text plan cache under
// contention. Each statement runs on its session's goroutine, so scaling
// with c measures session/server overhead.
func BenchmarkWire_Concurrent(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("c%d", clients), func(b *testing.B) {
			db := loadGroups(b, 5000, 50)
			srv := wire.NewServer(db.DB)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conns := make([]*wire.Client, clients)
			for i := range conns {
				cl, err := wire.Dial(addr)
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				conns[i] = cl
			}
			const q = "SELECT group_index, SUM(group_value) FROM groups WHERE group_value > 500 GROUP BY group_index"
			// Warm the shared plan cache once so the steady state is measured.
			if _, err := conns[0].Exec(q); err != nil {
				b.Fatal(err)
			}
			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, cl := range conns {
				wg.Add(1)
				go func(cl *wire.Client) {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						if _, err := cl.Exec(q); err != nil {
							b.Error(err)
							return
						}
					}
				}(cl)
			}
			wg.Wait()
		})
	}
}

// BenchmarkWire_RoundTrip measures one single-row statement over
// loopback per iteration: the per-statement cost of the wire path
// (request, schema, rows and trailer frames, socket writes) around work
// that costs the engine a few microseconds. adhoc is a keyed point read
// in statement text, prepared the same read with the key bound to $1,
// insert a one-row INSERT … VALUES.
func BenchmarkWire_RoundTrip(b *testing.B) {
	const keys = 1000
	db := openBench(b, "bench")
	mustExecB(b, db, "CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER)")
	mustExecB(b, db, "CREATE TABLE w (k INTEGER PRIMARY KEY, v INTEGER)")
	sb := []byte("INSERT INTO kv VALUES ")
	for k := 0; k < keys; k++ {
		if k > 0 {
			sb = append(sb, ',')
		}
		sb = fmt.Appendf(sb, "(%d, %d)", k, k*7)
	}
	mustExecB(b, db, string(sb))
	srv := wire.NewServer(db.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Prepare("point", "SELECT v FROM kv WHERE k = $1"); err != nil {
		b.Fatal(err)
	}
	oneRow := func(b *testing.B, resp *wire.Response, err error) {
		if err != nil || len(resp.Rows) != 1 {
			b.Fatalf("point read: %v, %v", resp, err)
		}
	}
	b.Run("adhoc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := cl.Exec("SELECT v FROM kv WHERE k = " + strconv.Itoa(i%keys))
			oneRow(b, resp, err)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := cl.ExecPrepared("point", sqltypes.NewInt(int64(i%keys)))
			oneRow(b, resp, err)
		}
	})
	next := 0 // keys already inserted into w, across the runs of b.N
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := cl.Exec("INSERT INTO w VALUES (" + strconv.Itoa(next) + ", 1)")
			if err != nil || resp.RowsAffected != 1 {
				b.Fatalf("insert: %v, %v", resp, err)
			}
			next++
		}
	})
}

// BenchmarkE12_HTAPSync measures one Pipeline.Sync of the cross-system
// demo at the repository benchmark's shape: a 100k-row orders mirror
// behind a join-aggregate view, twenty single-row writes on the OLTP side
// per sync — 30 % of them upserts of existing orders, each captured as a
// retraction plus an insertion — pulled over loopback wire and replayed
// into the mirror. The writes are outside the timed span. ns/delta is the
// replay cost per pulled delta row, which must not grow with the mirror.
func BenchmarkE12_HTAPSync(b *testing.B) {
	const writesPerSync, upsertsPerSync = 20, 6
	const customers, orders = 2000, 100_000
	store := oltp.New("pg")
	loadSales(b, store.DB, customers, orders, 16, 1)
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	writer, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer writer.Close()
	pc, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	p := htap.New(pc)
	defer p.OLAP.Close()
	if err := p.CreateMaterializedView(`CREATE MATERIALIZED VIEW region_totals AS
		SELECT customers.region, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cid = customers.cid
		GROUP BY customers.region`); err != nil {
		b.Fatal(err)
	}
	next := orders
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for w := 0; w < writesPerSync; w++ {
			oid := next
			if w < upsertsPerSync {
				oid = (i*7919 + w*104729) % orders
			} else {
				next++
			}
			sql := fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d) ON CONFLICT (oid) DO UPDATE SET cid = %d, amount = %d",
				oid, oid%customers, w+1, oid%customers, i%400)
			if _, err := writer.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := p.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if want := b.N * (writesPerSync + upsertsPerSync); p.Stats.DeltasPulled != want {
		b.Fatalf("pulled %d deltas, want %d", p.Stats.DeltasPulled, want)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(p.Stats.DeltasPulled), "ns/delta")
}

// pkBenchRows is the table size of the primary-key index benchmarks.
const pkBenchRows = 100_000

func pkBenchTable(b *testing.B, rows int) (*catalog.Table, *catalog.Catalog) {
	b.Helper()
	cat := catalog.New()
	tbl, err := cat.CreateTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.TypeInt},
		{Name: "v", Type: sqltypes.TypeInt},
	}, []string{"id"}, false)
	if err != nil {
		b.Fatal(err)
	}
	pkBenchWrite(b, cat, func(tx *mvcc.Txn) error {
		err := tbl.InsertBatchTxn(tx, pkBenchBatch(0, rows))
		return err
	})
	return tbl, cat
}

// pkBenchWrite runs write as one committed transaction of cat.
func pkBenchWrite(b *testing.B, cat *catalog.Catalog, write func(tx *mvcc.Txn) error) {
	b.Helper()
	tx := cat.MVCC().Begin()
	err := write(tx)
	if err == nil {
		err = cat.MVCC().Commit(tx)
	}
	if err != nil {
		b.Fatal(err)
	}
}

func pkBenchBatch(from, n int) []sqltypes.Row {
	slab := make([]sqltypes.Value, 2*n)
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = slab[2*i : 2*i+2 : 2*i+2]
		rows[i][0], rows[i][1] = sqltypes.NewInt(int64(from+i)), sqltypes.NewInt(int64(i))
	}
	return rows
}

// BenchmarkPKIndex_* measure the primary-key index through the table that
// owns it: a keyed insert (one probe for the duplicate check, one index
// entry), a point lookup, and the index's share of a compacting sweep.
// The index's memory per key is bounded by internal/index/slottab's tests.
func BenchmarkPKIndex_Put(b *testing.B) {
	for done := 0; done < b.N; done += pkBenchRows {
		b.StopTimer()
		rows := pkBenchBatch(0, min(pkBenchRows, b.N-done))
		tbl, cat := pkBenchTable(b, 0)
		pkBenchWrite(b, cat, func(tx *mvcc.Txn) error {
			b.StartTimer() // the insert alone, not its commit
			err := tbl.InsertBatchTxn(tx, rows)
			b.StopTimer()
			return err
		})
	}
}

// BenchmarkPKIndex_Get is one point read through the primary key, as a
// keyed scan resolves it: a cursor over one key, at the registered
// snapshot of the statement that reads.
func BenchmarkPKIndex_Get(b *testing.B) {
	tbl, cat := pkBenchTable(b, pkBenchRows)
	sn, release := cat.MVCC().AcquireSnapshot()
	defer release()
	key := make([]sqltypes.Value, 1)
	var cur catalog.Cursor
	var rows []sqltypes.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = sqltypes.NewInt(int64(i * 7919 % pkBenchRows))
		tbl.Open(&cur, sn, key)
		if rows, _ = cur.Next(rows[:0], 2, nil); len(rows) != 1 {
			b.Fatal("key not found")
		}
	}
}

// BenchmarkPKIndex_Rebuild times the sweep that compacts a table after
// 30 % of its rows died: slots are renumbered and the index follows.
func BenchmarkPKIndex_Rebuild(b *testing.B) {
	tbl, cat := pkBenchTable(b, pkBenchRows)
	dead := pkBenchBatch(0, pkBenchRows*3/10)
	mgr := cat.MVCC()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The delete's commit triggers a background sweep. A registered
		// snapshot holds the watermark behind that commit until the timed
		// span; the background sweep keeps the watermark its trigger saw,
		// however late it runs, so it and the untimed sweep below find
		// nothing to reclaim and the timed sweep does all of the work.
		_, release := mgr.AcquireSnapshot()
		if i > 0 {
			pkBenchWrite(b, cat, func(tx *mvcc.Txn) error {
				err := tbl.InsertBatchTxn(tx, dead)
				return err
			})
		}
		n := int64(len(dead))
		pkBenchWrite(b, cat, func(tx *mvcc.Txn) error {
			_, err := tbl.DeleteTxn(tx, nil, func(r sqltypes.Row) (bool, error) { return r[0].I < n, nil })
			return err
		})
		mgr.Vacuum()
		b.StartTimer()
		release()
		if got := mgr.Vacuum(); got != len(dead) {
			b.Fatalf("sweep reclaimed %d versions, want %d", got, len(dead))
		}
	}
}
