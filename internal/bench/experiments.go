package bench

import (
	"fmt"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
	"openivm/internal/oltp"
	"openivm/internal/wire"
	"openivm/internal/workload"

	"openivm/internal/htap"
)

// Scale controls experiment sizes so the same code drives quick test runs
// and the full benchmark binary.
type Scale struct {
	// Mult scales row counts (1 = paper-ish laptop scale).
	Rows   []int // base table sizes for sweeps
	Deltas []float64
	Groups []int
	Stream int // update-stream length
	Batch  []int
}

// SmallScale keeps every experiment under ~1s for tests.
func SmallScale() Scale {
	return Scale{
		Rows:   []int{2000},
		Deltas: []float64{0.001, 0.01, 0.1},
		Groups: []int{16, 256},
		Stream: 200,
		Batch:  []int{1, 10, 100},
	}
}

// FullScale is the configuration cmd/benchivm runs.
func FullScale() Scale {
	return Scale{
		Rows:   []int{10000, 100000, 1000000},
		Deltas: []float64{0.0001, 0.001, 0.01, 0.1},
		Groups: []int{10, 1000, 100000},
		Stream: 2000,
		Batch:  []int{1, 10, 100, 1000, 10000},
	}
}

const listing1View = `CREATE MATERIALIZED VIEW query_groups AS SELECT group_index,
	SUM(group_value) AS total_value FROM groups GROUP BY group_index`

// newIVMDB builds a DuckDB-dialect engine with the extension installed and
// the groups workload loaded.
func newIVMDB(rows, groups int, pragmas ...string) (*engine.DB, *ivmext.Extension, error) {
	db := engine.Open("bench", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	for _, p := range pragmas {
		if _, err := db.Exec(p); err != nil {
			return nil, nil, err
		}
	}
	w := workload.Groups{Rows: rows, NumGroups: groups, Seed: 42}
	if err := w.Load(db); err != nil {
		return nil, nil, err
	}
	return db, ext, nil
}

// E1Compile regenerates the paper's Listings 1-2: it compiles the example
// view and returns the emitted scripts as a table of statement counts plus
// the SQL itself via the note.
func E1Compile() (*Table, string, error) {
	db := engine.Open("e1", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	if _, err := db.Exec("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"); err != nil {
		return nil, "", err
	}
	if _, err := db.Exec(listing1View); err != nil {
		return nil, "", err
	}
	setup, prop, err := ext.Scripts("query_groups")
	if err != nil {
		return nil, "", err
	}
	t := NewTable("E1: Listing 1 compilation (paper Listings 1-2)",
		"statements", "bytes")
	t.Add("setup DDL", countStmts(setup), len(setup))
	t.Add("propagation", countStmts(prop), len(prop))
	full := "-- setup --\n" + setup + "\n-- propagation --\n" + prop
	return t, full, nil
}

func countStmts(script string) int {
	return len(engine.SplitStatements(script))
}

// E2IncrementalVsRecompute measures IVM refresh cost against full
// recomputation across base sizes and delta fractions — the core claim of
// the demo ("incremental computation … more efficient than recalculating
// V each time it is queried").
func E2IncrementalVsRecompute(s Scale) (*Table, error) {
	t := NewTable("E2: IVM refresh vs full recomputation (groups, SUM group-by)",
		"base_rows", "delta_rows", "ivm_refresh", "recompute", "speedup")
	t.Note = "speedup >1x means IVM wins; expect crossover as delta fraction grows"
	for _, rows := range s.Rows {
		for _, frac := range s.Deltas {
			deltaRows := int(float64(rows) * frac)
			if deltaRows < 1 {
				deltaRows = 1
			}
			groups := s.Groups[len(s.Groups)-1]
			if groups > rows {
				groups = rows
			}
			db, _, err := newIVMDB(rows, groups)
			if err != nil {
				return nil, err
			}
			if _, err := db.Exec(listing1View); err != nil {
				return nil, err
			}
			w := workload.Groups{Rows: rows, NumGroups: groups}
			if _, err := db.Exec(w.InsertBatch(deltaRows, 7)); err != nil {
				return nil, err
			}
			ivmTime := MustTime(func() error {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			})
			recomputeTime := MustTime(func() error {
				_, err := db.Exec("SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index")
				return err
			})
			t.Add(fmt.Sprintf("%dx%s", rows, workload.Fraction(frac)),
				rows, deltaRows, ivmTime, recomputeTime, Speedup(recomputeTime, ivmTime))
		}
	}
	return t, nil
}

// E3CrossSystem reproduces the demo's four-way comparison: pure OLAP
// (DuckDB-style), pure OLTP (PostgreSQL-style), cross-system with IVM, and
// cross-system recomputation without IVM.
func E3CrossSystem(s Scale) (*Table, error) {
	// Use the mid-range base size: recompute cost grows with the base
	// while IVM sync cost grows only with the delta stream, so the base
	// must dwarf the stream for the paper's shape to be visible.
	rows := s.Rows[(len(s.Rows)-1+1)/2]
	streamLen := s.Stream
	sales := workload.Sales{Customers: rows / 10, Orders: rows, Regions: 16, Seed: 1}
	query := "SELECT region, SUM(amount) AS total FROM orders JOIN customers ON orders.cid = customers.cid GROUP BY region"
	viewSQL := `CREATE MATERIALIZED VIEW region_totals AS
		SELECT customers.region, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cid = customers.cid
		GROUP BY customers.region`

	t := NewTable("E3: cross-system HTAP comparison (query latency after a delta batch)",
		"apply_stream", "analytic_query", "total")
	t.Note = fmt.Sprintf("%d base orders, %d-statement update stream over TCP", rows, streamLen)

	// (a) pure OLAP: everything in the analytical engine, view recomputed.
	{
		db := engine.Open("olap", engine.DialectDuckDB)
		if err := sales.Load(db); err != nil {
			return nil, err
		}
		stream := sales.OrderStream(streamLen, 3)
		apply := MustTime(func() error {
			for _, u := range stream {
				if _, err := db.Exec(u.SQL); err != nil {
					return err
				}
			}
			return nil
		})
		q := MustTime(func() error { _, err := db.Exec(query); return err })
		t.Add("pure OLAP (recompute)", apply, q, apply+q)
	}

	// (b) pure OLTP: the same, in the row-store engine.
	{
		store := oltp.New("pg")
		if err := sales.Load(store.DB); err != nil {
			return nil, err
		}
		stream := sales.OrderStream(streamLen, 3)
		apply := MustTime(func() error {
			for _, u := range stream {
				if _, err := store.DB.Exec(u.SQL); err != nil {
					return err
				}
			}
			return nil
		})
		q := MustTime(func() error { _, err := store.DB.Exec(query); return err })
		t.Add("pure OLTP (recompute)", apply, q, apply+q)
	}

	// (c) cross-system with IVM and (d) without (full re-pull + recompute).
	for _, withIVM := range []bool{true, false} {
		store := oltp.New("pg")
		if err := sales.Load(store.DB); err != nil {
			return nil, err
		}
		srv := wire.NewServer(store.DB)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		cl, err := wire.Dial(addr)
		if err != nil {
			srv.Close()
			return nil, err
		}
		p := htap.New(cl)
		if withIVM {
			if err := p.CreateMaterializedView(viewSQL); err != nil {
				return nil, err
			}
		}
		stream := sales.OrderStream(streamLen, 3)
		apply := MustTime(func() error {
			for _, u := range stream {
				if _, err := cl.Exec(u.SQL); err != nil {
					return err
				}
			}
			return nil
		})
		var q time.Duration
		if withIVM {
			q = MustTime(func() error {
				_, err := p.Query("SELECT region, total FROM region_totals")
				return err
			})
			t.Add("cross-system + IVM", apply, q, apply+q)
		} else {
			q = MustTime(func() error {
				_, err := p.RecomputeRemote(query)
				return err
			})
			t.Add("cross-system no IVM", apply, q, apply+q)
		}
		cl.Close()
		srv.Close()
	}
	return t, nil
}

// E4IndexOverhead measures the ART (group-key index) build cost at view
// creation against the upsert speedup it buys during refresh — the paper's
// "creation only adds significant overhead the first time".
func E4IndexOverhead(s Scale) (*Table, error) {
	t := NewTable("E4: ART index build overhead vs refresh benefit",
		"groups", "create_with_index", "create_no_index", "refresh_upsert", "refresh_union")
	rows := s.Rows[0] * 10
	for _, groups := range s.Groups {
		if groups > rows {
			continue
		}
		var createIdx, createNoIdx, refreshUpsert, refreshUnion time.Duration
		// With index (upsert strategy needs it).
		{
			db, _, err := newIVMDB(rows, groups)
			if err != nil {
				return nil, err
			}
			createIdx = MustTime(func() error { _, err := db.Exec(listing1View); return err })
			w := workload.Groups{Rows: rows, NumGroups: groups}
			db.Exec(w.InsertBatch(rows/100+1, 9))
			refreshUpsert = MustTime(func() error {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			})
		}
		// Without index (union_regroup does not need one).
		{
			db, _, err := newIVMDB(rows, groups, "PRAGMA ivm_strategy='union_regroup'")
			if err != nil {
				return nil, err
			}
			createNoIdx = MustTime(func() error { _, err := db.Exec(listing1View); return err })
			w := workload.Groups{Rows: rows, NumGroups: groups}
			db.Exec(w.InsertBatch(rows/100+1, 9))
			refreshUnion = MustTime(func() error {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			})
		}
		t.Add(fmt.Sprintf("|G|=%d", groups), groups, createIdx, createNoIdx, refreshUpsert, refreshUnion)
	}
	return t, nil
}

// E5Strategies ablates the three combine strategies across group counts.
func E5Strategies(s Scale) (*Table, error) {
	t := NewTable("E5: combine-strategy ablation (refresh latency)",
		"groups", "upsert_left_join", "union_regroup", "full_outer_join")
	rows := s.Rows[0] * 10
	for _, groups := range s.Groups {
		if groups > rows {
			continue
		}
		var cells []any
		cells = append(cells, groups)
		for _, strat := range []string{"upsert_left_join", "union_regroup", "full_outer_join"} {
			db, _, err := newIVMDB(rows, groups, "PRAGMA ivm_strategy='"+strat+"'")
			if err != nil {
				return nil, err
			}
			if _, err := db.Exec(listing1View); err != nil {
				return nil, err
			}
			w := workload.Groups{Rows: rows, NumGroups: groups}
			db.Exec(w.InsertBatch(rows/100+1, 11))
			d := MustTime(func() error {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			})
			cells = append(cells, d)
		}
		t.Add(fmt.Sprintf("|G|=%d", groups), cells...)
	}
	return t, nil
}

// E6Batching sweeps propagation batch size: eager per-statement refresh vs
// increasingly batched lazy refresh, reporting throughput and worst-case
// staleness (the recency trade-off of §1).
func E6Batching(s Scale) (*Table, error) {
	t := NewTable("E6: batch size vs throughput and staleness",
		"batch", "total_time", "stmts_per_sec", "max_stale_stmts")
	rows := s.Rows[0]
	groups := s.Groups[0]
	for _, batch := range s.Batch {
		db, _, err := newIVMDB(rows, groups)
		if err != nil {
			return nil, err
		}
		mode := "lazy"
		if batch == 1 {
			mode = "eager"
		}
		db.Exec("PRAGMA ivm_mode='" + mode + "'")
		if _, err := db.Exec(listing1View); err != nil {
			return nil, err
		}
		w := workload.Groups{Rows: rows, NumGroups: groups}
		stream := w.UpdateStream(s.Stream, 0.8, 0.1, 13)
		total := MustTime(func() error {
			for i, u := range stream {
				if _, err := db.Exec(u.SQL); err != nil {
					return err
				}
				if mode == "lazy" && (i+1)%batch == 0 {
					if _, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups"); err != nil {
						return err
					}
				}
			}
			if mode == "lazy" {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			}
			return nil
		})
		rate := float64(len(stream)) / total.Seconds()
		t.Add(fmt.Sprintf("batch=%d(%s)", batch, mode), batch, total, rate, batch)
	}
	return t, nil
}

// E8AutoStrategy compares the fixed combine strategies against the
// runtime cost-based choice (PRAGMA ivm_strategy='auto') across workloads
// where different strategies win — the paper's future-work direction,
// implemented.
func E8AutoStrategy(s Scale) (*Table, error) {
	t := NewTable("E8: cost-based strategy selection (beyond-paper extension)",
		"groups", "delta", "upsert", "regroup", "auto", "auto_choice")
	rows := s.Rows[0] * 10
	cases := []struct {
		groups, delta int
	}{
		{s.Groups[0], rows / 4},                    // small view, big delta -> regroup should win
		{s.Groups[len(s.Groups)-1], rows/1000 + 1}, // big view, small delta -> upsert should win
	}
	for _, cse := range cases {
		if cse.groups > rows {
			continue
		}
		var cells []any
		cells = append(cells, cse.groups, cse.delta)
		var choice string
		for _, strat := range []string{"upsert_left_join", "union_regroup", "auto"} {
			db, ext, err := newIVMDB(rows, cse.groups, "PRAGMA ivm_strategy='"+strat+"'")
			if err != nil {
				return nil, err
			}
			if _, err := db.Exec(listing1View); err != nil {
				return nil, err
			}
			w := workload.Groups{Rows: rows, NumGroups: cse.groups}
			if _, err := db.Exec(w.InsertBatch(cse.delta, 21)); err != nil {
				return nil, err
			}
			d := MustTime(func() error {
				_, err := db.Exec("REFRESH MATERIALIZED VIEW query_groups")
				return err
			})
			cells = append(cells, d)
			if strat == "auto" {
				for name, n := range ext.Stats.AutoChoices {
					if n > 0 {
						choice = name
					}
				}
			}
		}
		cells = append(cells, choice)
		t.Add(fmt.Sprintf("|G|=%d,delta=%d", cse.groups, cse.delta), cells...)
	}
	return t, nil
}

// E7JoinIVM measures incremental join maintenance against join recompute
// across build-side cardinalities (paper: joins benefit "especially when
// the joined part has just a few unique keys").
func E7JoinIVM(s Scale) (*Table, error) {
	t := NewTable("E7: incremental join maintenance vs recompute",
		"customers", "orders", "ivm_refresh", "recompute", "speedup")
	orders := s.Rows[0] * 5
	for _, customers := range s.Groups {
		if customers > orders {
			continue
		}
		db := engine.Open("e7", engine.DialectDuckDB)
		ivmext.Install(db)
		sales := workload.Sales{Customers: customers, Orders: orders, Regions: 8, Seed: 5}
		if err := sales.Load(db); err != nil {
			return nil, err
		}
		if _, err := db.Exec(`CREATE MATERIALIZED VIEW region_totals AS
			SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n
			FROM orders JOIN customers ON orders.cid = customers.cid
			GROUP BY customers.region`); err != nil {
			return nil, err
		}
		for _, u := range sales.OrderStream(orders/100+1, 15) {
			if _, err := db.Exec(u.SQL); err != nil {
				return nil, err
			}
		}
		ivmTime := MustTime(func() error {
			_, err := db.Exec("REFRESH MATERIALIZED VIEW region_totals")
			return err
		})
		recompute := MustTime(func() error {
			_, err := db.Exec(`SELECT customers.region, SUM(orders.amount), COUNT(*)
				FROM orders JOIN customers ON orders.cid = customers.cid
				GROUP BY customers.region`)
			return err
		})
		t.Add(fmt.Sprintf("|C|=%d", customers), customers, orders, ivmTime, recompute,
			Speedup(recompute, ivmTime))
	}
	return t, nil
}
