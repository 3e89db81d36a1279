// Analytics: a single-system IVM dashboard scenario — the workload the
// paper's introduction motivates. A stream of telemetry events feeds three
// simultaneously-maintained materialized views (per-service totals,
// per-region error counts with a filter, and a min/max latency summary),
// refreshed eagerly first (a REFRESH after every insert) and then lazily in
// one batch (the first dashboard query refreshes), with timings for each
// regime.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivmext"
)

func main() {
	db := engine.Open("analytics", engine.DialectDuckDB)
	ext := ivmext.Install(db)
	sess := db.NewSession()
	defer sess.Close()
	must := func(sql string) *engine.Result {
		res, err := sess.ExecScript(sql)
		if err != nil {
			log.Fatalf("%s\n-> %v", sql, err)
		}
		return res
	}

	must(`CREATE TABLE events (service VARCHAR, region VARCHAR,
	        latency_ms INTEGER, is_error INTEGER)`)

	// Three dashboards over one event stream.
	must(`CREATE MATERIALIZED VIEW service_load AS SELECT service,
	        COUNT(*) AS requests, SUM(latency_ms) AS total_latency
	        FROM events GROUP BY service`)
	must(`CREATE MATERIALIZED VIEW region_errors AS SELECT region,
	        COUNT(*) AS errors FROM events WHERE is_error = 1 GROUP BY region`)
	must(`CREATE MATERIALIZED VIEW latency_extremes AS SELECT service,
	        MIN(latency_ms) AS best, MAX(latency_ms) AS worst, COUNT(*) AS n
	        FROM events GROUP BY service`)

	services := []string{"api", "auth", "billing", "search"}
	regions := []string{"eu", "us", "ap"}
	rng := rand.New(rand.NewSource(2024))
	event := func() string {
		return fmt.Sprintf("INSERT INTO events VALUES ('%s', '%s', %d, %d)",
			services[rng.Intn(len(services))], regions[rng.Intn(len(regions))],
			1+rng.Intn(500), rng.Intn(10)/9)
	}

	// Regime 1: eager — every insert is followed by a refresh. The three
	// views share their base table, so refreshing one refreshes all three.
	start := time.Now()
	for i := 0; i < 2000; i++ {
		must(event())
		must("REFRESH MATERIALIZED VIEW service_load")
	}
	eager := time.Since(start)
	fmt.Printf("eager regime: 2000 events in %v (%d propagation runs)\n",
		eager.Round(time.Millisecond), ext.Stats.Propagations)

	// Regime 2: lazy — deltas buffer, views refresh when queried.
	before := ext.Stats.Propagations
	start = time.Now()
	for i := 0; i < 2000; i++ {
		must(event())
	}
	ingest := time.Since(start)
	start = time.Now()
	res := must(`SELECT service, requests, total_latency FROM service_load ORDER BY service`)
	refresh := time.Since(start)
	fmt.Printf("lazy regime:  2000 events in %v, first dashboard query %v (%d propagation runs)\n\n",
		ingest.Round(time.Millisecond), refresh.Round(time.Millisecond),
		ext.Stats.Propagations-before)

	fmt.Println("== service_load ==")
	fmt.Print(res.Format())
	fmt.Println("\n== region_errors ==")
	fmt.Print(must(`SELECT region, errors FROM region_errors ORDER BY region`).Format())
	fmt.Println("\n== latency_extremes ==")
	fmt.Print(must(`SELECT service, best, worst, n FROM latency_extremes ORDER BY service`).Format())

	// Consistency check against full recomputation.
	check := must(`SELECT service, COUNT(*), SUM(latency_ms) FROM events GROUP BY service ORDER BY service`)
	view := must(`SELECT service, requests, total_latency FROM service_load ORDER BY service`)
	for i := range check.Rows {
		if check.Rows[i].String() != view.Rows[i].String() {
			log.Fatalf("divergence at row %d: %v vs %v", i, check.Rows[i], view.Rows[i])
		}
	}
	fmt.Println("\nverified: all dashboards match full recomputation")
}
