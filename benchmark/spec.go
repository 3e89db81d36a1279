package main

import "encoding/json"

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is rejected;
// per-layer metrics have none.
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// runSeconds is the measured window of one driver run.
const runSeconds = 20

// endToEnd is what a user of the system sees. Every workload reports
// every one; timings are at reference speed (calib.go). Two of the issue's
// metrics are not here. error_rate must read 0, which the driver does not
// take: it is the correct / attempted / failed triple of the result line
// and loadgen.error_rate below. The two p99s are tail.* below: GC cycles,
// checkpoints and a neighbour's bursts land in the tail, and over ten runs
// their quartile distance reached 40 % of the median, past the largest
// bound the driver admits. The timing bounds are that largest bound: ten
// runs spread 1-8 % on the box the benchmark was sized on, the driver's
// host several times that.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_kop", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.05},
}

// perLayer comes from the traced run. A layer a workload leaves idle
// reads 0.
var perLayer = []metricSpec{
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "plan.plan_us", Unit: "us", Better: "lower"},
	{Name: "engine.stmtcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.dml_us", Unit: "us", Better: "lower"},
	{Name: "engine.keyed_update_ms", Unit: "ms", Better: "lower"},
	{Name: "ivmext.capture_overhead_us", Unit: "us", Better: "lower"},
	{Name: "ivm.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.script_stmts", Unit: "count", Better: "lower"},
	{Name: "ivmext.refresh_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ivmext.refresh_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ivmext.refresh_us_per_delta_row", Unit: "us", Better: "lower"},
	{Name: "ivmext.delta_rows", Unit: "count", Better: "lower"},
	{Name: "ivmext.refreshes", Unit: "count", Better: "lower"},
	{Name: "ivmext.generations_sealed", Unit: "count", Better: "lower"},
	{Name: "ivmext.capture_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.view_read_us", Unit: "us", Better: "lower"},
	{Name: "exec.recompute_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.recompute_over_refresh", Unit: "ratio", Better: "higher"},
	{Name: "mvcc.commits", Unit: "count", Better: "higher"},
	{Name: "mvcc.conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mvcc.gc_versions", Unit: "count", Better: "higher"},
	{Name: "storage.wal_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "storage.commits_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.write_stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.replayed_records", Unit: "count", Better: "lower"},
	{Name: "wire.ping_us", Unit: "us", Better: "lower"},
	{Name: "wire.exec_overhead_us", Unit: "us", Better: "lower"},
	{Name: "wire.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.streamed_batches", Unit: "count", Better: "lower"},
	{Name: "wire.governor_kills", Unit: "count", Better: "lower"},
	{Name: "htap.sync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "htap.sync_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "htap.sync_us_per_delta", Unit: "us", Better: "lower"},
	{Name: "htap.deltas_pulled", Unit: "count", Better: "lower"},
	{Name: "htap.olap_query_us", Unit: "us", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "host.speed", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.gen_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.error_rate", Unit: "ratio", Better: "lower"},
	{Name: "tail.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.read_gap_pct", Unit: "%", Better: "lower"},
}

// benchmarkJSON renders the repository's BENCHMARK.json from the tables
// above, so the file and the program cannot drift apart (a test compares
// them).
func benchmarkJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type endMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workload    `json:"workloads"`
		EndToEnd   []endMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "benchmark", "run", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, endMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	return append(out, '\n'), err
}
