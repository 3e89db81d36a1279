package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"openivm/internal/engine"
	"openivm/internal/ivm"
	"openivm/internal/sqlparser"
)

// probes collects per-layer metrics. Its tracer is the coordinator's;
// every probe call is recorded as a span like any other call into a
// layer.
type probes struct {
	tr    *tracer
	m     map[string]float64
	spans []span // every client's spans, for probes that look back at the window
}

// timed calls f n times, each under a span of the given name, and
// returns the median duration in ms.
func (p *probes) timed(name string, n int, f func(i int) error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		sp := p.tr.begin(name, noParent, int64(i))
		t := time.Now()
		err := f(i)
		ds[i] = float64(time.Since(t)) / 1e6
		p.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ds), nil
}

// median stores the median duration of n calls of f under metric, in ms
// multiplied by scale (1e3 for a metric in µs).
func (p *probes) median(metric string, scale float64, n int, f func(i int) error) error {
	ms, err := p.timed("probe/"+metric, n, f)
	p.m[metric] = ms * scale
	return err
}

// parse replays the workload's own write texts through the parser, off
// the op path.
func (p *probes) parse(texts []string) error {
	if len(texts) == 0 {
		return fmt.Errorf("sqlparser.parse_us: no write texts kept")
	}
	return p.median("sqlparser.parse_us", 1e3, len(texts), func(i int) error {
		_, err := sqlparser.ParseScript(texts[i])
		return err
	})
}

// plan binds and optimizes each read shape.
func (p *probes) plan(s *engine.Session, reads []string) error {
	sels := make([]*sqlparser.SelectStmt, len(reads))
	for i, sql := range reads {
		stmts, err := sqlparser.ParseScript(sql)
		if err != nil {
			return err
		}
		sel, ok := stmts[0].(*sqlparser.SelectStmt)
		if !ok {
			return fmt.Errorf("plan.plan_us: %q is not a SELECT", sql)
		}
		sels[i] = sel
	}
	return p.median("plan.plan_us", 1e3, 100*len(sels), func(i int) error {
		_, err := s.PlanSelect(sels[i%len(sels)])
		return err
	})
}

// compile runs the SQL-to-SQL compiler over each view definition.
func (p *probes) compile(db *engine.DB, views []string) error {
	var stmts int
	t := time.Now()
	for _, sql := range views {
		sp := p.tr.begin("ivm.CompileSQL", noParent, 0)
		comp, err := ivm.NewCompiler(db, ivm.DefaultOptions()).CompileSQL(sql)
		p.tr.end(sp)
		if err != nil {
			return fmt.Errorf("ivm.compile_ms: %w", err)
		}
		stmts += len(comp.Propagate.Stmts)
	}
	p.m["ivm.compile_ms"] = float64(time.Since(t)) / 1e6
	p.m["ivm.script_stmts"] = float64(stmts)
	return nil
}

// recompute runs a view's defining query directly — what a reader would
// pay without IVM.
func (p *probes) recompute(exec execFn, query string) error {
	return p.median("exec.recompute_ms", 1, probeScans, func(int) error { return exec(query) })
}

// measured is what the harness hands over for the per-layer numbers.
type measured struct {
	phases              phases
	tracers             []*tracer
	perClient           [][]sample
	calib               [][]calSample
	stats               windowStats
	lenient             bool
	before, after       counters
	memBefore, memAfter runtime.MemStats
	cpuAt               []float64 // process CPU ms at the window start and at the end of every slice
	genNS               int64
}

// layerMetrics fills p.m: span statistics of the traced window, deltas
// of the layers' counters across it, and the workload's own probes.
func layerMetrics(p *probes, e env, ms *measured) error {
	w := ms.phases.win
	var spans []span
	for _, t := range ms.tracers[:len(ms.perClient)] {
		spans = append(spans, t.spans...)
	}
	p.spans = spans
	pct := func(ds []float64, q float64) (float64, error) {
		if len(ds) == 0 {
			return 0, nil
		}
		v, err := percentile(ds, q)
		if q == 0.99 {
			v, err = tailPercentile(ds)
		}
		if err != nil && ms.lenient {
			return ds[len(ds)/2], nil
		}
		return v, err
	}
	group := func(match func(name string) bool) []float64 {
		var ds []float64
		for _, s := range spans {
			if match(s.Name) && w.sliceOf(s.End) >= 0 {
				ds = append(ds, float64(s.End-s.Start)/1e6)
			}
		}
		sort.Float64s(ds)
		return ds
	}
	named := func(name string) []float64 { return group(func(n string) bool { return n == name }) }
	sum := func(ds []float64) (t float64) {
		for _, d := range ds {
			t += d
		}
		return t
	}

	d := func(after, before int64) float64 { return float64(after - before) }
	a, b := ms.after, ms.before
	deltaRows := d(a.ivm.DeltaRowsCaptured, b.ivm.DeltaRowsCaptured)

	// Span percentiles, ms times scale.
	selects := group(func(n string) bool { return strings.HasSuffix(n, "/select") })
	refresh, syncs := named(spanRefresh), named(spanSync)
	for _, sp := range []struct {
		metric string
		ds     []float64
		q      float64
		scale  float64
	}{
		{"ivmext.refresh_p50_ms", refresh, 0.5, 1},
		{"ivmext.refresh_p99_ms", refresh, 0.99, 1},
		{"exec.view_read_us", selects, 0.5, 1e3}, // the select on the view the refresh just made fresh
		{"htap.sync_p50_ms", syncs, 0.5, 1},
		{"htap.sync_p99_ms", syncs, 0.99, 1},
		{"htap.olap_query_us", named(spanOLAPSelect), 0.5, 1e3},
	} {
		v, err := pct(sp.ds, sp.q)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.metric, err)
		}
		p.m[sp.metric] = v * sp.scale
	}

	// ivmext
	if deltaRows > 0 {
		p.m["ivmext.refresh_us_per_delta_row"] = sum(refresh) * 1e3 / deltaRows
	}
	p.m["ivmext.delta_rows"] = deltaRows
	p.m["ivmext.refreshes"] = d(a.ivm.Refreshes, b.ivm.Refreshes)
	p.m["ivmext.generations_sealed"] = d(a.ivm.GenerationsSealed, b.ivm.GenerationsSealed)
	p.m["ivmext.capture_stall_ms"] = d(a.ivm.CaptureStallNanos, b.ivm.CaptureStallNanos) / 1e6

	// htap
	p.m["htap.deltas_pulled"] = float64(a.pulled - b.pulled)
	if n := p.m["htap.deltas_pulled"]; n > 0 {
		p.m["htap.sync_us_per_delta"] = sum(syncs) * 1e3 / n
	}

	// engine / mvcc / storage / wire counters
	if n := d(a.stmt.Hits+a.stmt.Misses, b.stmt.Hits+b.stmt.Misses); n > 0 {
		p.m["engine.stmtcache_hit_ratio"] = d(a.stmt.Hits, b.stmt.Hits) / n
	}
	commits := float64(a.txn.Commits - b.txn.Commits)
	aborts := float64(a.txn.ConflictAborts - b.txn.ConflictAborts)
	p.m["mvcc.commits"] = commits
	if commits+aborts > 0 {
		p.m["mvcc.conflict_ratio"] = aborts / (commits + aborts)
	}
	p.m["mvcc.gc_versions"] = float64(a.txn.GCVersions - b.txn.GCVersions)
	if recs := d(a.storage.WALRecords, b.storage.WALRecords); recs > 0 {
		p.m["storage.wal_bytes_per_commit"] = d(a.storage.WALBytes, b.storage.WALBytes) / recs
		if fsyncs := d(a.storage.Fsyncs, b.storage.Fsyncs); fsyncs > 0 {
			p.m["storage.commits_per_fsync"] = recs / fsyncs
		}
	}
	p.m["wire.streamed_batches"] = d(a.server.StreamedBatches, b.server.StreamedBatches)
	p.m["wire.governor_kills"] = d(a.server.GovernorKills, b.server.GovernorKills)

	// process
	ops := float64(ms.stats.Ops)
	if ops > 0 {
		p.m["process.allocs_per_op"] = float64(ms.memAfter.Mallocs-ms.memBefore.Mallocs) / ops
	}
	p.m["process.gc_cycles"] = float64(ms.memAfter.NumGC - ms.memBefore.NumGC)
	p.m["process.gc_pause_ms"] = float64(ms.memAfter.PauseTotalNs-ms.memBefore.PauseTotalNs) / 1e6
	p.m["process.rss_peak_mb"] = maxRSSMB()
	// Per-layer timings are as measured; this is the speed they were
	// measured at.
	p.m["host.speed"] = ms.stats.Speed.Median
	p.m["loadgen.gen_share"] = float64(ms.genNS) / float64((w.end-w.start)*int64(len(ms.perClient)))

	// The workload's own probes, on the now quiescent system.
	if err := e.probe(p); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	write, err := pct(group(func(n string) bool { return strings.HasSuffix(n, "/write") }), 0.5)
	if err != nil {
		return err
	}
	p.m["ivmext.capture_overhead_us"] = write*1e3 - p.m["engine.dml_us"]
	// What a fresh read costs with IVM, as the traced run splits it.
	fresh := p.m["ivmext.refresh_p50_ms"] + p.m["htap.sync_p50_ms"] + p.m["exec.view_read_us"]/1e3
	if fresh > 0 {
		p.m["exec.recompute_over_refresh"] = p.m["exec.recompute_ms"] / fresh
	}

	// Validity of the traced numbers, against the untraced stretches of
	// the same window.
	var untraced, traced float64 // ops
	var ref [numKinds][]float64  // durations in the untraced stretches, ms
	for _, ss := range ms.perClient {
		for _, s := range ss {
			if w.sliceOf(s.end) < 0 {
				continue
			}
			if s.traced {
				traced++
				continue
			}
			untraced++
			ref[s.kind] = append(ref[s.kind], float64(s.dur)/1e6)
		}
	}
	if untraced > 0 {
		p.m["trace.overhead_pct"] = (untraced - traced) / untraced * 100
		if r := median(ref[opRead]); r > 0 {
			p.m["trace.read_gap_pct"] = (fresh - r) / r * 100
		}
	}
	// The tails a caller sees, from the untraced stretches where they
	// hold the 1000 samples a p99 needs, else from every op of the window.
	for k, name := range [numKinds]string{"tail.write_p99_ms", "tail.read_p99_ms"} {
		sort.Float64s(ref[k])
		if p.m[name], err = percentile(ref[k], 0.99); err != nil {
			p.m[name] = ms.stats.RawLatency[k].P99.Median
		}
	}
	return nil
}
