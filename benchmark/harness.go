package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"openivm/internal/engine"
	"openivm/internal/mvcc"
	"openivm/internal/storage"
	"openivm/internal/wire"
)

// config is one invocation's settings. Sizes and mixes are constants of
// the workloads; only the seed, the window and the mode vary.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64 // measured window (untraced), or reference + traced window (traced)
	Trace    bool
	Ops      int  // >0: run exactly this many ops instead of a timed window
	Smoke    bool // small tables, short warm-up, percentile floors not enforced
	OutDir   string
}

const (
	windowSlices = 10
	// setup_s is the median of at least setupRepeats set-ups; cheap ones
	// are repeated, up to setupMaxRepeats times, until they add up to
	// setupMinTotal seconds. Smoke, traced and -ops runs set up once.
	setupRepeats    = 3
	setupMaxRepeats = 9
	setupMinTotal   = 1.5
	setupCalibRuns  = 20 // kernel runs before and after each set-up: 10 ms each side
)

// client is one closed-loop caller. The driver calls next, do, check in
// turn; only do is timed.
type client interface {
	// next generates the next operation (statement text, keys) and says
	// what kind it is.
	next() opKind
	// do issues the operation's calls into the system. With a non-nil
	// tracer it records a span per call under parent, and issues a read
	// as an explicit refresh followed by the select.
	do(tr *tracer, parent int32, op int64) error
	// check compares the outcome with the oracle and, for a write that
	// succeeded, applies it to the oracle.
	check(err error) bool
}

// counters is a snapshot of the layers' existing statistics APIs.
type counters struct {
	ivm     engine.IVMStats
	txn     mvcc.Stats
	storage storage.Stats
	stmt    engine.StmtCacheStats
	server  wire.ServerStats
	pulled  int // htap.Pipeline.Stats.DeltasPulled
}

// env is a built system under test plus its oracle.
type env interface {
	clients() []client
	snapshot() (counters, error)
	// midpoint runs once at the middle of the window (a checkpoint where
	// there is storage).
	midpoint(tr *tracer) error
	// probe measures the per-layer numbers that need a quiescent system;
	// traced runs only, after the window.
	probe(p *probes) error
	// verify compares every view (and, where there is storage, the
	// recovered database) with the oracle and returns the mismatches.
	verify(p *probes) (mismatches int, err error)
	describe() map[string]any
	close() error
}

type workloadDef struct {
	name    string
	why     string
	clients int
	// warmup is how many operations each client runs, checked but untimed,
	// before the window: about two seconds' worth, so that plan caches,
	// delta tables and the allocator are in their steady state. A count and
	// not a time, so that every run's window starts from the same tables,
	// views and heap whatever the host's speed.
	warmup int
	setup  func(cfg *config, clients int) (env, error)
}

var workloads = []workloadDef{
	{"embedded-agg", "paper's core claim, DuckDB-extension mode: sqlparser, engine DML, ivmext capture and the propagation script do the work; wire, storage and htap idle", 1, 3000, setupAgg},
	{"embedded-join-durable", "same ivmext under a join view, transactions, MVCC and the WAL (fsync per group-commit batch), a mid-window checkpoint, then recovery of every acked write", 1, 800, setupDurable},
	{"htap-cross-system", "paper's second demo over loopback TCP: wire, oltp trigger capture and htap.Sync row-at-a-time replay do the work; exec does little and storage none", 1, 4000, setupHTAP},
	{"wire-dashboards", "many readers beside writers on three views over wire: framing and streaming, plan cache (fits and 8x larger), planner and exec scans dominate; ivmext is small", 1, 4000, setupWire},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// report is everything one run measured.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	Describe   map[string]any     `json:"describe"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Spreads    map[string]spread  `json:"spreads"`
	SetupRuns  []float64          `json:"setup_runs_s"`
}

func since(base time.Time) int64 { return int64(time.Since(base)) }

func sleepUntil(base time.Time, at int64) {
	if d := time.Duration(at - since(base)); d > 0 {
		time.Sleep(d)
	}
}

func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phases lays the measured window out on the time base. In a traced run
// the window is cut into alternating untraced and traced stretches, so
// that the two are compared over the same drift of table sizes: the
// untraced stretches are the reference the tracing overhead is measured
// against.
type phases struct {
	win      window
	stretch  int64 // length of one stretch, ns; 0 when nothing is traced
	allTrace bool  // -ops runs: trace every op, no reference
}

const traceStretches = 10

func planPhases(cfg *config) phases {
	p := phases{win: window{end: int64(cfg.Seconds * 1e9), slices: windowSlices}}
	if cfg.Trace {
		p.stretch = (p.win.end - p.win.start) / traceStretches
	}
	return p
}

// traced says whether an op starting at the given time records spans:
// every second stretch of the window.
func (p *phases) traced(at int64) bool {
	if p.allTrace {
		return true
	}
	if p.stretch == 0 || at < p.win.start || at >= p.win.end {
		return false
	}
	return (at-p.win.start)/p.stretch%2 == 1
}

type clientRun struct {
	samples []sample
	calib   []calSample
	genNS   int64 // generator + checker time spent on ops that ended in the window
}

// drive runs one client's closed loop until the window ends, or for
// exactly limit operations when limit > 0.
func drive(c client, idx int, tr *tracer, base time.Time, p *phases, limit int) clientRun {
	var run clientRun
	run.samples = make([]sample, 0, 1<<16)
	cal, nextCal := newCalibrator(), int64(0)
	for n := 0; limit == 0 || n < limit; n++ {
		g0 := since(base)
		if limit == 0 && g0 >= p.win.end {
			break
		}
		if g0 >= nextCal { // the host's speed right now, see calib.go
			dur := cal.run()
			g0 = since(base)
			run.calib = append(run.calib, calSample{end: g0, dur: dur})
			nextCal = g0 + int64(calibEvery)
		}
		kind := c.next()
		t := tr
		if !p.traced(g0) {
			t = nil
		}
		op := int64(idx)<<40 | int64(n)
		t1 := since(base)
		root := t.begin(opSpan[kind], noParent, op)
		err := c.do(t, root, op)
		t.end(root)
		t2 := since(base)
		ok := c.check(err)
		run.samples = append(run.samples, sample{end: t2, dur: t2 - t1, kind: kind, bad: !ok, traced: t != nil})
		if p.win.sliceOf(t2) >= 0 {
			run.genNS += (t1 - g0) + (since(base) - t2)
		}
	}
	return run
}

// setUp builds the workload's system the configured number of times,
// closing all but the last, and returns it with the time each took: at
// reference speed (the kernel runs right before and after each set-up give
// the speed) and as measured.
func setUp(def workloadDef, cfg *config, clients int) (e env, runs, raw []float64, err error) {
	once := cfg.Smoke || cfg.Trace || cfg.Ops > 0
	cal := newCalibrator()
	for total := 0.0; ; {
		speed := cal.speed(setupCalibRuns)
		t := time.Now()
		if e, err = def.setup(cfg, clients); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t).Seconds()
		speed = (speed + cal.speed(setupCalibRuns)) / 2
		runs, raw = append(runs, took/speed), append(raw, took)
		total += took
		if once || len(runs) == setupMaxRepeats || (len(runs) >= setupRepeats && total >= setupMinTotal) {
			return e, runs, raw, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, nil, err
		}
		runtime.GC()
	}
}

// warmUp runs ops operations on every client, checked against the oracle
// but not timed, and returns how many were attempted and how many failed.
func warmUp(cls []client, ops int) (attempted, failed int) {
	if ops <= 0 {
		return 0, 0
	}
	untimed := phases{win: window{end: math.MaxInt64, slices: 1}}
	runs := make([]clientRun, len(cls))
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = drive(c, i, nil, time.Now(), &untimed, ops)
		}()
	}
	wg.Wait()
	for _, r := range runs {
		for _, s := range r.samples {
			attempted++
			if s.bad {
				failed++
			}
		}
	}
	return attempted, failed
}

// measure drives the clients through the window while the
// coordinator samples CPU at every slice boundary and the layers'
// counters and the allocator at both ends of the window. It returns only
// after every client has stopped.
func measure(e env, cfg *config, p phases) (ms *measured, err error) {
	cls := e.clients()
	ms = &measured{perClient: make([][]sample, len(cls)), calib: make([][]calSample, len(cls)), lenient: cfg.Smoke || cfg.Ops > 0}
	if ms.before, err = e.snapshot(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms.memBefore)
	ms.cpuAt = append(ms.cpuAt, cpuMS())
	base := time.Now()
	tracers := make([]*tracer, len(cls)+1) // the last one is the coordinator's; all nil when untraced
	if cfg.Trace {
		for i := range tracers {
			tracers[i] = newTracer(base)
		}
	}
	ms.tracers = tracers
	runs := make([]clientRun, len(cls))
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			limit := 0
			if cfg.Ops > 0 {
				limit = max(1, cfg.Ops/len(cls))
			}
			runs[i] = drive(c, i, tracers[i], base, &p, limit)
		}()
	}
	var midErr error
	err = func() (err error) {
		defer wg.Wait()
		if cfg.Ops > 0 {
			wg.Wait()
			p.win.end = since(base)
			ms.cpuAt = append(ms.cpuAt, cpuMS())
		} else {
			var mid sync.WaitGroup
			mid.Add(1)
			go func() {
				defer mid.Done()
				// The middle of the window is where a traced stretch
				// begins; half a stretch later the ops beside the
				// midpoint work are traced ones.
				sleepUntil(base, (p.win.start+p.win.end+p.stretch)/2)
				midErr = e.midpoint(tracers[len(cls)])
			}()
			for i := 1; i <= p.win.slices; i++ {
				sleepUntil(base, p.win.start+int64(i)*p.win.sliceLen())
				ms.cpuAt = append(ms.cpuAt, cpuMS())
			}
			mid.Wait()
		}
		if ms.after, err = e.snapshot(); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms.memAfter)
		return nil
	}()
	if err == nil && midErr != nil {
		err = fmt.Errorf("midpoint: %w", midErr)
	}
	if err != nil {
		return nil, err
	}
	ms.phases = p
	for i, r := range runs {
		ms.perClient[i], ms.calib[i] = r.samples, r.calib
		ms.genNS += r.genNS
	}
	ms.stats, err = summarize(ms.perClient, ms.calib, p.win, ms.lenient)
	return ms, err
}

// runWorkload sets the workload up, measures it, checks it and reports.
func runWorkload(cfg *config) (*report, error) {
	def, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: def.name, Seed: cfg.Seed, Trace: cfg.Trace, GOMAXPROCS: runtime.GOMAXPROCS(0),
		EndToEnd: map[string]float64{}, Spreads: map[string]spread{},
	}
	e, setupRuns, setupRaw, err := setUp(def, cfg, min(def.clients, runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	rep.SetupRuns, rep.Describe, rep.Clients = setupRuns, e.describe(), len(e.clients())

	p := planPhases(cfg)
	if cfg.Ops > 0 {
		// Counters are compared from the set-up state on: no warm-up.
		p = phases{win: window{start: 0, end: math.MaxInt64, slices: 1}, allTrace: cfg.Trace}
	} else {
		warm := def.warmup
		if cfg.Smoke {
			warm /= 10
		}
		rep.Attempted, rep.Failed = warmUp(e.clients(), warm)
	}
	// What the process holds when the window opens: base tables, views,
	// and the deltas and row versions the warm-up left. Taken here and not
	// at the window's end, where it would grow with the host's speed.
	runtime.GC()
	var memLive runtime.MemStats
	runtime.ReadMemStats(&memLive)
	ms, err := measure(e, cfg, p)
	if err != nil {
		return nil, err
	}
	p, st, tracers := ms.phases, ms.stats, ms.tracers
	for _, ss := range ms.perClient {
		for _, s := range ss {
			rep.Attempted++
			if s.bad {
				rep.Failed++
			}
		}
	}
	// End-to-end metrics. CPU is the process's, minus what the kernel
	// runs burnt, at reference speed like the timings.
	cpuPerKop, rawCPUPerKop := make([]float64, p.win.slices), make([]float64, p.win.slices)
	for i, ops := range st.SliceOps {
		if ops > 0 {
			rawCPUPerKop[i] = (ms.cpuAt[i+1] - ms.cpuAt[i] - st.CalibMS[i]) / ops * 1000
			cpuPerKop[i] = rawCPUPerKop[i] / st.Speed.Slices[i]
		}
	}
	rep.Spreads["setup_s"] = newSpread(rep.SetupRuns, len(rep.SetupRuns))
	rep.Spreads["raw.setup_s"] = newSpread(setupRaw, len(setupRaw))
	rep.Spreads["ops_per_s"] = st.OpsPerSec
	rep.Spreads["write_p50_ms"] = st.Latency[opWrite].P50
	rep.Spreads["write_p99_ms"] = st.Latency[opWrite].P99
	rep.Spreads["read_p50_ms"] = st.Latency[opRead].P50
	rep.Spreads["read_p99_ms"] = st.Latency[opRead].P99
	rep.Spreads["cpu_ms_per_kop"] = newSpread(cpuPerKop, st.Ops)
	rep.Spreads["host_speed"] = st.Speed
	rep.Spreads["raw.ops_per_s"] = st.RawPerSec
	rep.Spreads["raw.write_p50_ms"] = st.RawLatency[opWrite].P50
	rep.Spreads["raw.read_p50_ms"] = st.RawLatency[opRead].P50
	rep.Spreads["raw.cpu_ms_per_kop"] = newSpread(rawCPUPerKop, st.Ops)

	for _, m := range endToEnd {
		rep.EndToEnd[m.Name] = rep.Spreads[m.Name].Median
	}
	rep.EndToEnd["heap_live_mb"] = float64(memLive.HeapAlloc) / (1 << 20)

	lp := &probes{tr: tracers[rep.Clients], m: map[string]float64{}}
	if cfg.Trace {
		if err := layerMetrics(lp, e, ms); err != nil {
			return nil, err
		}
	}
	mismatches, err := e.verify(lp)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep.Attempted++
	if mismatches > 0 {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "%s: final comparison found %d mismatches\n", def.name, mismatches)
	}
	rep.Correct = rep.Failed == 0
	if cfg.Trace {
		lp.m["loadgen.error_rate"] = float64(rep.Failed) / float64(rep.Attempted)
		if mismatches > 0 {
			lp.m["loadgen.error_rate"] = 1
		}
		rep.PerLayer = lp.m
		path := filepath.Join(cfg.OutDir, "trace-"+def.name+".json")
		if err := writeTrace(path, def.name, cfg.Seed, tracers); err != nil {
			return nil, err
		}
	}
	err = e.close()
	e = nil
	return rep, err
}
