// Command benchmark is the repository's benchmark: four mixed read/write
// IVM workloads that drive the system only through its layers' public
// functions, check every result against an oracle kept in Go memory, and
// report uniform end-to-end metrics (untraced) or per-layer metrics (a
// separate traced run). See README.md.
//
//	go -C benchmark run . --workload embedded-agg --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		cfg       config
		trace     = flag.Int("trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run the untraced set N times and exit non-zero if two runs disagree by more than a metric's bound")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload name; empty runs all four")
	flag.Int64Var(&cfg.Seed, "seed", 1, "the only source of randomness")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&cfg.Ops, "ops", 0, "run exactly this many operations instead of a timed window, so counters compare exactly")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tenth-size tables and no percentile floors: a correctness pass, not a measurement")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory for trace and result files and the durable workload's database")
	flag.Parse()
	cfg.Trace = *trace != 0

	if *spec {
		out, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	// One caller on one processor. The box is two virtual cores of a
	// shared host: a second runnable thread (a GC worker, the wire server's
	// goroutine, a thread woken on the other core) makes every timing a
	// measure of the host's scheduler, and the quartile distance of ten
	// runs went from 2-5 % to 4-24 % of the median when it was allowed.
	runtime.GOMAXPROCS(1)

	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *selfcheck > 0 {
		if !selfCheck(cfg, names, *selfcheck) {
			os.Exit(1)
		}
		return
	}
	for _, name := range names {
		c := cfg
		c.Workload = name
		rep, err := runWorkload(&c)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if err := emit(&c, rep); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// emit prints every metric by name with its unit, saves the full report,
// and ends with the one-line result the driver reads.
func emit(cfg *config, rep *report) error {
	specs, values := endToEnd, rep.EndToEnd
	if cfg.Trace {
		specs, values = perLayer, rep.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}

	fmt.Printf("# %s seed=%d trace=%v clients=%d gomaxprocs=%d\n", rep.Workload, rep.Seed, rep.Trace, rep.Clients, rep.GOMAXPROCS)
	for _, s := range specs {
		v := values[s.Name]
		line.Metrics[s.Name] = metric{v, s.Unit}
		fmt.Printf("%-34s %14.4f %-6s", s.Name, v, s.Unit)
		if sp, ok := rep.Spreads[s.Name]; ok && !cfg.Trace {
			fmt.Printf(" slices q1=%.4f q3=%.4f n=%d", sp.Q1, sp.Q3, sp.N)
		}
		if raw, ok := rep.Spreads["raw."+s.Name]; ok && !cfg.Trace {
			fmt.Printf(" as measured %.4f", raw.Median)
		}
		fmt.Println()
	}
	if !cfg.Trace {
		sp := rep.Spreads["host_speed"]
		fmt.Printf("%-34s %14.4f ratio  slices q1=%.4f q3=%.4f: calibration kernel time / reference; timings above are divided by it\n", "host_speed", sp.Median, sp.Q1, sp.Q3)
		for _, name := range []string{"write_p99_ms", "read_p99_ms"} {
			fmt.Printf("%-34s %14.4f ms     not gated (tail.* of the traced run) n=%d\n", name, rep.Spreads[name].Median, rep.Spreads[name].N)
		}
	}
	for name := range values {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("metric %q is measured but not in the spec", name)
		}
	}

	suffix := ""
	if cfg.Trace {
		suffix = "-trace"
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.OutDir, "result-"+rep.Workload+suffix+".json"), full, 0o644); err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// selfCheck runs the untraced set n times on this build and reports, per
// workload and end-to-end metric, min / median / max and whether the
// extremes are further apart than the metric's bound.
func selfCheck(cfg config, names []string, n int) bool {
	cfg.Trace = false
	ok := true
	for _, name := range names {
		c := cfg
		c.Workload = name
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := runWorkload(&c)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			if !rep.Correct {
				fmt.Printf("%-22s run %d: %d of %d operations failed\n", name, i, rep.Failed, rep.Attempted)
				ok = false
			}
			for k, v := range rep.EndToEnd {
				runs[k] = append(runs[k], v)
			}
		}
		for _, s := range endToEnd {
			vs := runs[s.Name]
			sort.Float64s(vs)
			lo, hi := vs[0], vs[len(vs)-1]
			gap := 0.0
			if lo > 0 {
				gap = (hi - lo) / lo
			}
			verdict := "ok"
			if gap > s.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-22s %-16s min=%-12.4f median=%-12.4f max=%-12.4f gap=%5.1f%% bound=%4.1f%% %s\n",
				name, s.Name, lo, median(vs), hi, gap*100, s.Bound*100, verdict)
		}
	}
	return ok
}
