package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string) *config {
	return &config{Workload: workload, Seed: 1, Seconds: 1, Smoke: true, OutDir: t.TempDir()}
}

// TestSmoke runs every workload for one second on tenth-size tables,
// untraced and traced, with every correctness check on. Metrics are not
// asserted, only that each one named in the spec is there and that the
// layers a workload leaves idle read zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a second")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w.name)
			cfg.Trace = traced
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 100 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if !traced {
				for _, m := range endToEnd {
					if v, ok := rep.EndToEnd[m.Name]; !ok || math.IsNaN(v) {
						t.Errorf("%s: end-to-end metric %s missing", w.name, m.Name)
					}
				}
				continue
			}
			known := map[string]bool{}
			for _, m := range perLayer {
				known[m.Name] = true
			}
			for name, v := range rep.PerLayer {
				if !known[name] {
					t.Errorf("%s: per-layer metric %s is not in the spec", w.name, name)
				}
				idle := strings.HasPrefix(name, "storage.") && w.name != "embedded-join-durable" ||
					strings.HasPrefix(name, "htap.") && w.name != "htap-cross-system"
				if idle && v != 0 {
					t.Errorf("%s: %s = %v on a workload that leaves the layer idle", w.name, name, v)
				}
			}
			if rep.PerLayer["ivmext.delta_rows"] == 0 || rep.PerLayer["ivmext.refreshes"] == 0 {
				t.Errorf("%s: no delta rows or refreshes counted: %v", w.name, rep.PerLayer)
			}
			if _, err := os.Stat(cfg.OutDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// With one writer, a fixed seed and a fixed op count the layers' counters
// must repeat exactly.
func TestOpsModeRepeatsCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads twice")
	}
	for _, name := range []string{"embedded-agg", "htap-cross-system"} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			cfg := smokeConfig(t, name)
			cfg.Trace, cfg.Ops = true, 2100
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempted != cfg.Ops+1 || !rep.Correct {
				t.Fatalf("%s: attempted %d, correct %v", name, rep.Attempted, rep.Correct)
			}
			if first == nil {
				first = rep.PerLayer
				continue
			}
			for _, m := range []string{"ivmext.delta_rows", "ivmext.refreshes", "htap.deltas_pulled", "mvcc.commits"} {
				if first[m] != rep.PerLayer[m] {
					t.Errorf("%s: %s = %v then %v", name, m, first[m], rep.PerLayer[m])
				}
			}
		}
	}
}

// The checker can fail: an oracle that disagrees with the engine must
// show as failed operations and as a failed final comparison.
func TestWrongOracleIsCaught(t *testing.T) {
	cfg := smokeConfig(t, "embedded-agg")
	e, err := setupAgg(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	agg := e.(*aggEnv)
	for g := range agg.oracle.sum {
		agg.oracle.sum[g]++ // inject a wrong value for every group
	}
	p := phases{win: window{start: 0, end: math.MaxInt64, slices: 1}}
	run := drive(agg.cl, 0, nil, time.Now(), &p, 50)
	reads, bad := 0, 0
	for _, s := range run.samples {
		if s.kind == opRead {
			reads++
			if s.bad {
				bad++
			}
		} else if s.bad {
			t.Error("a write failed")
		}
	}
	if reads != 10 || bad != reads {
		t.Errorf("%d of %d reads disagreed with the poisoned oracle; want all", bad, reads)
	}
	if n, err := e.verify(&probes{m: map[string]float64{}}); err != nil || n == 0 {
		t.Errorf("final comparison found %d mismatches (%v); want some", n, err)
	}
}

// BENCHMARK.json is generated from spec.go (go run . -spec); the two
// must not drift, and the file must stay inside the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go -C benchmark run . -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("%s: unit %q, bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if !hasSetup || len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("spec is outside the driver's limits")
	}
}
