// Command benchcheck is the CI benchmark-regression gate: it parses
// `go test -bench` output, reduces repeated runs (-count N) to the
// per-benchmark minimum — the least noise-contaminated observation — and
// compares allocs/op and bytes/op against a committed baseline JSON,
// failing the build when either regresses beyond the threshold.
//
// Usage:
//
//	go test -run '^$' -bench 'E2_IVMRefresh|E2_Recompute|E7_JoinIVM|E7_JoinBuild|E7_JoinRecompute|E10_|E11_|E12_|E13_|E14_|E21_|PKIndex_|Wire_' -benchmem -count 3 . | \
//	    go run ./cmd/benchcheck -baseline BENCH_BASELINE.json
//
// Refresh the baseline after an intentional performance change:
//
//	go test ... -benchmem -count 3 . | go run ./cmd/benchcheck -baseline BENCH_BASELINE.json -update
//
// allocs/op and bytes/op are machine-independent, so they are the gate:
// the collector's cycle count follows bytes allocated, which a change can
// raise without adding an allocation. ns/op is recorded in the baseline
// and printed beside the measurement for the reader, never gated: on
// shared hardware the same code reads 25–100 % apart from one hour to the
// next. Time is judged by the repository benchmark (benchmark/), in
// alternated runs against the parent commit.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// entry is one benchmark's baseline record.
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// baseline is the committed BENCH_BASELINE.json shape.
type baseline struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// BenchmarkE7_JoinIVM/C16-4  4418  264546 ns/op  133685 B/op  681 allocs/op
// The trailing -N GOMAXPROCS suffix is stripped so results are comparable
// across machines with different core counts. allocs/op and B/op are
// picked out by their own patterns so custom ReportMetric columns between
// ns/op and the -benchmem pair (e.g. E10's stall-ns/op) don't hide them.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op`)
	allocsStat = regexp.MustCompile(`\s([\d.]+) allocs/op`)
	bytesStat  = regexp.MustCompile(`\s([\d.]+) B/op`)
)

// memStat reads one -benchmem column of line: -1 when it is missing (run
// without -benchmem), not 0, which would satisfy every threshold and
// silently disarm the gate for that benchmark.
func memStat(re *regexp.Regexp, line string) float64 {
	if m := re.FindStringSubmatch(line); m != nil {
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	return -1
}

// minStat keeps the smaller of two observations, a missing one (-1) only
// when both are.
func minStat(prev, cur float64) float64 {
	if prev >= 0 && (cur < 0 || prev < cur) {
		return prev
	}
	return cur
}

func parseBench(r io.Reader) (map[string]entry, error) {
	out := map[string]entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		e := entry{NsPerOp: ns, AllocsPerOp: memStat(allocsStat, sc.Text()), BytesPerOp: memStat(bytesStat, sc.Text())}
		// -count N repeats a benchmark; keep the per-metric minimum.
		if prev, ok := out[m[1]]; ok {
			e = entry{NsPerOp: min(prev.NsPerOp, ns), AllocsPerOp: minStat(prev.AllocsPerOp, e.AllocsPerOp),
				BytesPerOp: minStat(prev.BytesPerOp, e.BytesPerOp)}
		}
		out[m[1]] = e
	}
	return out, sc.Err()
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON")
	input := flag.String("input", "-", "benchmark output file (- = stdin)")
	maxAllocs := flag.Float64("max-allocs-regress", 0.25, "fail when allocs/op or bytes/op exceeds baseline by this fraction (negative = skip both checks)")
	update := flag.Bool("update", false, "rewrite the baseline from the measured results instead of comparing")
	flag.Parse()

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	// A missing baseline is only acceptable when -update is about to
	// create it.
	var base baseline
	buf, err := os.ReadFile(*baselinePath)
	if err == nil {
		err = json.Unmarshal(buf, &base)
	}
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}

	if *update {
		base = baseline{
			Note:       "Regenerate with: go test -run '^$' -bench 'E2_IVMRefresh|E2_Recompute|E7_JoinIVM|E7_JoinBuild|E7_JoinRecompute|E10_|E11_|E12_|E13_|E14_|E21_|PKIndex_|Wire_' -benchmem -count 3 . | go run ./cmd/benchcheck -update",
			Benchmarks: got,
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in results (gate silently shrank?)", name))
			continue
		}
		status := "ok"
		for _, g := range []struct {
			unit       string
			have, want float64
		}{{"allocs/op", have.AllocsPerOp, want.AllocsPerOp}, {"B/op", have.BytesPerOp, want.BytesPerOp}} {
			switch {
			case *maxAllocs < 0 || g.want <= 0:
			case g.have < 0:
				failures = append(failures, fmt.Sprintf("%s: no %s in results (run with -benchmem) but baseline has %.0f", name, g.unit, g.want))
				status = "NO MEM DATA"
			case g.have > g.want*(1+*maxAllocs):
				failures = append(failures, fmt.Sprintf("%s: %s %.0f exceeds baseline %.0f by more than %.0f%%",
					name, g.unit, g.have, g.want, *maxAllocs*100))
				status = "MEM REGRESSION"
			}
		}
		fmt.Printf("%-50s ns/op %10.0f (base %10.0f)  allocs/op %7.0f (base %7.0f)  B/op %9.0f (base %9.0f)  %s\n",
			name, have.NsPerOp, want.NsPerOp, have.AllocsPerOp, want.AllocsPerOp, have.BytesPerOp, want.BytesPerOp, status)
	}
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("%-60s new benchmark, not in baseline (add with -update)\n", name)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "\nbenchcheck: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchcheck: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
