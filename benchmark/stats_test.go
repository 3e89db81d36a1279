package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported; fewer than 10 samples lie beyond it")
	}
	if v, err := percentile(ramp(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(19), 0.5); err == nil {
		t.Error("median of 19 samples was reported")
	}
	if v, err := percentile(ramp(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(ramp(5000), 1); err == nil {
		t.Error("quantile 1 was accepted")
	}
}

func TestTailPercentileStopsWhereTheSamplesDo(t *testing.T) {
	if v, err := tailPercentile(ramp(1000)); err != nil || v != 990 {
		t.Errorf("tail of 1..1000 = %v, %v; want the p99, 990", v, err)
	}
	if v, err := tailPercentile(ramp(927)); err != nil || v != 917 {
		t.Errorf("tail of 1..927 = %v, %v; want 917, the last value with ten beyond it", v, err)
	}
	if _, err := tailPercentile(ramp(19)); err == nil {
		t.Error("a tail of 19 samples was reported")
	}
}

func TestSpreadQuartiles(t *testing.T) {
	sp := newSpread([]float64{5, 1, 4, 2, 3}, 50)
	if sp.Median != 3 || sp.Q1 != 2 || sp.Q3 != 4 || sp.N != 50 {
		t.Errorf("spread of 1..5 = %+v; want median 3, quartiles 2 and 4", sp)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v; want 2.5", m)
	}
}

// kernelShare is the share of a second that steadyCalib's 40 kernel runs
// take at reference speed.
const kernelShare = 40 * calibRefNS / 1e9

// steadyCalib is one kernel run every 25 ms over w at the given speed in
// each slice.
func steadyCalib(w window, speeds []float64) []calSample {
	var cs []calSample
	for end := w.start; end < w.end; end += 25e6 {
		cs = append(cs, calSample{end: end, dur: int64(speeds[w.sliceOf(end)] * calibRefNS)})
	}
	return cs
}

// A noisy-neighbour burst that slows one slice must cost that slice, not
// the reported median.
func TestSummarizeMedianOfSlices(t *testing.T) {
	w := window{start: 1e9, end: 6e9, slices: 5}
	var ss []sample
	for i := 0; i < 5000; i++ {
		end := w.start + int64(i)*1e6 // one op per ms
		dur := int64(2e6)
		if w.sliceOf(end) == 3 {
			dur = 50e6 // the burst
		}
		ss = append(ss, sample{end: end, dur: dur, kind: opKind(i % 2), bad: i == 7})
	}
	ss = append(ss, sample{end: w.start - 1, dur: 9e9}, sample{end: w.end, dur: 9e9}) // outside the window
	calib := [][]calSample{steadyCalib(w, []float64{1, 1, 1, 1, 1}), nil}
	st, err := summarize([][]sample{ss[:3000], ss[3000:]}, calib, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 5000 || st.Failed != 1 {
		t.Errorf("ops, failed = %d, %d; want 5000, 1", st.Ops, st.Failed)
	}
	// 40 kernel runs in each second, by one of two clients.
	if got, want := st.OpsPerSec.Median, 1000/(1-kernelShare/2); math.Abs(got-want) > 1e-9 {
		t.Errorf("ops/s = %v; want %v", got, want)
	}
	if got := st.RawPerSec.Median; got != 1000 {
		t.Errorf("ops/s as measured = %v; want 1000", got)
	}
	for k := opKind(0); k < numKinds; k++ {
		if got := st.Latency[k].P50.Median; got != 2 {
			t.Errorf("%s p50 = %v ms; want 2 (the burst slice is one of five)", k, got)
		}
		if got := st.Latency[k].P99.Median; got != 50 {
			t.Errorf("%s p99 = %v ms; want 50 (a fifth of the window is the burst)", k, got)
		}
		if n := st.Latency[k].P50.N; n != 2500 {
			t.Errorf("%s sample count = %d; want 2500", k, n)
		}
	}
}

// A host that runs everything, the kernel included, twice as slowly for
// part of the window must report what a steady host reports.
func TestSummarizeAtReferenceSpeed(t *testing.T) {
	w := window{start: 0, end: 4e9, slices: 4}
	speeds := []float64{1, 2, 2, 1}
	var ss []sample
	for end := int64(0); end < w.end; {
		sp := speeds[w.sliceOf(end)]
		dur := int64(1e6 * sp)
		ss = append(ss, sample{end: end, dur: dur, kind: opKind(len(ss) % 2)})
		end += dur
	}
	st, err := summarize([][]sample{ss}, [][]calSample{steadyCalib(w, speeds)}, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if sp := st.Speed; sp.Median != 1.5 || sp.Slices[1] != 2 {
		t.Errorf("speed = %+v; want slices 1, 2, 2, 1", sp)
	}
	for i := range speeds {
		for k := opKind(0); k < numKinds; k++ {
			if got := st.Latency[k].P50.Slices[i]; got != 1 {
				t.Errorf("slice %d: %s p50 = %v ms; want 1", i, k, got)
			}
			if got := st.RawLatency[k].P50.Slices[i]; got != speeds[i] {
				t.Errorf("slice %d: %s p50 as measured = %v ms; want %v", i, k, got, speeds[i])
			}
		}
		// 1000 ops a second at reference speed, but for the share of each
		// second the kernel took (twice that on the slow slices, where it
		// still ran every 25 ms).
		want := 1000 / (1 - kernelShare*speeds[i])
		if got := st.OpsPerSec.Slices[i]; math.Abs(got-want) > 2*speeds[i] {
			t.Errorf("slice %d: ops/s = %v; want about %v", i, got, want)
		}
	}
}

func TestSummarizeRefusesThinWindow(t *testing.T) {
	w := window{start: 0, end: 5e9, slices: 5}
	calib := [][]calSample{steadyCalib(w, []float64{1, 1, 1, 1, 1})}
	var ss []sample
	for i := 0; i < 500; i++ {
		ss = append(ss, sample{end: int64(i) * 1e7, dur: 1e6, kind: opWrite})
	}
	if _, err := summarize([][]sample{ss}, calib, w, false); err == nil {
		t.Error("a window with 500 writes and no reads was summarized")
	}
	if _, err := summarize([][]sample{ss}, calib, w, true); err != nil {
		t.Errorf("lenient summarize failed: %v", err)
	}
	for i := range ss {
		ss[i].kind = opKind(i % 2)
	}
	if _, err := summarize([][]sample{ss}, [][]calSample{nil}, w, false); err == nil {
		t.Error("a window without calibration samples was summarized")
	}
}
