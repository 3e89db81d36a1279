package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs 1000 samples, a median 20.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of an ascending slice.
// It refuses, instead of extrapolating, when fewer than minBeyond samples
// lie beyond the requested rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("stats: quantile %v outside (0,1)", q)
	}
	if beyond := float64(n) * math.Min(q, 1-q); beyond < minBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has fewer than %d beyond it", q*100, n, minBeyond)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[rank], nil
}

// tailPercentile returns the p99 of an ascending slice or, when it holds
// fewer than 1000 samples, the highest percentile that still has minBeyond
// samples beyond it: a tail is reported as far out as the samples carry,
// never further.
func tailPercentile(sorted []float64) (float64, error) {
	n := len(sorted)
	if n >= 100*minBeyond {
		return percentile(sorted, 0.99)
	}
	if n < 2*minBeyond {
		return 0, fmt.Errorf("stats: tail of %d samples has fewer than %d beyond it", n, minBeyond)
	}
	return sorted[n-minBeyond-1], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count), 0 for an empty slice. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread is a metric reported as the median of its per-slice values, with
// the slice quartiles and the total sample count beside it.
type spread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Slices []float64 `json:"slices"`
}

// newSpread summarises per-slice values. Quartiles use linear
// interpolation between closest ranks (they describe five points, not a
// population).
func newSpread(slices []float64, n int) spread {
	s := append([]float64(nil), slices...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return spread{Median: median(slices), Q1: at(0.25), Q3: at(0.75), N: n, Slices: slices}
}

// sample is one completed operation: when it ended (ns since the run's
// time base), how long its timed span took, and what it was.
type sample struct {
	end    int64
	dur    int64
	kind   opKind
	bad    bool
	traced bool
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	numKinds
)

func (k opKind) String() string { return [numKinds]string{"write", "read"}[k] }

// opSpan names the root span of an operation.
var opSpan = [numKinds]string{"op.write", "op.read"}

// window is a measured interval cut into equal consecutive slices.
type window struct {
	start, end int64 // ns since the time base
	slices     int
}

func (w window) sliceLen() int64 { return (w.end - w.start) / int64(w.slices) }

// sliceOf returns the slice an end time falls into, or -1 outside the
// window.
func (w window) sliceOf(end int64) int {
	if end < w.start || end >= w.end {
		return -1
	}
	i := int((end - w.start) / w.sliceLen())
	if i >= w.slices { // rounding remainder of the last slice
		i = w.slices - 1
	}
	return i
}

// latency holds one op kind's p50 and p99 in milliseconds.
type latency struct {
	P50, P99 spread
}

// calSample is one run of the calibration kernel: when it ended and how
// long it took, ns.
type calSample struct{ end, dur int64 }

// windowStats is what the samples of one window say. Timings are at
// reference speed: each slice's are divided by that slice's Speed.
type windowStats struct {
	Ops        int               // ops that ended inside the window
	Failed     int               // of those, how many errored or disagreed with the oracle
	SliceOps   []float64         // ops that ended in each slice
	Speed      spread            // per slice: median calibration kernel time / calibRefNS; above 1 is a slower host
	CalibMS    []float64         // per slice: time all clients spent in the kernel, ms
	OpsPerSec  spread            // per slice: ops / (slice length - kernel time) * Speed
	RawPerSec  spread            // the same as measured
	Latency    [numKinds]latency // p50 per slice, p99 over the window, ms
	RawLatency [numKinds]latency // the same as measured
}

// summarize aggregates per-client samples over w. Medians are taken per
// slice; a slice that cannot support one is an error unless lenient is
// set (smoke and -ops runs), in which case it reads 0 (a speed reads 1).
// The p99 is taken once over the whole window, because it needs 1000
// samples and a slice does not hold that many of every op kind; it is not
// a gated metric and reads 0 when even the window holds too few.
func summarize(perClient [][]sample, calib [][]calSample, w window, lenient bool) (windowStats, error) {
	st := windowStats{SliceOps: make([]float64, w.slices), CalibMS: make([]float64, w.slices)}
	speeds := make([]float64, w.slices)
	kernel := make([][]float64, w.slices)
	for _, cs := range calib {
		for _, c := range cs {
			if i := w.sliceOf(c.end); i >= 0 {
				kernel[i] = append(kernel[i], float64(c.dur)/calibRefNS)
				st.CalibMS[i] += float64(c.dur) / 1e6
			}
		}
	}
	for i, ks := range kernel {
		if speeds[i] = median(ks); len(ks) < minBeyond {
			if !lenient {
				return st, fmt.Errorf("slice %d: %d calibration samples", i, len(ks))
			}
			speeds[i] = 1
		}
	}
	st.Speed = newSpread(speeds, 0)

	var pooled, rawPooled [numKinds][]float64
	bySlice := make([][numKinds][]float64, w.slices)
	for _, ss := range perClient {
		for _, s := range ss {
			i := w.sliceOf(s.end)
			if i < 0 {
				continue
			}
			st.Ops++
			if s.bad {
				st.Failed++
			}
			st.SliceOps[i]++
			ms := float64(s.dur) / 1e6
			bySlice[i][s.kind] = append(bySlice[i][s.kind], ms)
			pooled[s.kind] = append(pooled[s.kind], ms/speeds[i])
			rawPooled[s.kind] = append(rawPooled[s.kind], ms)
		}
	}
	secs := float64(w.sliceLen()) / 1e9
	perSec, rawPerSec := make([]float64, w.slices), make([]float64, w.slices)
	for i, n := range st.SliceOps {
		rawPerSec[i] = n / secs
		// Each client lost its own share of the kernel time.
		perSec[i] = n / (secs - st.CalibMS[i]/1e3/float64(len(perClient))) * speeds[i]
	}
	st.OpsPerSec, st.RawPerSec = newSpread(perSec, st.Ops), newSpread(rawPerSec, st.Ops)
	for k := opKind(0); k < numKinds; k++ {
		sort.Float64s(pooled[k])
		sort.Float64s(rawPooled[k])
		n := len(pooled[k])
		p50s, raw50s := make([]float64, w.slices), make([]float64, w.slices)
		for i := range bySlice {
			sort.Float64s(bySlice[i][k])
			v, err := percentile(bySlice[i][k], 0.5)
			if err != nil && !lenient {
				return st, fmt.Errorf("%s, slice %d: %w", k, i, err)
			}
			p50s[i], raw50s[i] = v/speeds[i], v
		}
		p99, _ := percentile(pooled[k], 0.99)
		raw99, _ := percentile(rawPooled[k], 0.99)
		st.Latency[k] = latency{P50: newSpread(p50s, n), P99: newSpread([]float64{p99}, n)}
		st.RawLatency[k] = latency{P50: newSpread(raw50s, n), P99: newSpread([]float64{raw99}, n)}
	}
	return st, nil
}
