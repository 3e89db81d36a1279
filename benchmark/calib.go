package main

import "time"

// Host-speed calibration.
//
// The benchmark runs on a few virtual cores of a shared host. What the
// neighbours do to the shared caches moves the speed of everything the
// process runs by 20-60 %, in steps that last tens of seconds to minutes:
// longer than a slice and often longer than a run, so no median inside a
// run removes them (a register-only loop stays within a few percent, a
// loop that leaves L1 does not). Each client therefore interleaves a fixed
// unit of the benchmark's own work, the calibration kernel, with its
// operations, and every timing is reported at reference speed: divided by
// how much slower than calibRefNS the kernel ran in the same slice. The
// kernel is benchmark code that calls into no layer, so a change to the
// program cannot move it; the speed and the timings as measured are
// printed beside the reported ones.
//
// The kernel was picked among four candidates (register-only arithmetic,
// this one, a pointer chase through DRAM, Go map lookups with strconv) by
// running each beside embedded-agg and wire-dashboards for an hour: this
// one tracked write_p50_ms, read_p50_ms, cpu_ms_per_kop and ops_per_s with
// a log-log slope of 1.0 to 1.4 and a correlation of 0.9, and dividing by
// it halved their run-to-run range (1.45x to 1.17x).
const (
	calibEvery = 25 * time.Millisecond // one kernel run per client this often: 2 % of its time
	calibTable = 1 << 14               // uint32 entries: 64 KiB, past L1, inside L2
	calibSteps = 60_000
	// calibRefNS is what one kernel run takes at reference speed: its
	// quiet-state median on the box the benchmark was sized on, so that
	// there the reported timings are the measured ones.
	calibRefNS = 430_000
)

// calibrator owns one goroutine's kernel state.
type calibrator struct {
	table []uint32
	text  []byte
	pos   uint32
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint32, calibTable), text: make([]byte, 4096)}
	// One cycle through every entry (Sattolo), from a fixed generator: the
	// kernel is the same on every seed.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.table {
		c.table[i] = uint32(i)
	}
	for i := len(c.table) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		c.table[i], c.table[j] = c.table[j], c.table[i]
	}
	for i := range c.text {
		c.text[i] = byte(next())
	}
	return c
}

// run does one fixed unit of work and returns how long it took, in ns: a
// chain of dependent loads through a table the operations in between have
// pushed out of L1, interleaved with byte-wise hashing and a
// data-dependent branch. It allocates nothing.
func (c *calibrator) run() int64 {
	t := time.Now()
	p, h := c.pos, c.sink
	for i := 0; i < calibSteps; i++ {
		p = c.table[p]
		b := c.text[(p+uint32(i))&4095]
		h = (h ^ uint64(b)) * 1099511628211
		if b&1 == 0 {
			h ^= h >> 29
		} else {
			h += uint64(p)
		}
	}
	c.pos, c.sink = p, h
	return int64(time.Since(t))
}

// speed runs the kernel n times and returns the median against the
// reference: above 1 on a slower host.
func (c *calibrator) speed(n int) float64 {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(c.run()) / calibRefNS
	}
	return median(ds)
}
