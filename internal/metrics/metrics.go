// Package metrics is a database's one registry of named counters and
// gauges. Each layer registers a read of the field it already increments
// (its atomic's Load, bound to the field), so an increment stays one
// atomic add with no lookup, lock or allocation; a value a layer computes
// registers as a func too, read only when a snapshot is taken. The wire
// stats op answers Snapshot as a flat name → value map, and
// docs/OPERATIONS.md lists every name.
package metrics

import (
	rtmetrics "runtime/metrics"
	"sync"
)

// Registry maps names to reads of counters and gauges. Registering under
// a taken name replaces its read: a backend attached in place of another
// replaces the previous backend's counters.
type Registry struct {
	mu    sync.RWMutex
	reads map[string]func() int64
}

// New returns a registry holding the process-wide runtime gauges.
func New() *Registry {
	r := &Registry{reads: map[string]func() int64{}}
	r.Register("process.gcCPUMS", func() int64 { return int64(runtimeSample("/cpu/classes/gc/total:cpu-seconds").Float64() * 1e3) })
	r.Register("process.gcScanHeapBytes", func() int64 { return int64(runtimeSample("/gc/scan/heap:bytes").Uint64()) })
	return r
}

func runtimeSample(name string) rtmetrics.Value {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value
}

// Register enters read under name.
func (r *Registry) Register(name string, read func() int64) {
	r.mu.Lock()
	r.reads[name] = read
	r.mu.Unlock()
}

// Snapshot reads every registered value.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := make(map[string]int64, len(r.reads))
	for name, read := range r.reads {
		m[name] = read()
	}
	return m
}
