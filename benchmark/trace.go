package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: which layer function, when, under which parent span, for
// which operation. Times are ns since the tracer's time base.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32 // index of the causing span in the same tracer, -1 for a root
	Op     int64 // spans of one operation share this id
}

const noParent int32 = -1

// tracer holds one goroutine's spans in memory. A nil tracer records
// nothing, so the untraced run takes the same code path minus the
// appends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to be passed to end and used
// as the parent of child spans.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.base))
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children. Overlapping children (two
// concurrent calls under one parent) are counted once: the covered part
// is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent != noParent {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		coveredTo := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, coveredTo), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				coveredTo = hi
			}
		}
	}
	return self
}

// traceFile is the on-disk form: a name table plus one row per span,
// [name index, start ns, end ns, parent, op, self ns]. Parent indexes
// count within the spans of the same client.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Columns  []string     `json:"columns"`
	Names    []string     `json:"names"`
	Clients  [][][6]int64 `json:"clients"`
}

func writeTrace(path, workload string, seed int64, tracers []*tracer) error {
	tf := traceFile{
		Workload: workload, Seed: seed,
		Columns: []string{"name", "start_ns", "end_ns", "parent", "op", "self_ns"},
	}
	idx := map[string]int64{}
	for _, t := range tracers {
		self := selfTimes(t.spans)
		rows := make([][6]int64, len(t.spans))
		for i, s := range t.spans {
			n, ok := idx[s.Name]
			if !ok {
				n = int64(len(tf.Names))
				idx[s.Name] = n
				tf.Names = append(tf.Names, s.Name)
			}
			rows[i] = [6]int64{n, s.Start, s.End, int64(s.Parent), s.Op, self[i]}
		}
		tf.Clients = append(tf.Clients, rows)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
