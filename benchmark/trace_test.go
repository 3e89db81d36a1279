package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: noParent},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a: the union covers 10..70
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped to 90..100
		{Name: "a1", Start: 20, End: 40, Parent: 1}, // a grandchild is its parent's business only
		{Name: "root2", Start: 200, End: 230, Parent: noParent},
	}
	want := []int64{100 - 60 - 10, 40 - 20, 40, 30, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d; want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noParent, 1)
	tr.end(id)
	if id != noParent {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("op.read", noParent, 7)
	child := tr.begin("ivmext.Refresh", root, 7)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "w", 3, []*tracer{tr}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Clients) != 1 || len(tf.Clients[0]) != 2 || tf.Seed != 3 {
		t.Fatalf("trace file = %+v", tf)
	}
	r, c := tf.Clients[0][0], tf.Clients[0][1]
	if tf.Names[r[0]] != "op.read" || tf.Names[c[0]] != "ivmext.Refresh" || c[3] != 0 || r[3] != int64(noParent) || c[4] != 7 {
		t.Errorf("rows = %v %v, names = %v", r, c, tf.Names)
	}
	if self, dur, kid := r[5], r[2]-r[1], c[2]-c[1]; self != dur-kid {
		t.Errorf("root self time = %d; want %d - %d", self, dur, kid)
	}
}
