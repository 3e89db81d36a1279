package main

import (
	"strings"
	"testing"
)

// TestParseBenchKeepsMinima: -count repeats reduce to each column's
// minimum, B/op is read beside allocs/op past custom metric columns, and a
// line without -benchmem records -1, which no threshold can pass.
func TestParseBenchKeepsMinima(t *testing.T) {
	const out = `BenchmarkE2_IVMRefresh/G4096-2   3510   319726 ns/op   86324 B/op   129 allocs/op
BenchmarkE2_IVMRefresh/G4096-2   3894   343818 ns/op   86100 B/op   131 allocs/op
BenchmarkE10_MultiViewRefresh/rw4-2   100   3433823 ns/op   1.2 stall-ms/op   99000 B/op   7537 allocs/op
BenchmarkPKIndex_Get-2   1000000   409.6 ns/op
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]entry{
		"BenchmarkE2_IVMRefresh/G4096":      {NsPerOp: 319726, AllocsPerOp: 129, BytesPerOp: 86100},
		"BenchmarkE10_MultiViewRefresh/rw4": {NsPerOp: 3433823, AllocsPerOp: 7537, BytesPerOp: 99000},
		"BenchmarkPKIndex_Get":              {NsPerOp: 409.6, AllocsPerOp: -1, BytesPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}
