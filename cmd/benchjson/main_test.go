package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseSingleRunShape pins the JSON of benchmarks that ran once:
// one entry per line, with no runs, min or max keys.
func TestParseSingleRunShape(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: wdcproducts
cpu: Test CPU
BenchmarkA-2   	       3	 1500 ns/op	  64 B/op	  2 allocs/op
BenchmarkB/n=10-2	       2	 900 ns/op	  7.5 pairs
PASS
ok  	wdcproducts	1.0s
`
	rec, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cpu":"Test CPU","benchmarks":[` +
		`{"name":"BenchmarkA-2","package":"wdcproducts","iterations":3,"ns_per_op":1500,"metrics":{"B/op":64,"allocs/op":2}},` +
		`{"name":"BenchmarkB/n=10-2","package":"wdcproducts","iterations":2,"ns_per_op":900,"metrics":{"pairs":7.5}}]}`
	if string(got) != want {
		t.Fatalf("JSON:\n got %s\nwant %s", got, want)
	}
}

// TestParseFoldsRepeatedRuns: the lines `go test -count N` repeats fold
// into one entry per benchmark and package, in first-seen order, with
// median values, summed iterations, and per-metric min and max.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	in := `pkg: p1
BenchmarkX-2	2	300 ns/op	10 us/offer
BenchmarkX-2	2	100 ns/op	30 us/offer
BenchmarkY-2	1	5 ns/op
BenchmarkX-2	2	200 ns/op	20 us/offer
BenchmarkY-2	1	7 ns/op
pkg: p2
BenchmarkX-2	4	50 ns/op
`
	rec, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	x, y, x2 := rec.Benchmarks[0], rec.Benchmarks[1], rec.Benchmarks[2]
	if x.Name != "BenchmarkX-2" || x.Package != "p1" || x.Runs != 3 || x.Iterations != 6 {
		t.Fatalf("folded X = %+v, want 3 runs of p1's BenchmarkX-2 with 6 iterations", x)
	}
	if x.NsPerOp != 200 || x.Metrics["us/offer"] != 20 {
		t.Fatalf("X medians: ns/op %v, us/offer %v; want 200 and 20", x.NsPerOp, x.Metrics["us/offer"])
	}
	if x.Min["ns/op"] != 100 || x.Max["ns/op"] != 300 || x.Min["us/offer"] != 10 || x.Max["us/offer"] != 30 {
		t.Fatalf("X spread: min %v, max %v", x.Min, x.Max)
	}
	if y.Name != "BenchmarkY-2" || y.Runs != 2 || y.NsPerOp != 6 || y.Metrics != nil {
		t.Fatalf("folded Y = %+v, want 2 runs with ns/op median 6 and no metrics", y)
	}
	if x2.Package != "p2" || x2.Runs != 0 || x2.Min != nil || x2.NsPerOp != 50 {
		t.Fatalf("p2's BenchmarkX-2 = %+v, want its single run unfolded", x2)
	}
}
