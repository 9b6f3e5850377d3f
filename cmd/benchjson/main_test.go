package main

import (
	"encoding/json"
	"slices"
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

// TestCompare pins -compare: entries pair by package and name, metrics
// present in both entries are compared (ns/op first), a new median
// outside the old [min, max] is flagged, an old single-run entry is
// reported with no spread and never flagged, and an entry found in only
// one record is reported as only in that record.
func TestCompare(t *testing.T) {
	folded := func(name string, ns, lo, hi float64, metrics, min, max map[string]float64) Result {
		r := Result{Name: name, Package: "p", NsPerOp: ns, Runs: 5, Metrics: metrics,
			Min: map[string]float64{"ns/op": lo}, Max: map[string]float64{"ns/op": hi}}
		for u := range min {
			r.Min[u], r.Max[u] = min[u], max[u]
		}
		return r
	}
	for _, c := range []struct {
		name     string
		old, cur []Result
		want     []comparison
	}{
		{
			name: "inside the spread",
			old:  []Result{folded("BenchmarkA", 100, 90, 120, nil, nil, nil)},
			cur:  []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 120}},
			want: []comparison{{Package: "p", Name: "BenchmarkA", Unit: "ns/op", Old: 100, New: 120, Spread: true, Min: 90, Max: 120}},
		},
		{
			name: "below and above the spread",
			old: []Result{folded("BenchmarkA", 100, 90, 120,
				map[string]float64{"add-p50-us": 40, "pairs": 7},
				map[string]float64{"add-p50-us": 35, "pairs": 7},
				map[string]float64{"add-p50-us": 45, "pairs": 7})},
			cur: []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 89, Runs: 5,
				Metrics: map[string]float64{"add-p50-us": 4, "pairs": 8, "new-only": 1}}},
			want: []comparison{
				{Package: "p", Name: "BenchmarkA", Unit: "ns/op", Old: 100, New: 89, Spread: true, Min: 90, Max: 120, Outside: true},
				{Package: "p", Name: "BenchmarkA", Unit: "add-p50-us", Old: 40, New: 4, Spread: true, Min: 35, Max: 45, Outside: true},
				{Package: "p", Name: "BenchmarkA", Unit: "pairs", Old: 7, New: 8, Spread: true, Min: 7, Max: 7, Outside: true},
			},
		},
		{
			name: "single-run old entry",
			old:  []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 100}},
			cur:  []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 1e6}},
			want: []comparison{{Package: "p", Name: "BenchmarkA", Unit: "ns/op", Old: 100, New: 1e6}},
		},
		{
			name: "unpaired entries",
			old:  []Result{{Name: "BenchmarkA", Package: "p", NsPerOp: 1}, {Name: "BenchmarkB", Package: "q", NsPerOp: 2}},
			cur:  []Result{{Name: "BenchmarkB", Package: "p", NsPerOp: 3}, {Name: "BenchmarkC", Package: "p", NsPerOp: 4}},
			want: []comparison{
				{Package: "p", Name: "BenchmarkB", Only: "new"},
				{Package: "p", Name: "BenchmarkC", Only: "new"},
				{Package: "p", Name: "BenchmarkA", Only: "old"},
				{Package: "q", Name: "BenchmarkB", Only: "old"},
			},
		},
		{
			name: "renamed entry beside a paired one",
			old:  []Result{{Name: "BenchmarkLoad", Package: "p", NsPerOp: 1}, {Name: "BenchmarkKeep", Package: "p", NsPerOp: 2}},
			cur:  []Result{{Name: "BenchmarkKeep", Package: "p", NsPerOp: 3}, {Name: "BenchmarkRead", Package: "p", NsPerOp: 4}},
			want: []comparison{
				{Package: "p", Name: "BenchmarkKeep", Unit: "ns/op", Old: 2, New: 3},
				{Package: "p", Name: "BenchmarkRead", Only: "new"},
				{Package: "p", Name: "BenchmarkLoad", Only: "old"},
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := compare(Record{Benchmarks: c.old}, Record{Benchmarks: c.cur})
			if !slices.Equal(got, c.want) {
				t.Fatalf("compare:\n got %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestPrintComparison pins the report: one line per metric, the old
// spread or "no spread", "outside" on flagged rows, then one "only in"
// line per unpaired benchmark, and a closing count over the compared
// metrics.
func TestPrintComparison(t *testing.T) {
	var buf strings.Builder
	printComparison(&buf, []comparison{
		{Package: "wdcproducts/internal/blocking", Name: "BenchmarkA", Unit: "add-p50-us", Old: 4423, New: 416.4, Spread: true, Min: 4100, Max: 4600, Outside: true},
		{Package: "wdcproducts/internal/serve", Name: "BenchmarkServeReadScale/n=10000/match-2", Only: "new"},
		{Package: "wdcproducts/internal/blocking", Name: "BenchmarkA", Unit: "sweep-ms", Old: 4.3, New: 4.4, Spread: true, Min: 4.2, Max: 4.5},
		{Package: "wdcproducts", Name: "BenchmarkB", Unit: "ns/op", Old: 100, New: 500},
		{Package: "wdcproducts/internal/serve", Name: "BenchmarkServeLoad-2", Only: "old"},
	})
	want := `package      benchmark   metric      old   new    old [min, max]
blocking     BenchmarkA  add-p50-us  4423  416.4  [4100, 4600]  outside
blocking     BenchmarkA  sweep-ms    4.3   4.4    [4.2, 4.5]
wdcproducts  BenchmarkB  ns/op       100   500    no spread
only in new: serve BenchmarkServeReadScale/n=10000/match-2
only in old: serve BenchmarkServeLoad-2
1 of 3 metrics outside the old spread
`
	if got := buf.String(); got != want {
		t.Fatalf("report:\n%s\nwant:\n%s", got, want)
	}
}
