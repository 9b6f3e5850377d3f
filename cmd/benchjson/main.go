// Command benchjson converts `go test -bench` output read from stdin into
// a machine-readable JSON benchmark record, the format of the repository's
// BENCH_*.json perf-trajectory files.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_2.json -note "PR 2"
//
// Every benchmark result line becomes one entry with its iteration count,
// ns/op, and any further reported metrics (B/op, allocs/op, custom
// b.ReportMetric units). Repeated lines of one benchmark in one package,
// as `go test -count N` prints them, fold into one entry: its ns/op and
// metrics are the medians over the runs, its iterations their sum, and
// it records the run count and each metric's min and max (ns/op
// included). An entry from a single line has no runs, min or max.
// Non-benchmark lines (table prints, PASS/ok) are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark entry: a parsed result line, or the fold of
// its repeated runs.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Runs, Min and Max are set only when repeated lines were folded.
	Runs int                `json:"runs,omitempty"`
	Min  map[string]float64 `json:"min,omitempty"`
	Max  map[string]float64 `json:"max,omitempty"`
}

// Record is the full BENCH_*.json document.
type Record struct {
	Note       string   `json:"note,omitempty"`
	Go         string   `json:"go,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "output file (default stdout)")
	note := flag.String("note", "", "free-text note recorded in the document")
	flag.Parse()

	// The bench output carries no toolchain line; benchjson runs under the
	// same `go run` invocation as the benchmarks, so its own runtime
	// version is the right record.
	rec, err := parse(os.Stdin)
	if err != nil {
		log.Fatalf("reading stdin: %v", err)
	}
	rec.Note, rec.Go = *note, runtime.Version()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d benchmark results to %s\n", len(rec.Benchmarks), *out)
}

// parse reads `go test -bench` output and returns its results, with the
// repeated runs of each benchmark folded into one entry in first-seen
// order.
func parse(r io.Reader) (Record, error) {
	var rec Record
	var pkg string
	runs := map[[2]string][]Result{} // (package, name) -> its result lines
	var order [][2]string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:"):
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  value unit  [value unit ...]
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if fields[i+1] == "ns/op" {
				r.NsPerOp = v
			} else {
				r.Metrics[fields[i+1]] = v
			}
		}
		key := [2]string{pkg, r.Name}
		if _, seen := runs[key]; !seen {
			order = append(order, key)
		}
		runs[key] = append(runs[key], r)
	}
	for _, key := range order {
		r := fold(runs[key])
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		rec.Benchmarks = append(rec.Benchmarks, r)
	}
	return rec, sc.Err()
}

// fold merges the runs of one benchmark. One run is returned as it is.
func fold(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := Result{Name: rs[0].Name, Package: rs[0].Package, Runs: len(rs),
		Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
	values := map[string][]float64{}
	for _, r := range rs {
		out.Iterations += r.Iterations
		values["ns/op"] = append(values["ns/op"], r.NsPerOp)
		for unit, v := range r.Metrics {
			values[unit] = append(values[unit], v)
		}
	}
	for unit, vs := range values {
		slices.Sort(vs)
		m := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			m = (vs[len(vs)/2-1] + m) / 2
		}
		if unit == "ns/op" {
			out.NsPerOp = m
		} else {
			out.Metrics[unit] = m
		}
		out.Min[unit], out.Max[unit] = vs[0], vs[len(vs)-1]
	}
	return out
}
