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
//
// With -compare, benchjson reads two such records instead and prints,
// for every benchmark and metric found in both, the old and the new
// median:
//
//	benchjson -compare BENCH_old.json BENCH_new.json
//
// A new median outside the old entry's [min, max] is flagged "outside".
// An old entry of one run has no spread to judge against: it prints
// "no spread" and is never flagged.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"path"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
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
	cmpMode := flag.Bool("compare", false, "compare two records: benchjson -compare OLD NEW")
	flag.Parse()

	if *cmpMode {
		if flag.NArg() != 2 {
			log.Fatal("usage: benchjson -compare OLD NEW")
		}
		old, err := load(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		printComparison(os.Stdout, compare(old, cur))
		return
	}

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

// load reads a benchmark record written by benchjson.
func load(path string) (Record, error) {
	var rec Record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// comparison is one metric of one benchmark found in both records.
type comparison struct {
	Package, Name, Unit string
	Old, New            float64
	// Spread is false when the old entry ran once; Min and Max are then
	// unset and the row is never Outside.
	Spread   bool
	Min, Max float64
	Outside  bool
}

// compare pairs the entries of two records by package and name, in the
// new record's order, and each pair's metrics (ns/op first, then by
// unit): every metric either entry lacks is skipped.
func compare(old, cur Record) []comparison {
	byKey := make(map[[2]string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		byKey[[2]string{r.Package, r.Name}] = r
	}
	var out []comparison
	for _, n := range cur.Benchmarks {
		o, ok := byKey[[2]string{n.Package, n.Name}]
		if !ok {
			continue
		}
		ov, nv := values(o), values(n)
		for _, unit := range slices.SortedFunc(maps.Keys(nv), compareUnits) {
			if _, ok := ov[unit]; !ok {
				continue
			}
			c := comparison{Package: n.Package, Name: n.Name, Unit: unit, Old: ov[unit], New: nv[unit]}
			lo, hasLo := o.Min[unit]
			hi, hasHi := o.Max[unit]
			if o.Runs > 1 && hasLo && hasHi {
				c.Spread, c.Min, c.Max = true, lo, hi
				c.Outside = c.New < lo || c.New > hi
			}
			out = append(out, c)
		}
	}
	return out
}

// compareUnits orders ns/op before every other unit.
func compareUnits(a, b string) int {
	switch {
	case a == b:
		return 0
	case a == "ns/op":
		return -1
	case b == "ns/op":
		return 1
	}
	return strings.Compare(a, b)
}

// values returns an entry's medians by unit, ns/op included.
func values(r Result) map[string]float64 {
	m := make(map[string]float64, len(r.Metrics)+1)
	maps.Copy(m, r.Metrics)
	m["ns/op"] = r.NsPerOp
	return m
}

// printComparison writes one aligned line per comparison and a closing
// count of flagged rows.
func printComparison(w io.Writer, cs []comparison) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "package\tbenchmark\tmetric\told\tnew\told [min, max]")
	flagged := 0
	for _, c := range cs {
		spread := "no spread"
		if c.Spread {
			spread = fmt.Sprintf("[%s, %s]", num(c.Min), num(c.Max))
		}
		if c.Outside {
			spread += "\toutside"
			flagged++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", path.Base(c.Package), c.Name, c.Unit, num(c.Old), num(c.New), spread)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d of %d metrics outside the old spread\n", flagged, len(cs))
}

// num formats a metric value compactly.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
