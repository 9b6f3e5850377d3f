// Command wdcbench is the end-to-end benchmark of the wdcserve daemon. It
// grows a seeded synth corpus, cold-starts an in-process serve.Server
// over it with wdcserve's default pipeline settings, drives the HTTP API
// from an open-loop generator (match reads, candidate windows and a
// stream of novel-title ingest posts) followed by a closed-loop read
// phase, checks the answers, and prints one JSON result line:
//
//	wdcbench --workload read-30k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that decorates the blocker and the HTTP handler with spans, times the
// layer ladder, and reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wdcproducts/internal/xrand"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the corpus, stream and schedule derive from")
	seconds := flag.Int("seconds", 10, "length of the measured open-loop window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wdcbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdcbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// infinite is how a percentile that landed on a failed request is
// written: JSON has no infinity.
const infinite = 1e9

func bench(w workload, seed int64, seconds int, traced bool, traceDir string) (*result, error) {
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	logf("workload %s seed %d: %d seed offers, %d stream offers, %d scheduled requests",
		w.name, seed, len(in.seedOffers), len(in.stream), len(in.schedule))
	logf("inputs: corpus digest %016x, schedule digest %016x", in.corpusDig, in.schedDig)
	logf("host: %s, %s, nproc %d, GOMAXPROCS %d", runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var d *daemon
	for i := 0; i < w.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		if d, err = startDaemon(in.seedOffers, seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.stop() // stop is idempotent; the success path stops earlier
	logf("setup: %v s", setups)

	ctx := context.Background()
	g := &gate{}
	grng := xrand.New(seed).Stream("wdcbench-gate")
	var windows [][]int64
	for k := 0; k < 8; k++ {
		windows = append(windows, in.idsOf(in.window(grng)))
	}
	g.checkWindows(ctx, d, windows)

	var ladder map[string]float64
	if traced {
		tr.setPhase("ladder")
		ladder = runLadder(ctx, d, in, xrand.New(seed).Stream("wdcbench-ladder"))
		for k, v := range knnLadder(in, seed, xrand.New(seed).Stream("wdcbench-knn")) {
			ladder[k] = v
		}
		tr.setPhase("load")
	}

	gc0, cpu0 := cpuSeconds()
	start := time.Now()
	trk := startTracker(d.srv, start)
	reqs := runLoad(ctx, d, w, in, trk, tr, g, start, seed)
	gc1, cpu1 := cpuSeconds()
	rss := peakRSSMB() // before the gate's reference builds
	if traced {
		tr.setPhase("gate")
	}

	acked, _ := trk.snapshot()
	g.checkVisible(ctx, d, acked)
	trk.halt()
	acked, obs := trk.snapshot()
	// MinHash adjacency is monotone, so candidates and match agree at every
	// epoch, not only before the first ingest.
	g.checkWindows(ctx, d, windows)
	var sample []int64
	for _, k := range grng.Perm(len(in.seedOffers))[:100] {
		sample = append(sample, in.seedOffers[k].ID)
	}
	for _, k := range grng.Perm(len(acked))[:min(100, len(acked))] {
		sample = append(sample, acked[k])
	}
	g.checkSymmetry(ctx, d, sample)
	g.checkReference(ctx, d, in, acked, grng)
	g.checkDeltaLayered(obs)

	// Stop the daemon before deriving metrics: shutdown folds the
	// outstanding delta layers in one last compaction, which the
	// compaction metrics count even when the load triggered none.
	if err := d.stop(); err != nil {
		return nil, err
	}
	lr := loadRun{reqs: reqs, obs: obs, final: d.srv.Stats(), measured: in.measured, heapPeak: trk.heapPeak.Load(), peakRSS: rss}
	if cpu1 > cpu0 {
		lr.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	res := &result{Correct: g.ok(), Attempted: len(reqs), Metrics: map[string]metric{}}
	for _, r := range reqs {
		if !r.ok {
			res.Failed++
		}
	}
	specs, values := endToEnd, map[string]float64(nil)
	if traced {
		lr.base = tr.since(start)
		values = layerMetrics(lr, tr.snapshot())
		for k, v := range ladder {
			values[k] = v
		}
		specs = perLayer
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		logf("spans written to %s", path)
	} else {
		values = endToEndMetrics(lr, setups)
	}
	for _, s := range specs {
		v := values[s.name]
		if math.IsInf(v, 1) {
			v = infinite
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		logf("%-32s %14.4f %s", s.name, v, s.unit)
	}
	logf("requests %d, failed %d, epochs %d, delta-layered %v, correct %v",
		res.Attempted, res.Failed, obs[len(obs)-1].st.Epoch, g.layered, res.Correct)
	for _, f := range g.first {
		logf("gate: %s", f)
	}
	return res, nil
}

// runLoad plays the open-loop schedule on nproc workers and, once the
// measured window ends, runs the closed-loop read phase beside the rest
// of the ingest stream. It returns every request made.
func runLoad(ctx context.Context, d *daemon, w workload, in *inputs, trk *tracker, tr *tracer, g *gate, start time.Time, seed int64) []*request {
	var ingestMu sync.Mutex // ingest posts go out one at a time so queue positions are known
	do := func(r *request) { d.send(ctx, r, trk, tr, g, &ingestMu) }
	// Each closed-loop client sends the open loop's read mix in a fixed
	// rotation — every candEvery-th request is a candidates window — so
	// read_qps does not swing with how many scans a random mix drew.
	candEvery := int(math.Round((w.candRate + w.matchRate) / w.candRate))
	const clients = 2
	rngs := make([]*rand.Rand, clients)
	sent := make([]int, clients)
	for c := range rngs {
		rngs[c] = xrand.New(seed).Stream(fmt.Sprintf("wdcbench-closed-%d", c))
	}
	next := func(c int) *request {
		rng := rngs[c]
		sent[c]++
		if sent[c]%candEvery == 0 {
			r := &request{kind: kindCandidates}
			in.setWindowIDs(r, in.idsOf(in.window(rng)))
			return r
		}
		r := &request{kind: kindMatch}
		in.pickMatch(r, w, rng)
		return r
	}
	var closed []*request
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(start.Add(in.measured)))
		closed = closedLoop(start, in.measured+closedPhase, clients, next, do)
	}()
	openLoop(start, in.schedule, runtime.NumCPU(), do)
	<-done
	return append(append([]*request(nil), in.schedule...), closed...)
}

// send performs one request and records its outcome, validating answers
// through the gate as they arrive.
func (d *daemon) send(ctx context.Context, r *request, trk *tracker, tr *tracer, g *gate, ingestMu *sync.Mutex) {
	if tr != nil {
		r.span = tr.newID()
	}
	switch r.kind {
	case kindMatch:
		if r.recent >= 0 {
			if id, ok := trk.recent(r.recent); ok {
				r.id = id
			}
		}
		a, _, err := d.match(ctx, r.id, r.span)
		if err == nil {
			g.checkMatch(r.id, a)
			r.ok = true
		}
	case kindCandidates:
		if tr != nil {
			tr.registerWindow(r.ids, r.span)
		}
		a, _, err := d.candidates(ctx, r.body, r.span)
		if err == nil {
			g.checkCandidates(r.ids, a)
			r.ok = true
		}
	case kindIngest:
		ingestMu.Lock()
		defer ingestMu.Unlock()
		if tr != nil {
			tr.registerPost(r.offers, r.span)
		}
		before := d.srv.Stats().Accepted
		code, _, err := d.do(ctx, http.MethodPost, "/v1/offers", r.body, r.span, nil)
		r.ackedTo = d.srv.Stats().Accepted
		trk.ack(r.offers[:r.ackedTo-before])
		r.ok = err == nil && code == http.StatusAccepted
	}
}

// cpuModel names the host CPU for the run header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
