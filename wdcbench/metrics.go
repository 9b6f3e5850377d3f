package main

import (
	"math"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"wdcproducts/internal/serve"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, in report order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"match_p50_ms", "ms"},
	{"candidates_p50_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p90_ms", "ms"},
	{"read_qps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, in report order.
var perLayer = []metricSpec{
	{"loadgen.match_p99_ms", "ms"},
	{"loadgen.candidates_p90_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.requests", "count"},
	{"loadgen.failed", "count"},
	{"http.match_handler_p50_us", "us"},
	{"http.match_handler_p99_us", "us"},
	{"http.client_overhead_p50_us", "us"},
	{"http.match_resp_bytes_mean", "bytes"},
	{"http.candidates_handler_p50_ms", "ms"},
	{"blocking.candidates_p50_ms", "ms"},
	{"blocking.candidates_p90_ms", "ms"},
	{"blocking.candidates_pairs_mean", "count"},
	{"blocking.build_s", "s"},
	{"serve.view_build_s", "s"},
	{"blocking.add_p50_ms", "ms"},
	{"blocking.delta_p50_ms", "ms"},
	{"blocking.delta_p90_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.apply_p50_ms", "ms"},
	{"serve.publish_p50_ms", "ms"},
	{"serve.batch_offers_mean", "count"},
	{"serve.delta_pairs_per_batch", "count"},
	{"serve.layers_mean", "count"},
	{"serve.compactions", "count"},
	{"serve.compact_p99_ms", "ms"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.heap_peak_mb", "MB"},
	{"ladder.engine_candidates_ms", "ms"},
	{"ladder.index_candidates_ms", "ms"},
	{"ladder.server_candidates_ms", "ms"},
	{"ladder.http_candidates_ms", "ms"},
	{"ladder.server_match_us", "us"},
	{"ladder.http_match_us", "us"},
	{"ladder.encoder_train_s", "s"},
	{"ladder.ivf_build_s", "s"},
	{"ladder.ivf_add_ms", "ms"},
	{"ladder.ivf_delta_ms", "ms"},
	{"ladder.ivf_search_ms", "ms"},
	{"ladder.hnsw_build_s", "s"},
	{"ladder.hnsw_add_ms", "ms"},
	{"ladder.hnsw_delta_ms", "ms"},
	{"ladder.hnsw_search_ms", "ms"},
	{"trace.overhead_match_us", "us"},
	{"trace.spans", "count"},
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadRun is what a load phase leaves behind for the metrics.
type loadRun struct {
	reqs     []*request
	obs      []observation
	final    serve.Stats // after shutdown
	measured time.Duration
	base     time.Duration // load start as a tracer offset
	gcFrac   float64
	heapPeak uint64
	peakRSS  float64 // MB, at the end of the load
}

// endToEndMetrics derives the user-visible metrics of an untraced run.
func endToEndMetrics(lr loadRun, setups []float64) map[string]float64 {
	// read_qps is the median, over the 1 s slices of the closed-loop phase,
	// of the reads completed in each, so one stalled second moves one value.
	perSecond := make([]float64, int(closedPhase/time.Second))
	for _, r := range lr.reqs {
		if k := int((r.done - lr.measured) / time.Second); r.closed && r.ok && k >= 0 && k < len(perSecond) {
			perSecond[k]++
		}
	}
	fresh := freshMS(lr.reqs, lr.obs, warmup, lr.measured)
	return map[string]float64{
		"setup_s":           median(setups),
		"match_p50_ms":      windowedPercentile(lr.reqs, kindMatch, warmup, lr.measured, 0.5),
		"candidates_p50_ms": windowedPercentile(lr.reqs, kindCandidates, warmup, lr.measured, 0.5),
		"fresh_p50_ms":      percentile(fresh, 0.5),
		"fresh_p90_ms":      percentile(fresh, 0.9),
		"read_qps":          median(perSecond),
		"peak_rss_mb":       lr.peakRSS,
	}
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, requests and counter observations.
func layerMetrics(lr loadRun, spans []span) map[string]float64 {
	byName := map[string][]span{}
	handlerOf := map[int64]span{}
	setup := map[string][]span{}
	for _, s := range spans {
		switch s.Phase {
		case "load":
			byName[s.Name] = append(byName[s.Name], s)
			if s.Parent != 0 && strings.HasPrefix(s.Name, "http.") {
				handlerOf[s.Parent] = s
			}
		case "setup":
			setup[s.Name] = append(setup[s.Name], s)
		}
	}
	durs := func(name string, unit time.Duration) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.dur())/float64(unit))
		}
		return out
	}
	work := func(name string) []float64 {
		var out []float64
		for _, s := range byName[name] {
			out = append(out, float64(s.N))
		}
		return out
	}

	var late, overhead, queueWait []float64
	failed := 0
	firstAdd := map[int64]span{} // post span -> first index write carrying it
	for _, s := range byName["blocking.add"] {
		for _, p := range append([]int64{s.Parent}, s.Links...) {
			if _, seen := firstAdd[p]; !seen && p != 0 {
				firstAdd[p] = s
			}
		}
	}
	for _, r := range lr.reqs {
		if !r.ok {
			failed++
		}
		if !r.closed {
			late = append(late, ms(r.dispatched-r.due))
		}
		if r.kind == kindMatch && r.ok && !r.closed {
			if h, ok := handlerOf[r.span]; ok {
				overhead = append(overhead, us(r.done-r.sent-h.dur()))
			}
		}
		if r.kind == kindIngest && r.ok {
			if a, ok := firstAdd[r.span]; ok {
				queueWait = append(queueWait, ms(a.Start-(lr.base+r.done)))
			}
		}
	}

	var apply, publish, layers, compact []float64
	adds, deltas := byName["blocking.add"], byName["blocking.delta"]
	for k := 1; k < len(lr.obs); k++ {
		o := lr.obs[k]
		applyMS := float64(o.st.LastApplyMicros) / 1000
		apply = append(apply, applyMS)
		layers = append(layers, float64(o.st.Layers))
		if o.st.Compactions > lr.obs[k-1].st.Compactions {
			compact = append(compact, float64(o.st.LastCompactMicros)/1000)
		}
		// The batch just published is the latest index write and delta
		// query that ended before the observation.
		a, aok := latestBefore(adds, lr.base+o.at)
		dl, dok := latestBefore(deltas, lr.base+o.at)
		if aok && dok {
			publish = append(publish, applyMS-ms(a.dur())-ms(dl.dur()))
		}
	}
	first, last := lr.obs[0].st, lr.obs[len(lr.obs)-1].st
	if lr.final.Compactions > last.Compactions {
		compact = append(compact, float64(lr.final.LastCompactMicros)/1000)
	}

	var builds, views []float64
	for k, s := range setup["serve.new"] {
		if k < len(setup["blocking.build"]) {
			b := setup["blocking.build"][k].dur()
			builds = append(builds, b.Seconds())
			views = append(views, (s.dur() - b).Seconds())
		}
	}
	return map[string]float64{
		"loadgen.match_p99_ms":           windowedPercentile(lr.reqs, kindMatch, warmup, lr.measured, 0.99),
		"loadgen.candidates_p90_ms":      windowedPercentile(lr.reqs, kindCandidates, warmup, lr.measured, 0.9),
		"loadgen.late_p99_ms":            percentile(late, 0.99),
		"loadgen.requests":               float64(len(lr.reqs)),
		"loadgen.failed":                 float64(failed),
		"http.match_handler_p50_us":      percentile(durs("http.match", time.Microsecond), 0.5),
		"http.match_handler_p99_us":      percentile(durs("http.match", time.Microsecond), 0.99),
		"http.client_overhead_p50_us":    median(overhead),
		"http.match_resp_bytes_mean":     mean(work("http.match")),
		"http.candidates_handler_p50_ms": median(durs("http.candidates", time.Millisecond)),
		"blocking.candidates_p50_ms":     median(durs("blocking.candidates", time.Millisecond)),
		"blocking.candidates_p90_ms":     percentile(durs("blocking.candidates", time.Millisecond), 0.9),
		"blocking.candidates_pairs_mean": mean(work("blocking.candidates")),
		"blocking.build_s":               median(builds),
		"serve.view_build_s":             median(views),
		"blocking.add_p50_ms":            median(durs("blocking.add", time.Millisecond)),
		"blocking.delta_p50_ms":          median(durs("blocking.delta", time.Millisecond)),
		"blocking.delta_p90_ms":          percentile(durs("blocking.delta", time.Millisecond), 0.9),
		"serve.queue_wait_p50_ms":        median(queueWait),
		"serve.apply_p50_ms":             median(apply),
		"serve.publish_p50_ms":           median(publish),
		"serve.batch_offers_mean":        mean(work("blocking.add")),
		"serve.delta_pairs_per_batch":    mean(work("blocking.delta")),
		"serve.layers_mean":              mean(layers),
		"serve.compactions":              float64(lr.final.Compactions - first.Compactions),
		"serve.compact_p99_ms":           percentile(compact, 0.99),
		"proc.gc_cpu_frac":               lr.gcFrac,
		"proc.heap_peak_mb":              float64(lr.heapPeak) / (1 << 20),
		"trace.spans":                    float64(len(spans)),
	}
}

// latestBefore is the span of ss (in end order) that ended last at or
// before t.
func latestBefore(ss []span, t time.Duration) (span, bool) {
	var best span
	found := false
	for _, s := range ss {
		if s.End <= t && (!found || s.End > best.End) {
			best, found = s, true
		}
	}
	return best, found
}
