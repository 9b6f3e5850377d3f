package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"wdcproducts/internal/core"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/synth"
	"wdcproducts/internal/xrand"
)

// workload is one traffic mix against a MinHash 16x4 daemon. Every
// workload carries all three request classes — match reads, candidate
// windows and ingest posts — so every end-to-end metric exists on every
// workload; the mix decides which layer does the work.
type workload struct {
	name string
	// seedN is the corpus the daemon is cold-started over.
	seedN int
	// matchRate and candRate are open-loop read rates per second.
	matchRate, candRate float64
	// postRate ingest posts per second, each of postSize offers.
	postRate float64
	postSize int
	// recentShare is the share of match reads aimed at recently visible
	// ingested offers instead of the seed corpus.
	recentShare float64
	// setups is how many cold starts a run makes; setup_s is their median.
	setups int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each exists.
var workloads = []workload{
	{name: "read-30k", seedN: 30000, matchRate: 400, candRate: 20, postRate: 10, postSize: 4, setups: 3},
	{name: "ingest-10k", seedN: 10000, matchRate: 400, candRate: 20, postRate: 16, postSize: 16, recentShare: 0.5, setups: 5},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Phase lengths around the measured open-loop window: a warm-up whose
// samples are discarded, and the closed-loop read_qps phase after it.
const (
	warmup       = time.Second
	closedPhase  = 10 * time.Second
	subWindow    = 5 * time.Second // latency percentiles are medians over these
	windowSize   = 16
	clusterShare = 8 // window members drawn from one ground-truth cluster
	// baseSeed fixes the tiny core build the corpus is grown from, as in
	// the repository's scale benches; --seed drives the growth, the stream
	// and the schedule, so every seed serves a corpus of the same shape.
	baseSeed = 42
)

// inputs are everything a run feeds the daemon, derived from the seed
// alone: the seed corpus, the novel-title ingest stream and the open-loop
// schedule.
type inputs struct {
	seedOffers []schemaorg.Offer
	stream     []schemaorg.Offer
	streamByID map[int64]schemaorg.Offer
	clusters   [][]int // seed-offer positions per ground-truth cluster (>= 2 members)
	schedule   []*request
	measured   time.Duration // end of the measured open-loop window
	corpusDig  uint64
	schedDig   uint64
}

// makeInputs grows one synth corpus of seedN offers plus the stream the
// run can ingest and lays out the open-loop schedule. The stream is the
// tail of the same growth run, so its titles are novel to the daemon.
func makeInputs(w workload, seed int64, seconds int) (*inputs, error) {
	base, err := core.Build(core.TinyBuildConfig(baseSeed))
	if err != nil {
		return nil, fmt.Errorf("seed corpus: %w", err)
	}
	measured := warmup + time.Duration(seconds)*time.Second
	ingestEnd := measured + closedPhase
	posts := int(w.postRate * ingestEnd.Seconds())
	c, err := synth.Grow(base.Offers, synth.ScaleConfig(w.seedN+posts*w.postSize, seed))
	if err != nil {
		return nil, fmt.Errorf("grow corpus: %w", err)
	}
	in := &inputs{
		seedOffers: c.Offers[:w.seedN],
		stream:     c.Offers[w.seedN:],
		streamByID: make(map[int64]schemaorg.Offer, len(c.Offers)-w.seedN),
		measured:   measured,
		corpusDig:  c.Digest(),
	}
	for _, o := range in.stream {
		in.streamByID[o.ID] = o
	}
	byCluster := map[int64][]int{}
	for i, o := range in.seedOffers {
		byCluster[o.ClusterID] = append(byCluster[o.ClusterID], i)
	}
	for _, m := range byCluster {
		if len(m) >= 2 {
			in.clusters = append(in.clusters, m)
		}
	}
	sort.Slice(in.clusters, func(a, b int) bool { return in.clusters[a][0] < in.clusters[b][0] })

	rng := xrand.New(seed).Stream("wdcbench-schedule")
	var sched []*request
	for i := 0; i < int(w.matchRate*measured.Seconds()); i++ {
		r := &request{kind: kindMatch, due: jittered(i, w.matchRate, rng)}
		in.pickMatch(r, w, rng)
		sched = append(sched, r)
	}
	for i := 0; i < int(w.candRate*measured.Seconds()); i++ {
		r := &request{kind: kindCandidates, due: jittered(i, w.candRate, rng)}
		in.setWindowIDs(r, in.idsOf(in.window(rng)))
		sched = append(sched, r)
	}
	for i := 0; i < posts; i++ {
		r := &request{kind: kindIngest, due: jittered(i, w.postRate, rng)}
		r.offers = in.stream[i*w.postSize : (i+1)*w.postSize]
		body, err := json.Marshal(map[string]any{"offers": r.offers})
		if err != nil {
			return nil, err
		}
		r.body = body
		sched = append(sched, r)
	}
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].due < sched[b].due })
	in.schedule = sched
	in.schedDig = scheduleDigest(sched)
	return in, nil
}

// jittered is the due offset of the i-th event of a stream at rate per
// second: a uniform draw inside the event's own slot, so the rate is
// exact while arrivals fall at every phase of the daemon's flush timer.
func jittered(i int, rate float64, rng *rand.Rand) time.Duration {
	return time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
}

// pickMatch chooses a match target: a uniform seed-corpus offer, or —
// for the recentShare of reads — a draw resolved at dispatch among the
// ingested offers that most recently became visible.
func (in *inputs) pickMatch(r *request, w workload, rng *rand.Rand) {
	r.id = in.seedOffers[rng.Intn(len(in.seedOffers))].ID
	r.recent = -1
	if u := rng.Float64(); u < w.recentShare {
		r.recent = rng.Float64()
	}
}

// window draws a candidates window: clusterShare offers of one ground
// truth cluster (all of it when smaller) topped up with uniform offers to
// windowSize distinct ids, shuffled. Its answer is non-empty, and a
// fresh draw per request keeps the index's query memo cold.
func (in *inputs) window(rng *rand.Rand) []int {
	members := in.clusters[rng.Intn(len(in.clusters))]
	picked := map[int]bool{}
	var out []int
	for _, k := range rng.Perm(len(members)) {
		if len(out) == clusterShare {
			break
		}
		picked[members[k]] = true
		out = append(out, members[k])
	}
	for len(out) < windowSize {
		i := rng.Intn(len(in.seedOffers))
		if !picked[i] {
			picked[i] = true
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// idsOf maps seed-offer positions to offer ids.
func (in *inputs) idsOf(idxs []int) []int64 {
	ids := make([]int64, len(idxs))
	for k, i := range idxs {
		ids[k] = in.seedOffers[i].ID
	}
	return ids
}

// setWindowIDs fills a candidates request from offer ids.
func (in *inputs) setWindowIDs(r *request, ids []int64) {
	r.ids = ids
	r.body = windowBody(ids)
}

// windowBody encodes a POST /v1/candidates body.
func windowBody(ids []int64) []byte {
	b, _ := json.Marshal(map[string]any{"ids": ids}) // []int64 always marshals
	return b
}

// scheduleDigest hashes the schedule's kinds, due times and inputs, so two
// runs can show they replayed the same stream.
func scheduleDigest(sched []*request) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for k := range buf {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	for _, r := range sched {
		word(uint64(r.kind))
		word(uint64(r.due))
		word(uint64(r.id))
		word(math.Float64bits(r.recent))
		for _, id := range r.ids {
			word(uint64(id))
		}
		for _, o := range r.offers {
			word(uint64(o.ID))
		}
	}
	return h.Sum64()
}
