package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve"
)

// kind is a request class.
type kind uint8

const (
	kindMatch kind = iota
	kindCandidates
	kindIngest
)

// request is one scheduled call and, once sent, its outcome. Offsets are
// measured from the start of the load phase.
type request struct {
	kind kind
	due  time.Duration

	id     int64   // match target
	recent float64 // >= 0: match a recently visible ingested offer instead (see tracker.recent)
	ids    []int64 // candidates window
	offers []schemaorg.Offer
	body   []byte // pre-encoded POST body
	closed bool   // issued by a closed-loop client

	span                   int64 // request span id (traced runs)
	dispatched, sent, done time.Duration
	ok                     bool
	ackedTo                int64 // ingest: Stats().Accepted right after this post returned
}

// latency is the request's latency from its due time; a failed request
// misses every limit and counts as +Inf.
func (r *request) latency() time.Duration {
	if !r.ok {
		return time.Duration(math.MaxInt64)
	}
	return r.done - r.due
}

// openLoop hands every request to one of workers goroutines at its due
// offset from start, whether or not earlier requests have finished, and
// returns once all have completed. A request waiting for a free worker
// keeps ageing from its due time; dispatched-due is the generator's own
// lateness.
func openLoop(start time.Time, reqs []*request, workers int, do func(*request)) {
	ch := make(chan *request, len(reqs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range ch {
				r.sent = time.Since(start)
				do(r)
				r.done = time.Since(start)
			}
		}()
	}
	for _, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		r.dispatched = time.Since(start)
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// closedLoop runs clients goroutines that each send next(client) and wait
// for the answer, back to back, until the offset end; it returns every
// request they made. A closed-loop request is due when it is sent.
func closedLoop(start time.Time, end time.Duration, clients int, next func(client int) *request, do func(*request)) []*request {
	out := make([][]*request, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < end {
				r := next(c)
				r.closed = true
				r.due = time.Since(start)
				r.dispatched, r.sent = r.due, r.due
				do(r)
				r.done = time.Since(start)
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []*request
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// percentile is the nearest-rank q-quantile of xs (0 when xs is empty).
// Failed requests enter xs as +Inf, so a tail percentile lands on a
// failure as soon as failures outnumber the samples above it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latenciesMS collects the latencies of the requests of kind k that were
// due in [from, to), in milliseconds, failures as +Inf.
func latenciesMS(reqs []*request, k kind, from, to time.Duration) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.kind == k && !r.closed && r.due >= from && r.due < to {
			if r.ok {
				out = append(out, ms(r.latency()))
			} else {
				out = append(out, math.Inf(1))
			}
		}
	}
	return out
}

// windowedPercentile is the median, over consecutive subWindow slices of
// [from, to), of each slice's q-quantile latency of kind k: a stall that
// hits one slice moves one value, not the result.
func windowedPercentile(reqs []*request, k kind, from, to time.Duration, q float64) float64 {
	var per []float64
	for lo := from; lo+subWindow <= to; lo += subWindow {
		per = append(per, percentile(latenciesMS(reqs, k, lo, lo+subWindow), q))
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// observation is one Stats snapshot, taken when Applied moved.
type observation struct {
	at time.Duration
	st serve.Stats
}

// tracker polls the daemon's counters every millisecond for the whole
// load: it records a snapshot whenever Applied moves (one per applied
// batch unless two land within a poll), knows which acknowledged
// ingested offers are visible, and samples the live heap.
type tracker struct {
	srv   *serve.Server
	start time.Time

	mu    sync.Mutex
	acked []int64 // accepted ingested offer ids, in queue order
	obs   []observation

	applied  atomic.Int64
	heapPeak atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

func startTracker(srv *serve.Server, start time.Time) *tracker {
	t := &tracker{srv: srv, start: start, stop: make(chan struct{}), done: make(chan struct{})}
	t.obs = append(t.obs, observation{at: time.Since(start), st: srv.Stats()})
	go t.run()
	return t
}

func (t *tracker) run() {
	defer close(t.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for n := 0; ; n++ {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		st := t.srv.Stats()
		if st.Applied != t.applied.Load() {
			t.mu.Lock()
			t.obs = append(t.obs, observation{at: time.Since(t.start), st: st})
			t.mu.Unlock()
			t.applied.Store(st.Applied)
		}
		if n%50 == 0 {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > t.heapPeak.Load() {
				t.heapPeak.Store(v)
			}
		}
	}
}

// halt stops polling and waits for the poller to exit.
func (t *tracker) halt() {
	close(t.stop)
	<-t.done
}

// ack records the ingested offers a post got accepted, in queue order.
func (t *tracker) ack(offers []schemaorg.Offer) {
	t.mu.Lock()
	for _, o := range offers {
		t.acked = append(t.acked, o.ID)
	}
	t.mu.Unlock()
}

// recentWindow is how many of the latest visible ingested offers a
// recent-match read draws from.
const recentWindow = 256

// recent maps u in [0,1) to one of the recentWindow ingested offers that
// became visible last; false while none is visible yet.
func (t *tracker) recent(u float64) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.applied.Load())
	if n > len(t.acked) {
		n = len(t.acked)
	}
	w := n
	if w > recentWindow {
		w = recentWindow
	}
	if w == 0 {
		return 0, false
	}
	return t.acked[n-1-int(u*float64(w))], true
}

// snapshot returns copies of the acknowledged ids and the observations.
func (t *tracker) snapshot() ([]int64, []observation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int64(nil), t.acked...), append([]observation(nil), t.obs...)
}

// visibleAt is the first observation offset at which Applied covered n
// offers; false if none did.
func visibleAt(obs []observation, n int64) (time.Duration, bool) {
	i := sort.Search(len(obs), func(i int) bool { return obs[i].st.Applied >= n })
	if i == len(obs) {
		return 0, false
	}
	return obs[i].at, true
}

// freshMS is, per ingest post due in [from, to), the time from its due
// time until all of its offers were visible, in milliseconds; a failed
// post counts as +Inf.
func freshMS(reqs []*request, obs []observation, from, to time.Duration) []float64 {
	var out []float64
	for _, r := range reqs {
		if r.kind != kindIngest || r.due < from || r.due >= to {
			continue
		}
		at, ok := visibleAt(obs, r.ackedTo)
		if !r.ok || !ok {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(at-r.due))
	}
	return out
}
