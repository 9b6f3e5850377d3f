package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
)

// spanHeader carries a request's span id to the server-side middleware.
const spanHeader = "X-Wdcbench-Span"

// span is one timed call into a layer. Offsets are from the tracer's
// origin; Parent is the request (or ingest post) that caused it.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Phase  string        `json:"phase"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	N      int           `json:"n,omitempty"`     // work done: pairs, offers or bytes
	Links  []int64       `json:"links,omitempty"` // further posts an index write carried
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It also holds the
// registries that parent server-side spans to the requests that caused
// them: candidate windows by their id set, ingested offers by id.
type tracer struct {
	origin time.Time
	on     atomic.Bool // middleware recording switch (the overhead probe flips it)
	nextID atomic.Int64

	mu      sync.Mutex
	phase   string
	spans   []span
	windows map[uint64]int64 // window id-set key -> request span
	posts   map[int64]int64  // ingested offer id -> post span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), phase: "setup", windows: map[uint64]int64{}, posts: map[int64]int64{}}
	t.on.Store(true)
	return t
}

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.origin) }
func (t *tracer) newID() int64                     { return t.nextID.Add(1) }

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// record stores a finished span, stamped with the current phase.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	s.Phase = t.phase
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// windowKey identifies a candidates query by its sorted id set.
func windowKey(ids []int64) uint64 {
	s := slices.Clone(ids)
	slices.Sort(s)
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range slices.Compact(s) {
		for k := range buf {
			buf[k] = byte(id >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (t *tracer) registerWindow(ids []int64, req int64) {
	k := windowKey(ids)
	t.mu.Lock()
	t.windows[k] = req
	t.mu.Unlock()
}

func (t *tracer) registerPost(offers []schemaorg.Offer, req int64) {
	t.mu.Lock()
	for _, o := range offers {
		t.posts[o.ID] = req
	}
	t.mu.Unlock()
}

// postsOf returns the distinct posts that carried the given offers, in
// first-seen order.
func (t *tracer) postsOf(ids []int64) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, id := range ids {
		if p, ok := t.posts[id]; ok && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func (t *tracer) windowOwner(ids []int64) int64 {
	k := windowKey(ids)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.windows[k]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// middleware records one span per HTTP request around the daemon's
// handler (JSON decode, Server call, JSON encode), parented to the
// generator's request span, with the response size as its work.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent on untagged calls
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.record(span{Name: routeSpan(r.URL.Path), Parent: parent, Start: t.since(start), End: t.since(end), N: cw.n})
	})
}

func routeSpan(path string) string {
	switch path {
	case "/v1/match":
		return "http.match"
	case "/v1/candidates":
		return "http.candidates"
	case "/v1/offers":
		return "http.offers"
	}
	return "http.other"
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// tracedBlocker decorates an IndexedBlocker so every index it builds
// records a span per call. It adds no behaviour: the indexes it returns
// implement blocking.DeltaIndex exactly when the wrapped ones do, so the
// daemon publishes the same delta layers traced and untraced.
type tracedBlocker struct {
	blocking.IndexedBlocker
	tr *tracer

	mu   sync.Mutex
	last blocking.Index // undecorated index of the latest build
}

// BuildIndex implements blocking.IndexedBlocker.
func (b *tracedBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) blocking.Index {
	start := time.Now()
	ix := b.IndexedBlocker.BuildIndex(offers, idxs)
	b.tr.record(span{Name: "blocking.build", Start: b.tr.since(start), End: b.tr.since(time.Now()), N: len(idxs)})
	b.mu.Lock()
	b.last = ix
	b.mu.Unlock()
	t := &tracedIndex{inner: ix, tr: b.tr, offers: offers}
	if di, ok := ix.(blocking.DeltaIndex); ok {
		return &tracedDeltaIndex{tracedIndex: t, delta: di}
	}
	return t
}

// lastIndex is the undecorated index of the latest BuildIndex.
func (b *tracedBlocker) lastIndex() blocking.Index {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// tracedIndex records spans around Add and Candidates.
type tracedIndex struct {
	inner blocking.Index
	tr    *tracer

	mu     sync.Mutex
	offers []schemaorg.Offer // latest corpus slice the daemon handed over
}

// Name implements blocking.Index.
func (x *tracedIndex) Name() string { return x.inner.Name() }

// Len implements blocking.Index.
func (x *tracedIndex) Len() int { return x.inner.Len() }

// ids maps offer positions to offer ids through the latest corpus slice.
func (x *tracedIndex) ids(idxs []int) []int64 {
	x.mu.Lock()
	offers := x.offers
	x.mu.Unlock()
	out := make([]int64, len(idxs))
	for k, i := range idxs {
		out[k] = offers[i].ID
	}
	return out
}

// Add implements blocking.Index; the span is parented to the post that
// carried the batch's first offer and links the others.
func (x *tracedIndex) Add(offers []schemaorg.Offer, idxs []int) {
	x.mu.Lock()
	x.offers = offers
	x.mu.Unlock()
	start := time.Now()
	x.inner.Add(offers, idxs)
	end := time.Now()
	s := span{Name: "blocking.add", Start: x.tr.since(start), End: x.tr.since(end), N: len(idxs)}
	if posts := x.tr.postsOf(x.ids(idxs)); len(posts) > 0 {
		s.Parent, s.Links = posts[0], posts[1:]
	}
	x.tr.record(s)
}

// Candidates implements blocking.Index; the span is parented to the
// candidates request whose window it answers.
func (x *tracedIndex) Candidates(queryIdxs []int) []blocking.CandidatePair {
	start := time.Now()
	out := x.inner.Candidates(queryIdxs)
	end := time.Now()
	x.tr.record(span{Name: "blocking.candidates", Parent: x.tr.windowOwner(x.ids(queryIdxs)),
		Start: x.tr.since(start), End: x.tr.since(end), N: len(out)})
	return out
}

// tracedDeltaIndex forwards DeltaCandidates. Without it the daemon would
// see no blocking.DeltaIndex and fall back to a full adjacency rebuild per
// batch — a different program from the one the untraced run measures.
type tracedDeltaIndex struct {
	*tracedIndex
	delta blocking.DeltaIndex
}

// DeltaCandidates implements blocking.DeltaIndex.
func (x *tracedDeltaIndex) DeltaCandidates(newIdxs []int) []blocking.CandidatePair {
	start := time.Now()
	out := x.delta.DeltaCandidates(newIdxs)
	end := time.Now()
	s := span{Name: "blocking.delta", Start: x.tr.since(start), End: x.tr.since(end), N: len(out)}
	if posts := x.tr.postsOf(x.ids(newIdxs)); len(posts) > 0 {
		s.Parent = posts[0]
	}
	x.tr.record(s)
	return out
}
