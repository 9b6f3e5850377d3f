// Package serve is the fault-tolerant matching daemon built on the
// reusable blocking indexes: it opens (or snapshot-loads) a blocking
// index over a seed corpus, ingests offers from a streaming connector
// through a bounded pipeline, and answers match/candidate queries with
// explicit deadlines, typed errors, and backpressure instead of
// unbounded buffering.
//
// Concurrency model. Writes are single-writer: one applier goroutine
// owns the offers slice and is the only caller of Index.Add. Reads are
// two-tier. Match lookups are lock-free — the applier publishes an
// immutable epoch view through an atomic pointer after every applied
// batch, so GET /v1/match touches no lock at all. A view is layered: a
// frozen base adjacency plus one small delta layer per applied batch
// (the pairs that batch introduced, straight from the index's
// DeltaCandidates), so publishing an epoch costs O(batch·candidates)
// instead of an O(corpus) adjacency recompute. Base and layer alike
// are built from their pair list by one counted fill (newAdjacency):
// dense endpoint slots, degree prefix sums, one flat partner array. A
// base — the initial epoch, a snapshot restart, a kNN full republish —
// costs one full candidate query plus that fill. New checks once whether
// the index is a blocking.DeltaIndex; the write path then queries the
// engine directly and has no error path. One publish step stores every
// view, first folding stacked layers into a fresh base once they cross
// the count/size thresholds (Config.CompactLayers, Config.CompactPairs),
// so per-read merge work never degrades unboundedly. Candidate queries on
// a MinHash (delta) index run against the live index, which takes its
// read lock one band of the bucket sweep at a time (see the
// blocking.Index contract), so the applier's Add waits for at most one
// band; on any other index they answer from the epoch view. Both are
// bounded by a query-slot semaphore and the request deadline.
//
// Failure model. Ingest failures are retried with jittered exponential
// backoff; a batch that exhausts its retry budget is written to the
// dead-letter log and dropped — the daemon never wedges on a poison
// batch. An index that panics during publication crashes the applier.
// Snapshot load failures degrade to a rebuild (the OpenStats are
// surfaced on /v1/stats). Shutdown drains the queue within a deadline
// and writes a fresh snapshot of the index atomically before exiting.
package serve

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve/faults"
)

// Config parameterizes New. Blocker is required; every other field has
// a serviceable zero value.
type Config struct {
	// Blocker builds (or loads) the blocking index the daemon serves.
	Blocker blocking.IndexedBlocker
	// Offers is the seed corpus, fully indexed before the daemon
	// answers its first query. Offer IDs must be unique.
	Offers []schemaorg.Offer
	// Index routes index acquisition through blocking.OpenIndex:
	// SnapshotDir enables snapshot load/save.
	Index blocking.IndexOptions
	// Connector, when non-nil, streams offers into the ingest pipeline
	// once Start is called.
	Connector Connector
	// QueueCap bounds the ingest queue (default 256). When the queue
	// is full, Enqueue reports backpressure and the connector loop
	// blocks — nothing buffers without bound.
	QueueCap int
	// BatchSize caps the number of queued offers applied per index
	// write (default 64). Batches are group-committed: the applier takes
	// whatever is queued when it is free, so no offer waits on a timer.
	BatchSize int
	// FlushEvery is only the Retry-After hint a backpressure refusal
	// carries (default 200ms); it delays nothing.
	FlushEvery time.Duration
	// QueryTimeout caps every query's deadline (default 2s). Requests
	// may ask for less, never more.
	QueryTimeout time.Duration
	// DrainTimeout bounds Shutdown's drain of queued ingest work
	// (default 10s). Work still queued at the deadline is abandoned
	// (the snapshot reflects applied work only).
	DrainTimeout time.Duration
	// CompactLayers bounds how many delta layers may stack on a view's
	// base before the applier folds them into a fresh base (default 32;
	// negative disables the count trigger).
	CompactLayers int
	// CompactPairs triggers compaction once the stacked delta layers
	// carry more than this many candidate pairs (0 = adaptive: half the
	// base adjacency's pair count, with a 4096-pair floor; negative
	// disables the size trigger).
	CompactPairs int
	// Retry shapes the apply retry/backoff schedule.
	Retry RetryPolicy
	// RetrySeed seeds backoff jitter (deterministic tests).
	RetrySeed int64
	// DeadLetter receives one JSON line per refused record or
	// abandoned batch (nil discards them, counted but unlogged).
	DeadLetter io.Writer
	// Log receives human-readable progress lines (nil = silent).
	Log io.Writer
	// Faults attaches the fault-injection harness (nil = no faults).
	Faults *faults.Injector
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 200 * time.Millisecond
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CompactLayers == 0 {
		c.CompactLayers = 32
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// adjacency is one immutable slab of the served corpus's candidate
// graph: an id→index map and sorted, deduplicated partner lists, plus
// the number of unordered pairs they represent. A view holds one as its
// compacted base and one more per applied batch (that batch's delta).
type adjacency struct {
	idxOf    map[int64]int     // offer ID -> position in offers
	partners map[int64][]int64 // offer ID -> sorted candidate partner IDs
	pairs    int               // unordered candidate pairs represented
}

// newAdjacency assembles an adjacency from candidate pairs (offer-index
// pairs over offers) by a counted fill: endpoints get dense slots in
// first-seen order, and degree prefix sums lay every partner list out in
// one flat array, sized by the pairs (a delta layer costs O(batch
// pairs), never O(corpus)). Each list is then sorted and deduplicated —
// an Index may emit a pair twice, and publication squashes duplicates.
func newAdjacency(offers []schemaorg.Offer, idxOf map[int64]int, pairs []blocking.CandidatePair) *adjacency {
	// Slots are keyed by offer index: served offer IDs are unique, so
	// that is one slot per ID without loading the offer on every lookup.
	slotOf := make(map[int]int32, min(2*len(pairs), len(offers)))
	var ids []int64 // slot -> offer ID
	var deg []int   // slot -> partner count
	ends := make([]int32, 2*len(pairs))
	for k, p := range pairs {
		for e, i := range [2]int{p.A, p.B} {
			var s int32
			if e == 0 && k > 0 && pairs[k-1].A == i {
				s = ends[2*k-2] // sorted pairs repeat A: skip the lookup
			} else {
				var ok bool
				if s, ok = slotOf[i]; !ok {
					s = int32(len(ids))
					slotOf[i] = s
					ids = append(ids, offers[i].ID)
					deg = append(deg, 0)
				}
			}
			deg[s]++
			ends[2*k+e] = s
		}
	}
	off := make([]int, len(ids)+1) // slot s's partners fill flat[off[s]:off[s+1]]
	for s, d := range deg {
		off[s+1] = off[s] + d
	}
	flat := make([]int64, len(ends))
	for k, s := range ends {
		deg[s]--
		flat[off[s]+deg[s]] = ids[ends[k^1]]
	}
	partners := make(map[int64][]int64, len(ids))
	n := 0
	for s, id := range ids {
		ps := flat[off[s]:off[s+1]:off[s+1]]
		slices.Sort(ps)
		ps = slices.Compact(ps)
		partners[id] = ps
		n += len(ps)
	}
	return &adjacency{idxOf: idxOf, partners: partners, pairs: n / 2}
}

// view is one immutable epoch of the served corpus: a frozen base
// adjacency plus one delta layer per batch applied since the last
// compaction. The applier publishes a fresh view after every applied
// batch (reusing the base and extending the layer stack) and readers
// load it once per request — no locks, a consistent corpus. A candidate
// pair lives in exactly one slab: the layer whose batch added the
// pair's later endpoint, or the base once compaction folds it down.
type view struct {
	epoch      int64
	offers     []schemaorg.Offer // the indexed corpus, in index order
	base       *adjacency        // compacted adjacency prefix
	layers     []*adjacency      // per-batch deltas, oldest first
	deltaPairs int               // total pairs across layers
}

// indexOf resolves an offer ID to its position in offers, trying the
// delta layers (newest first) before the base.
func (v *view) indexOf(id int64) (int, bool) {
	for i := len(v.layers) - 1; i >= 0; i-- {
		if idx, ok := v.layers[i].idxOf[id]; ok {
			return idx, true
		}
	}
	idx, ok := v.base.idxOf[id]
	return idx, ok
}

// match merges id's partner lists across the base and every delta layer
// into one sorted, deduplicated slice the caller owns. With no layer
// contribution this is a plain copy of the base list — the compacted
// fast path read amortization converges back to.
func (v *view) match(id int64) []int64 {
	out := append([]int64(nil), v.base.partners[id]...)
	merged := false
	for _, l := range v.layers {
		if ps := l.partners[id]; len(ps) > 0 {
			out = append(out, ps...)
			merged = true
		}
	}
	if merged {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// extend publishes the next epoch on top of v: same base, same offers
// prefix semantics, the batch's delta stacked as one more layer. The
// layer stack grows through a full-slice expression so the published
// view and its successor never share spare slice capacity.
func (v *view) extend(offers []schemaorg.Offer, delta *adjacency) *view {
	return &view{
		epoch:      v.epoch + 1,
		offers:     offers,
		base:       v.base,
		layers:     append(v.layers[:len(v.layers):len(v.layers)], delta),
		deltaPairs: v.deltaPairs + delta.pairs,
	}
}

// compact folds every delta layer into a fresh base — pure map merging,
// no index query — returning an equivalent view whose reads are single
// lookups again. Partner lists untouched by any layer are shared with
// the old base, not copied.
func (v *view) compact() *view {
	if len(v.layers) == 0 {
		return v
	}
	idxOf := make(map[int64]int, len(v.offers))
	for id, i := range v.base.idxOf {
		idxOf[id] = i
	}
	touched := make(map[int64]bool)
	for _, l := range v.layers {
		for id, i := range l.idxOf {
			idxOf[id] = i
		}
		for id := range l.partners {
			touched[id] = true
		}
	}
	partners := make(map[int64][]int64, len(v.base.partners)+len(touched))
	for id, ps := range v.base.partners {
		if !touched[id] {
			partners[id] = ps
		}
	}
	for id := range touched {
		partners[id] = v.match(id)
	}
	base := &adjacency{idxOf: idxOf, partners: partners, pairs: v.base.pairs + v.deltaPairs}
	return &view{epoch: v.epoch, offers: v.offers, base: base}
}

// Server is the matching daemon. Construct with New, start ingest with
// Start (or Run), and stop with Shutdown.
type Server struct {
	cfg   Config
	ix    blocking.Index
	delta blocking.DeltaIndex // ix when it has a delta query, else nil
	open  blocking.OpenStats

	view    atomic.Pointer[view]
	observe func(*view) // test hook: sees every published view (nil in production)

	qmu      sync.RWMutex // Enqueue sends under R; close and the applier's whole-post wait take W
	ingest   chan schemaorg.Offer
	draining atomic.Bool

	slots chan struct{} // query concurrency semaphore

	startOnce   sync.Once
	started     atomic.Bool
	pipeCancel  context.CancelFunc // stops the connector loop
	abortCancel context.CancelFunc // hard-stops the applier (drain deadline)
	readerDone  chan struct{}
	applierDone chan struct{}

	shutOnce sync.Once
	shutErr  error

	dlMu sync.Mutex // dead-letter writer (reader and applier both write)

	// counters (see Stats)
	nAccepted, nRejected, nApplied, nRetries, nDeadLettered atomic.Int64
	nQueries, nTimeouts                                     atomic.Int64
	nCompactions                                            atomic.Int64
	lastApplyUS, lastDeltaPairs, lastCompactUS              atomic.Int64
}

// New opens the index over cfg.Offers (loading a snapshot when
// cfg.Index.SnapshotDir holds a trusted one, rebuilding otherwise — a
// refused snapshot is recorded in OpenStats, never fatal) and publishes
// the initial epoch. It does not start the ingest pipeline; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Blocker == nil {
		return nil, fmt.Errorf("serve: Config.Blocker is required")
	}
	// Own the seed slice: the applier grows it with plain appends, which
	// must never scribble into spare capacity of a caller-owned array.
	cfg.Offers = append([]schemaorg.Offer(nil), cfg.Offers...)
	idxOf := make(map[int64]int, len(cfg.Offers))
	for i := range cfg.Offers {
		o := &cfg.Offers[i]
		if o.Title == "" {
			return nil, fmt.Errorf("serve: seed offer %d (id %d) has no title", i, o.ID)
		}
		if j, dup := idxOf[o.ID]; dup {
			return nil, fmt.Errorf("serve: seed offers %d and %d share id %d", j, i, o.ID)
		}
		idxOf[o.ID] = i
	}
	idxs := make([]int, len(cfg.Offers))
	for i := range idxs {
		idxs[i] = i
	}
	ix, open := blocking.OpenIndex(cfg.Blocker, cfg.Offers, idxs, cfg.Index)
	s := &Server{
		cfg:         cfg,
		ix:          ix,
		open:        open,
		ingest:      make(chan schemaorg.Offer, cfg.QueueCap),
		slots:       make(chan struct{}, maxQueries),
		readerDone:  make(chan struct{}),
		applierDone: make(chan struct{}),
	}
	s.delta, _ = ix.(blocking.DeltaIndex)
	if open.LoadErr != nil {
		s.logf("snapshot refused (%v); rebuilt index", open.LoadErr)
	}
	s.publish(s.buildView(0, cfg.Offers, idxOf))
	return s, nil
}

// buildView computes the full candidate adjacency for the corpus and
// assembles a layerless epoch view — the from-scratch path, used for
// the initial epoch and for every epoch of an index without a delta
// query. The steady-state write path extends views with delta layers
// instead (see publishBatch).
func (s *Server) buildView(epoch int64, offers []schemaorg.Offer, idxOf map[int64]int) *view {
	all := make([]int, len(offers))
	for i := range all {
		all[i] = i
	}
	return &view{epoch: epoch, offers: offers, base: newAdjacency(offers, idxOf, s.ix.Candidates(all))}
}

// publish is the one place a view becomes the served epoch, for New and
// the applier alike. A view whose layers cross the compaction thresholds
// is folded into a fresh base first. It returns the view it stored.
func (s *Server) publish(v *view) *view {
	if s.needsCompaction(v) {
		start := time.Now()
		folded := len(v.layers)
		v = v.compact()
		s.nCompactions.Add(1)
		s.lastCompactUS.Store(time.Since(start).Microseconds())
		s.logf("epoch %d: compacted %d layers into base (%d pairs, %v)",
			v.epoch, folded, v.base.pairs, time.Since(start).Round(time.Microsecond))
	}
	s.view.Store(v)
	if s.observe != nil {
		s.observe(v)
	}
	return v
}

// needsCompaction applies the configured thresholds to a
// just-extended view: too many stacked layers, or stacked delta pairs
// outgrowing the base (adaptively or against an absolute bound).
func (s *Server) needsCompaction(v *view) bool {
	if n := s.cfg.CompactLayers; n > 0 && len(v.layers) >= n {
		return true
	}
	switch limit := s.cfg.CompactPairs; {
	case limit > 0:
		return v.deltaPairs >= limit
	case limit == 0:
		return v.deltaPairs >= max(v.base.pairs/2, 4096)
	}
	return false
}

// OpenStats reports how the index was acquired (snapshot load vs
// rebuild, and the typed refusal when a snapshot was present but not
// trusted).
func (s *Server) OpenStats() blocking.OpenStats { return s.open }

// Epoch is the sequence number of the currently published view; it
// advances by one per applied batch.
func (s *Server) Epoch() int64 { return s.view.Load().epoch }

// logf writes one progress line when a log sink is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "serve: "+format+"\n", args...)
	}
}

// Enqueue submits offers to the ingest queue without blocking. It
// accepts a prefix of the submitted offers (possibly all, possibly
// none) and returns how many were accepted; when not all fit, the
// returned *Error has CodeBackpressure and a RetryAfter hint — the
// caller retries the remainder. During shutdown it accepts nothing and
// returns CodeShuttingDown.
func (s *Server) Enqueue(offers []schemaorg.Offer) (accepted int, err *Error) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining.Load() {
		return 0, Errorf(CodeShuttingDown, "daemon is draining; ingest is closed")
	}
	if s.cfg.Faults.QueueFull() {
		s.nRejected.Add(int64(len(offers)))
		return 0, s.backpressure(len(offers))
	}
	for _, off := range offers {
		select {
		case s.ingest <- off:
			accepted++
		default:
			s.nAccepted.Add(int64(accepted))
			s.nRejected.Add(int64(len(offers) - accepted))
			return accepted, s.backpressure(len(offers) - accepted)
		}
	}
	s.nAccepted.Add(int64(accepted))
	return accepted, nil
}

// backpressure builds the typed queue-full error with the FlushEvery
// retry hint.
func (s *Server) backpressure(n int) *Error {
	e := Errorf(CodeBackpressure, "ingest queue full (%d/%d); %d offers refused",
		len(s.ingest), s.cfg.QueueCap, n)
	e.RetryAfter = s.cfg.FlushEvery
	return e
}

// maxQueries bounds concurrently executing queries; excess requests wait
// for a slot inside their own deadline.
const maxQueries = 16

// withBudget runs fn inside the request deadline and the query-slot
// semaphore: the caller gets its answer or a typed context error by the
// deadline, even when fn (or an injected latency fault) is still
// running — the straggler finishes on its goroutine and releases its
// slot. fn's result travels through the completion channel rather than
// captured variables, so an abandoned straggler's writes never alias
// memory the caller reads after the deadline (the shape the race probe
// in race_probe_test.go pins).
func withBudget[T any](s *Server, ctx context.Context, fn func() (T, *Error)) (T, *Error) {
	var zero T
	s.nQueries.Add(1)
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.nTimeouts.Add(1)
		return zero, ctxError(ctx)
	}
	type outcome struct {
		val T
		err *Error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() { <-s.slots }()
		if d := s.cfg.Faults.QueryLatency(); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				done <- outcome{err: ctxError(ctx)}
				return
			}
		}
		v, err := fn()
		done <- outcome{val: v, err: err}
	}()
	select {
	case o := <-done:
		if o.err != nil && (o.err.Code == CodeDeadlineExceeded || o.err.Code == CodeCanceled) {
			s.nTimeouts.Add(1)
		}
		return o.val, o.err
	case <-ctx.Done():
		s.nTimeouts.Add(1)
		return zero, ctxError(ctx)
	}
}

// Match returns the candidate partner IDs of the offer with the given
// ID, with the epoch the answer was computed at. The lookup reads the
// immutable epoch view — no locks — so its latency is independent of
// concurrent ingest.
func (s *Server) Match(ctx context.Context, id int64) ([]int64, int64, *Error) {
	type answer struct {
		partners []int64
		epoch    int64
	}
	a, err := withBudget(s, ctx, func() (answer, *Error) {
		v := s.view.Load()
		if _, ok := v.indexOf(id); !ok {
			return answer{}, Errorf(CodeUnknownOffer, "offer %d is not in the served corpus", id)
		}
		return answer{v.match(id), v.epoch}, nil
	})
	return a.partners, a.epoch, err
}

// Candidates returns the candidate pairs among the given offer IDs as
// ID pairs (low, high), sorted, with the epoch the answer belongs to.
// A MinHash index answers it as a live subset query under its read lock
// (one band at a time): its answer already equals the view's, because a
// collision is pairwise and Add only grows adjacency. Any other index
// answers from the epoch view, as match(id) ∩ ids: the applier grows a
// kNN index before it publishes the view, and a later title can evict a
// pair from a neighbour list, so the live index may run one batch ahead
// of the epoch the answer is labelled with.
func (s *Server) Candidates(ctx context.Context, ids []int64) ([][2]int64, int64, *Error) {
	type answer struct {
		pairs [][2]int64
		epoch int64
	}
	a, err := withBudget(s, ctx, func() (answer, *Error) {
		v := s.view.Load()
		idxs := make([]int, 0, len(ids))
		seen := make(map[int64]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			idx, ok := v.indexOf(id)
			if !ok {
				return answer{}, Errorf(CodeUnknownOffer, "offer %d is not in the served corpus", id)
			}
			idxs = append(idxs, idx)
		}
		var pairs [][2]int64
		if s.delta == nil {
			for id := range seen {
				for _, p := range v.match(id) {
					if id < p && seen[p] {
						pairs = append(pairs, [2]int64{id, p})
					}
				}
			}
		} else {
			cands, qerr := blocking.QueryCandidates(s.ix, idxs)
			if qerr != nil {
				return answer{}, Errorf(CodeInternal, "candidate query: %v", qerr)
			}
			pairs = make([][2]int64, len(cands))
			for i, p := range cands {
				a, b := v.offers[p.A].ID, v.offers[p.B].ID
				if a > b {
					a, b = b, a
				}
				pairs[i] = [2]int64{a, b}
			}
		}
		slices.SortFunc(pairs, func(x, y [2]int64) int {
			if c := cmp.Compare(x[0], y[0]); c != 0 {
				return c
			}
			return cmp.Compare(x[1], y[1])
		})
		return answer{pairs, v.epoch}, nil
	})
	return a.pairs, a.epoch, err
}

// Stats is a point-in-time snapshot of the daemon's counters, reported
// on GET /v1/stats.
type Stats struct {
	// Epoch is the published view's sequence number.
	Epoch int64 `json:"epoch"`
	// Offers is the size of the indexed corpus at that epoch.
	Offers int `json:"offers"`
	// Accepted counts offers taken into the ingest queue (Enqueue and
	// connector combined).
	Accepted int64 `json:"accepted"`
	// Rejected counts offers refused with backpressure.
	Rejected int64 `json:"rejected"`
	// Applied counts offers applied to the index.
	Applied int64 `json:"applied"`
	// Retries counts apply attempts that failed and were retried.
	Retries int64 `json:"retries"`
	// DeadLettered counts records and batch members written to the
	// dead-letter log.
	DeadLettered int64 `json:"dead_lettered"`
	// Queries counts Match/Candidates requests.
	Queries int64 `json:"queries"`
	// Timeouts counts queries that ended with a deadline or
	// cancellation error.
	Timeouts int64 `json:"timeouts"`
	// Layers is the number of delta layers stacked on the view's base
	// adjacency (0 right after a compaction).
	Layers int `json:"layers"`
	// BasePairs is the candidate-pair count of the compacted base
	// adjacency.
	BasePairs int `json:"base_pairs"`
	// DeltaPairs is the candidate-pair count across the stacked delta
	// layers.
	DeltaPairs int `json:"delta_pairs"`
	// LastApplyMicros is the write-path wall time of the most recent
	// applied batch: index add, delta query, publication, and any
	// compaction it triggered.
	LastApplyMicros int64 `json:"last_apply_us"`
	// LastDeltaPairs is the delta pair count of the most recent applied
	// batch.
	LastDeltaPairs int64 `json:"last_delta_pairs"`
	// Compactions counts layer-fold compactions.
	Compactions int64 `json:"compactions"`
	// LastCompactMicros is the wall time of the most recent compaction.
	LastCompactMicros int64 `json:"last_compact_us"`
	// QueueDepth and QueueCap describe the ingest queue right now.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the ingest queue's capacity bound.
	QueueCap int `json:"queue_cap"`
	// Draining is true once shutdown has begun.
	Draining bool `json:"draining"`
	// SnapshotLoaded is true when the index came from a trusted
	// snapshot at startup.
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotFallback is the typed reason a present snapshot was
	// refused at startup ("" when none was present or it loaded).
	SnapshotFallback string `json:"snapshot_fallback,omitempty"`
}

// Stats reports the daemon's current counters.
func (s *Server) Stats() Stats {
	v := s.view.Load()
	st := Stats{
		Epoch:             v.epoch,
		Offers:            len(v.offers),
		Accepted:          s.nAccepted.Load(),
		Rejected:          s.nRejected.Load(),
		Applied:           s.nApplied.Load(),
		Retries:           s.nRetries.Load(),
		DeadLettered:      s.nDeadLettered.Load(),
		Queries:           s.nQueries.Load(),
		Timeouts:          s.nTimeouts.Load(),
		Layers:            len(v.layers),
		BasePairs:         v.base.pairs,
		DeltaPairs:        v.deltaPairs,
		LastApplyMicros:   s.lastApplyUS.Load(),
		LastDeltaPairs:    s.lastDeltaPairs.Load(),
		Compactions:       s.nCompactions.Load(),
		LastCompactMicros: s.lastCompactUS.Load(),
		QueueDepth:        len(s.ingest),
		QueueCap:          s.cfg.QueueCap,
		Draining:          s.draining.Load(),
		SnapshotLoaded:    s.open.Loaded,
	}
	if s.open.LoadErr != nil {
		st.SnapshotFallback = s.open.LoadErr.Error()
	}
	return st
}

// Start launches the ingest pipeline (connector loop and applier).
// Safe to call once; Run calls it for you.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		readCtx, readCancel := context.WithCancel(context.Background())
		abortCtx, abortCancel := context.WithCancel(context.Background())
		s.pipeCancel = readCancel
		s.abortCancel = abortCancel
		s.started.Store(true)
		go s.readerLoop(readCtx)
		go s.applierLoop(abortCtx)
	})
}

// Shutdown drains and stops the daemon: ingest closes immediately
// (Enqueue returns CodeShuttingDown), the connector loop stops, queued
// offers are applied until the queue is empty or ctx ends, and — when
// snapshots are enabled — the grown index is written back atomically so
// the next process loads instead of rebuilding; the served view stays
// as last published. Safe to call more than once; later calls return
// the first call's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.qmu.Lock()
	s.draining.Store(true)
	s.qmu.Unlock()
	if s.started.Load() {
		// Stop the connector loop first: it is the only other queue
		// producer, so afterwards the queue can be closed safely.
		s.pipeCancel()
		<-s.readerDone
		s.qmu.Lock()
		close(s.ingest)
		s.qmu.Unlock()
		select {
		case <-s.applierDone:
		case <-ctx.Done():
			s.logf("drain deadline exceeded with %d offers still queued", len(s.ingest))
			s.abortCancel()
			<-s.applierDone
		}
	}
	v := s.view.Load()
	s.logf("drained at epoch %d with %d offers indexed", v.epoch, len(v.offers))
	return s.saveSnapshot(v)
}

// saveSnapshot writes the grown index back to the snapshot directory
// (a no-op when persistence is off or the blocker does not persist).
func (s *Server) saveSnapshot(v *view) error {
	idxs := make([]int, len(v.offers))
	for i := range idxs {
		idxs[i] = i
	}
	path, err := blocking.SaveIndex(s.cfg.Blocker, s.ix, v.offers, idxs, s.cfg.Index)
	if err != nil {
		return fmt.Errorf("serve: shutdown snapshot: %w", err)
	}
	if path != "" {
		s.logf("snapshot saved to %s", path)
	}
	return nil
}
