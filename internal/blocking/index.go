// The reusable-index layer: every sublinear blocker is a thin adapter over
// an Index that is built once per offer corpus and queried per split.
//
// The §6 study evaluates each blocker on many splits (three corner-case
// ratios times three unseen fractions, times seeds), and before this layer
// existed each Candidates call re-interned the titles and rebuilt the whole
// index — the dominant cost at paper scale. An Index separates the two
// phases: Build pays interning, encoding and index construction exactly
// once, Add extends the index incrementally as new offers stream in, and
// Candidates answers any number of split queries against the frozen
// structure. Collision and neighbour structure is a property of the indexed
// corpus: querying a subset restricts the pair set to offers inside it
// without recomputing anything, and querying the full build universe
// reproduces the rebuild-per-call candidate set byte for byte (property-
// tested in index_test.go, pinned by the golden fixtures).

package blocking

import (
	"fmt"
	"sync"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/simlib"
)

// Index is a blocking index built once over an offer corpus and queried
// per split. Implementations are safe for fully concurrent use: any
// number of Candidates calls may run at once, and Adds may land while
// queries are in flight. Every index guards its mutable state with a
// reader/writer scheme — Candidates holds a shared (read) lock, Add an
// exclusive one — so a query observes either the state before or after
// a concurrent Add, never a half-applied one. Queries stay lock-cheap:
// readers only contend when a writer is actually landing.
type Index interface {
	// Name identifies the blocking strategy (matches the blocker's Name).
	Name() string
	// Len returns the number of indexed offers.
	Len() int
	// Add indexes further offers incrementally. Offers already indexed are
	// ignored, so Add(union) and Add of each piece agree.
	Add(offers []schemaorg.Offer, idxs []int)
	// Candidates returns the candidate pairs among the given offer indices,
	// every one of which must be indexed. Neighbour and collision structure
	// is computed over the full indexed corpus; the query only restricts
	// which pairs are reported.
	Candidates(queryIdxs []int) []CandidatePair
}

// IndexedBlocker is a Blocker whose index can be split from its queries:
// BuildIndex returns a fresh reusable Index over the given offers, and
// Candidates remains the one-shot convenience path (it builds an index
// over the offers and queries it once).
type IndexedBlocker interface {
	Blocker
	BuildIndex(offers []schemaorg.Offer, idxs []int) Index
}

// UnindexedQueryError reports a Candidates query containing an offer index
// that was never indexed. Inside the package it travels as a panic — a
// query outside the indexed universe is an invariant violation on the
// internal paths, which always query what they built — and QueryCandidates
// converts it to a returned error for callers (the wdcproducts facade and
// the CLIs) whose query sets come from user input.
type UnindexedQueryError struct {
	// Offer is the first offending offer index of the query.
	Offer int
}

// Error implements error.
func (e *UnindexedQueryError) Error() string {
	return fmt.Sprintf("blocking: Candidates query includes offer %d, which was never indexed", e.Offer)
}

// QueryCandidates runs ix.Candidates(queryIdxs) and converts the
// unindexed-offer invariant panic into a returned *UnindexedQueryError.
// Any other panic propagates unchanged.
func QueryCandidates(ix Index, queryIdxs []int) (cands []CandidatePair, err error) {
	defer recoverUnindexed(&err)
	return ix.Candidates(queryIdxs), nil
}

// recoverUnindexed, deferred by the Query* wrappers, stores a recovered
// *UnindexedQueryError panic in *err and re-panics with anything else.
// The wrappers' candidate result stays nil: the panic interrupted their
// return.
func recoverUnindexed(err *error) {
	if r := recover(); r != nil {
		qe, ok := r.(*UnindexedQueryError)
		if !ok {
			panic(r)
		}
		*err = qe
	}
}

// indexedCorpus is the title bookkeeping shared by every Index: each
// distinct offer title held once (in first-seen order, which defines the
// title ids), plus the offer groups carrying each title. The tokenized
// form of the corpus — a simlib.Prepared — is materialized lazily on
// first use: build paths need tokens immediately, but an index restored
// from a snapshot already carries its derived state (signatures or
// vectors) and should not pay tokenization until a post-load Add actually
// needs it.
type indexedCorpus struct {
	titles  []string       // title id -> title, in interning order
	idOf    map[string]int // title -> title id
	order   []int          // indexed offer idxs, in first-indexed order
	groups  [][]int        // title id -> indexed offer idxs carrying it
	titleOf map[int]int    // offer idx -> title id

	prepOnce sync.Once
	prepped  *simlib.Prepared
}

func newIndexedCorpus() *indexedCorpus {
	return &indexedCorpus{idOf: map[string]int{}, titleOf: map[int]int{}}
}

// add records the offers at idxs (skipping already-indexed offers) and
// returns the ids of titles seen for the first time, in interning order —
// the engines index exactly those.
func (c *indexedCorpus) add(offers []schemaorg.Offer, idxs []int) []int {
	if len(c.titleOf) == 0 && len(idxs) > 0 {
		// First add: size the maps for the whole batch up front — the
		// snapshot load path rebuilds the corpus in one add, and
		// incremental map growth is a measurable slice of a cold load.
		c.idOf = make(map[string]int, len(idxs))
		c.titleOf = make(map[int]int, len(idxs))
	}
	var newTitles []int
	for _, i := range idxs {
		if _, dup := c.titleOf[i]; dup {
			continue
		}
		title := offers[i].Title
		tid, ok := c.idOf[title]
		if !ok {
			tid = len(c.titles)
			c.idOf[title] = tid
			c.titles = append(c.titles, title)
			c.groups = append(c.groups, nil)
			if c.prepped != nil {
				// Keep the materialized prepared corpus aligned with the
				// title ids: interning in title order reproduces them.
				c.prepped.Intern(title)
			}
			newTitles = append(newTitles, tid)
		}
		c.titleOf[i] = tid
		c.order = append(c.order, i)
		c.groups[tid] = append(c.groups[tid], i)
	}
	return newTitles
}

// prep returns the tokenized corpus, materializing it on first use.
// Token and title ids depend only on interning order, so interning the
// titles in id order yields exactly the Prepared an eager build would
// have produced. Safe for concurrent use between Adds.
func (c *indexedCorpus) prep() *simlib.Prepared {
	c.prepOnce.Do(func() {
		p := simlib.NewPrepared()
		for _, t := range c.titles {
			p.Intern(t)
		}
		c.prepped = p
	})
	return c.prepped
}

// len returns the number of indexed offers.
func (c *indexedCorpus) len() int { return len(c.titleOf) }

// titleCount returns the number of distinct indexed titles.
func (c *indexedCorpus) titleCount() int { return len(c.titles) }

// fingerprint hashes the indexed offer universe — insertion order and
// title bytes — together with the given config words, yielding the same
// value corpusFingerprint produces for the (offers, idxs) sequence this
// corpus was fed (idxs are duplicate-free on every build path). It is the
// content address a snapshot is stamped with.
func (c *indexedCorpus) fingerprint(cfgWords ...uint64) uint64 {
	h := newFPHash()
	for _, w := range cfgWords {
		h.word(w)
	}
	h.word(uint64(len(c.order)))
	for _, i := range c.order {
		h.word(uint64(i))
		h.str(c.titles[c.titleOf[i]])
	}
	return uint64(h)
}

// indexBase is the state MinHashIndex and KNNIndex share: the indexed
// corpus, the engine name, the worker budget and the configuration words
// of the snapshot address. mu guards the base and the engine of the index
// that embeds it: Add holds it for writing, Candidates for reading.
type indexBase struct {
	mu       sync.RWMutex // Add writes, Candidates reads
	name     string
	corpus   *indexedCorpus
	workers  int
	cfgWords []uint64
}

// init indexes the offers at idxs.
func (b *indexBase) init(name string, offers []schemaorg.Offer, idxs []int, workers int, cfgWords []uint64) {
	b.name = name
	b.corpus = newIndexedCorpus()
	b.workers = workers
	b.cfgWords = cfgWords
	b.corpus.add(offers, idxs)
}

// Name implements Index.
func (b *indexBase) Name() string { return b.name }

// Len implements Index.
func (b *indexBase) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.corpus.len()
}

// queryView is a split query resolved against an indexed corpus: the
// distinct title ids the split touches (slots in first-appearance order)
// and, per slot, the split's offers carrying that title. For a query over
// the full build universe in build order, slots coincide with title ids and
// the groups equal the corpus groups — which is what makes full-universe
// queries byte-identical to the legacy rebuild-per-call path.
type queryView struct {
	titles []int       // slot -> title id
	slotOf map[int]int // title id -> slot
	groups [][]int     // slot -> query offer idxs carrying the title
}

// view resolves queryIdxs; it panics with an *UnindexedQueryError if an
// offer was never indexed, since silently dropping it would under-report
// candidates. Callers that cannot guarantee the invariant convert the
// panic to an error through QueryCandidates.
func (c *indexedCorpus) view(queryIdxs []int) *queryView {
	v := &queryView{slotOf: make(map[int]int, len(queryIdxs))}
	for _, i := range queryIdxs {
		tid, ok := c.titleOf[i]
		if !ok {
			panic(&UnindexedQueryError{Offer: i})
		}
		slot, ok := v.slotOf[tid]
		if !ok {
			slot = len(v.titles)
			v.slotOf[tid] = slot
			v.titles = append(v.titles, tid)
			v.groups = append(v.groups, nil)
		}
		v.groups[slot] = append(v.groups[slot], i)
	}
	return v
}

// knnCandidates implements the split-query semantics of the title-level
// kNN index (KNNIndex): every query title consumes its
// K-neighbour budget from its ranked neighbour list (computed over the
// full indexed corpus, own title included), pairs whose partner falls
// outside the query are dropped rather than refilled, and identical-title
// offers inside the query are always paired. neighbourIDs(tid) must be
// idempotent and safe for concurrent calls — the first pass materializes
// the lists across the worker pool.
func (c *indexedCorpus) knnCandidates(queryIdxs []int, k, workers int, neighbourIDs func(tid int) []int32) []CandidatePair {
	v := c.view(queryIdxs)
	parallel.Run(len(v.titles), workers, func(s int) error {
		neighbourIDs(v.titles[s])
		return nil
	}, nil)
	var titlePairs [][2]int
	for s, tid := range v.titles {
		taken := 0
		for _, rid := range neighbourIDs(tid) {
			if int(rid) == tid {
				continue
			}
			if taken == k {
				break
			}
			taken++
			if ns, ok := v.slotOf[int(rid)]; ok {
				titlePairs = append(titlePairs, [2]int{s, ns})
			}
		}
	}
	return expandTitlePairs(v.groups, titlePairs)
}

// fpHash accumulates a word-wide FNV-1a variant fingerprint: fixed words
// fold in 8 bytes per multiply instead of one. Fingerprints sit on the
// snapshot open path (every OpenIndex hashes every title, twice — once
// for the file name, once for the envelope check), where the byte-wise
// hash/fnv loop was a measurable slice of the cold-load budget.
type fpHash uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// newFPHash returns the FNV-1a offset basis.
func newFPHash() fpHash { return fnvOffset64 }

// word folds one 64-bit word into the hash.
func (h *fpHash) word(w uint64) { *h = fpHash((uint64(*h) ^ w) * fnvPrime64) }

// str folds a string eight bytes at a time (little-endian words, a
// zero-padded tail) followed by its length, so adjacent fields cannot
// collide by shifting bytes across their boundary.
func (h *fpHash) str(s string) {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		h.word(uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56)
	}
	var tail uint64
	for shift := 0; i < len(s); i, shift = i+1, shift+8 {
		tail |= uint64(s[i]) << shift
	}
	h.word(tail)
	h.word(uint64(len(s)))
}

// corpusFingerprint hashes the offer universe a blocker was asked to block
// — the idxs and their title bytes — together with the configuration words
// that shape index contents: the content address OpenIndex looks a
// snapshot up by. Equal fingerprints mean identical index contents; worker
// counts are deliberately excluded because they never change blocker
// output.
func corpusFingerprint(offers []schemaorg.Offer, idxs []int, cfgWords ...uint64) uint64 {
	h := newFPHash()
	for _, w := range cfgWords {
		h.word(w)
	}
	h.word(uint64(len(idxs)))
	for _, i := range idxs {
		h.word(uint64(i))
		h.str(offers[i].Title)
	}
	return uint64(h)
}
