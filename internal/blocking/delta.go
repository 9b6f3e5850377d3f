// The delta-candidates contract: the incremental complement of the
// subset-query path. A full Candidates query over the indexed universe
// costs O(corpus) even when only a handful of offers just landed; the
// serving daemon applies small batches continuously, so its write path
// needs exactly the pairs a batch introduced, at a cost tracking the
// batch. DeltaCandidates is that query.
//
// A delta is only a complete account of a batch when adjacency is
// monotone under Add: then the pairs before the batch all survive it,
// and old pairs plus the delta equal the full adjacency after it.
// MinHash adjacency is monotone — a band collision is a pairwise
// property of two fixed signatures, so new titles never change old
// edges — which admits a truly sublinear delta: look up each batch
// title's band buckets and expand only the incident edges. The kNN
// indexes (KNNIndex, EmbeddingIndex) are not monotone: a new title can
// evict an old partner from someone's top-K budget, a removal no list of
// added pairs can express. They do not implement DeltaIndex: a caller
// must fall back to a full query, and the serving daemon refuses them.

package blocking

import (
	"errors"
	"slices"
)

// DeltaIndex is an Index whose adjacency is monotone under Add and that
// can report the candidate pairs a batch of newly applied offers
// introduced, without the caller re-querying the whole corpus. In this
// package MinHashIndex implements it.
type DeltaIndex interface {
	Index
	// DeltaCandidates returns exactly the candidate pairs with at least
	// one endpoint among newIdxs — Candidates over the full indexed
	// universe, restricted to pairs touching the batch — sorted
	// lexicographically and deduplicated. Every offer in newIdxs must
	// already be indexed (by the Add that applied the batch); an
	// unindexed offer panics with *UnindexedQueryError, which
	// QueryDeltaCandidates converts to an error.
	DeltaCandidates(newIdxs []int) []CandidatePair
}

// ErrNoDelta reports that an Index does not implement DeltaIndex;
// callers fall back to a full Candidates query.
var ErrNoDelta = errors.New("blocking: index does not support delta-candidates queries")

// QueryDeltaCandidates runs ix.DeltaCandidates(newIdxs), converting the
// unindexed-offer invariant panic into a returned *UnindexedQueryError
// (any other panic propagates unchanged). An index without a delta path
// returns ErrNoDelta.
func QueryDeltaCandidates(ix Index, newIdxs []int) (cands []CandidatePair, err error) {
	di, ok := ix.(DeltaIndex)
	if !ok {
		return nil, ErrNoDelta
	}
	defer recoverUnindexed(&err)
	return di.DeltaCandidates(newIdxs), nil
}

// expandDelta turns title-level adjacency incident to a batch of newly
// applied offers into exactly the offer pairs with at least one endpoint
// in the batch: each batch offer's identical-title clique pairs, plus,
// per incident title edge, the batch offers on the near side crossed
// with the full offer group on the far side. mates(tid) must return
// every title that pairs with tid over the whole indexed corpus (self
// entries are ignored); edges between two batch titles are discovered
// from both sides and deduplicated here. The first batch offer that was
// never indexed panics with *UnindexedQueryError; repeated batch entries
// are harmless. The pairs are sorted across at most workers goroutines.
func (c *indexedCorpus) expandDelta(batch []int, mates func(tid int) []int, workers int) []CandidatePair {
	near := map[int][]int{} // batch title id -> batch offers carrying it
	for _, i := range batch {
		tid, ok := c.titleOf[i]
		if !ok {
			panic(&UnindexedQueryError{Offer: i})
		}
		near[tid] = append(near[tid], i)
	}
	var keys []uint64
	for _, i := range batch {
		for _, j := range c.groups[c.titleOf[i]] {
			if j != i {
				keys = append(keys, pairKey(i, j))
			}
		}
	}
	for tid, batchOffers := range near {
		for _, u := range mates(tid) {
			if u == tid {
				continue
			}
			for _, a := range batchOffers {
				for _, b := range c.groups[u] {
					keys = append(keys, pairKey(a, b))
				}
			}
		}
	}
	return unpackPairs(keys, workers)
}

// DeltaCandidates implements DeltaIndex on the sublinear MinHash path:
// each batch title's band buckets name every title it collides with —
// collisions are pairwise properties of fixed signatures, so old edges
// never change under Add — and only those incident edges are expanded.
// Cost tracks the batch and its collisions, not the corpus.
func (m *MinHashIndex) DeltaCandidates(newIdxs []int) []CandidatePair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.corpus.expandDelta(newIdxs, m.minhashMates, m.workers)
}

// minhashMates returns every title sharing at least one band bucket with
// tid (tid itself included), ascending.
func (m *MinHashIndex) minhashMates(tid int) []int {
	var out []int
	for band := 0; band < m.cfg.Bands; band++ {
		for _, member := range m.ix.Bucket(band, m.ix.BandKey(tid, band)) {
			out = append(out, int(member))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
