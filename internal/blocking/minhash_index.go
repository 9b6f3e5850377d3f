// MinHashIndex: the banded MinHash-LSH index, one lsh.Index over the
// distinct titles of the indexed corpus. Its delta path lives in
// delta.go and its snapshot code in snapshot.go.

package blocking

import (
	"slices"

	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
)

// MinHashIndex is the banded MinHash-LSH index MinHashBlocker builds. It
// honours the full Index contract — grown indexes equal fresh builds,
// queries only restrict the reported pairs, Add and Candidates are safe
// to interleave from any number of goroutines — and implements
// DeltaIndex.
type MinHashIndex struct {
	indexBase
	cfg lsh.Config
	ix  *lsh.Index
}

// newIndex indexes the corpus of a MinHash index whose engine the caller
// (BuildIndex or loadSnapshot) fills in.
func (m *MinHashBlocker) newIndex(offers []schemaorg.Offer, idxs []int) *MinHashIndex {
	x := &MinHashIndex{cfg: m.Config}
	x.init(m.Name(), offers, idxs, m.Config.Workers, m.words())
	return x
}

// words returns the configuration words of the MinHash index content
// address.
func (m *MinHashBlocker) words() []uint64 {
	return []uint64{uint64(m.Config.Bands), uint64(m.Config.Rows), uint64(m.Seed)}
}

// Add implements Index: new distinct titles are signed into the index
// incrementally in interning order, so a grown index is identical to a
// fresh build over the union.
func (m *MinHashIndex) Add(offers []schemaorg.Offer, idxs []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tid := range m.corpus.add(offers, idxs) {
		m.ix.Add(m.corpus.prep().TokenSet(tid))
	}
}

// Candidates implements Index: titles of the query offers that share at
// least one band bucket are expanded to offer pairs, plus the clique of
// every identical-title group inside the query. One sweep over the
// buckets, restricted to the query's titles, finds them: a band
// collision is a pairwise property, so the restriction is exact within
// one index. Across indexes it is not: signatures hash token ids, which
// simlib.Prepared numbers in first-seen order of the indexed universe,
// so the same two titles can collide in an index over one universe and
// not in an index over another.
//
// The query resolves under one read lock, then takes the read lock once
// per band (lsh.Index.AppendBandPairs), so a pending Add waits for at
// most one band of the sweep, not all of it. The answer is still the one
// at the query's start: its titles are fixed when it resolves, the
// filter admits only titles below the count n seen then, and Add only
// appends titles >= n to bucket member lists, so every band yields the
// same pairs before and after any Add that lands between bands. The
// title pairs are sorted and deduplicated once (lsh.SortPairKeys) and
// rewritten in place as query-slot pairs.
func (m *MinHashIndex) Candidates(queryIdxs []int) []CandidatePair {
	v, slot := m.resolve(queryIdxs)
	n := len(slot)
	include := func(t int) bool { return t < n && slot[t] > 0 }
	var keys []uint64
	bands := m.ix.Config().Bands
	for band := range bands {
		m.mu.RLock()
		keys = m.ix.AppendBandPairs(keys, band, include)
		m.mu.RUnlock()
		if band == 0 {
			// Every band hashes the same titles with hash functions of
			// one family, so the first band's pair count sizes the rest:
			// growing a million keys by doubling would copy them over
			// and over.
			keys = slices.Grow(keys, (bands-1)*len(keys))
		}
	}
	keys = lsh.SortPairKeys(keys, true, m.workers)
	for i, k := range keys {
		keys[i] = uint64(slot[k>>32]-1)<<32 | uint64(slot[uint32(k)]-1)
	}
	return expandTitlePairs(v.groups, keys, m.workers)
}

// resolve resolves a query under the read lock: its view, and slot[t],
// title t's query slot plus one (0: not queried) for each of the n titles
// indexed now — O(titles), like the sweep itself, and no map lookup per
// member or endpoint. The deferred unlock releases the lock when view
// panics with an *UnindexedQueryError.
func (m *MinHashIndex) resolve(queryIdxs []int) (*queryView, []int32) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v := m.corpus.view(queryIdxs)
	slot := make([]int32, m.ix.Len())
	for s, tid := range v.titles {
		slot[tid] = int32(s) + 1
	}
	return v, slot
}
