// MinHashIndex: the banded MinHash-LSH index, one lsh.Index over the
// distinct titles of the indexed corpus. Its delta path lives in
// delta.go and its snapshot code in snapshot.go.

package blocking

import (
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
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

// newMinHashIndex indexes the corpus of a MinHash index whose engine the
// caller fills in.
func newMinHashIndex(offers []schemaorg.Offer, idxs []int, cfg lsh.Config, seed int64) *MinHashIndex {
	m := &MinHashIndex{cfg: cfg}
	m.init("minhash-lsh", offers, idxs, cfg.Workers, minhashWords(cfg, seed))
	return m
}

// BuildMinHashIndex interns the titles of the offers at idxs and builds
// the banded LSH index over their distinct token sets. Signature
// computation fans out across cfg.Workers; the index contents are
// identical at any worker count for a fixed seed.
func BuildMinHashIndex(offers []schemaorg.Offer, idxs []int, cfg lsh.Config, seed int64) *MinHashIndex {
	m := newMinHashIndex(offers, idxs, cfg, seed)
	prep := m.corpus.prep()
	sets := make([][]int32, m.corpus.titleCount())
	for t := range sets {
		sets[t] = prep.TokenSet(t)
	}
	m.ix = lsh.NewIndex(cfg, xrand.New(seed).Stream("minhash-lsh"))
	m.ix.Build(sets)
	return m
}

// minhashWords returns the configuration words of a MinHash index's
// content address.
func minhashWords(cfg lsh.Config, seed int64) []uint64 {
	return []uint64{uint64(cfg.Bands), uint64(cfg.Rows), uint64(seed)}
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
// collision is a pairwise property, so the restriction is exact.
func (m *MinHashIndex) Candidates(queryIdxs []int) []CandidatePair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v := m.corpus.view(queryIdxs)
	// slot[t] is title t's query slot plus one (0: not queried): O(titles),
	// like the sweep itself, and no map lookup per member or endpoint.
	slot := make([]int32, m.ix.Len())
	for s, tid := range v.titles {
		slot[tid] = int32(s) + 1
	}
	titlePairs := m.ix.CandidatePairsAmong(func(t int) bool { return slot[t] > 0 })
	slotPairs := make([][2]int, len(titlePairs))
	for i, tp := range titlePairs {
		slotPairs[i] = [2]int{int(slot[tp[0]]) - 1, int(slot[tp[1]]) - 1}
	}
	return expandTitlePairs(v.groups, slotPairs)
}
