// MinHashIndex: the unsharded MinHash-LSH index is the single-shard
// ShardedMinHashIndex — one build, Add, delta path and snapshot format —
// with a bucket-sweep Candidates in place of the band-key grouping.

package blocking

import (
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
)

// MinHashIndex is the banded MinHash-LSH index MinHashBlocker builds: a
// ShardedMinHashIndex over one shard whose Candidates sweeps the shard's
// buckets. Add and Candidates are safe to interleave from any number of
// goroutines (see the Index contract).
type MinHashIndex struct{ *ShardedMinHashIndex }

// BuildMinHashIndex interns the titles of the offers at idxs and builds
// the banded LSH index over their distinct token sets. Signature
// computation fans out across cfg.Workers; the index contents are
// identical at any worker count for a fixed seed.
func BuildMinHashIndex(offers []schemaorg.Offer, idxs []int, cfg lsh.Config, seed int64) *MinHashIndex {
	return &MinHashIndex{BuildShardedMinHashIndex(offers, idxs, 1, cfg, seed)}
}

// minhashWords returns the configuration words of a MinHash index's
// content address.
func minhashWords(cfg lsh.Config, seed int64) []uint64 {
	return []uint64{uint64(cfg.Bands), uint64(cfg.Rows), uint64(seed)}
}

// Candidates implements Index: titles of the query offers that share at
// least one band bucket are expanded to offer pairs, plus the clique of
// every identical-title group inside the query. One sweep over the
// shard's buckets, restricted to the query's titles, finds them: a band
// collision is a pairwise property, so the restriction is exact, and at
// one shard local ids are title ids. Repeated queries of the same split
// are served from the query memo.
func (m *MinHashIndex) Candidates(queryIdxs []int) []CandidatePair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.memoQ.get(queryIdxs, func() []CandidatePair {
		v := m.corpus.view(queryIdxs)
		include := func(t int) bool { _, ok := v.slotOf[t]; return ok }
		titlePairs := m.ix[0].CandidatePairsAmong(include)
		slotPairs := make([][2]int, len(titlePairs))
		for i, tp := range titlePairs {
			slotPairs[i] = [2]int{v.slotOf[tp[0]], v.slotOf[tp[1]]}
		}
		return expandTitlePairs(v.groups, slotPairs)
	})
}
