// Package blocking implements the blocking extension discussed in §6 of
// the paper: the corpus behind WDC Products is "well-suited as starting
// point for building blocking benchmarks" (SC-Block is derived from it).
// This package provides five blockers over benchmark offers — exhaustive
// token blocking and embedding nearest-neighbour blocking, and the
// sublinear MinHash-LSH, HNSW and IVF blockers — together with the
// standard blocking quality metrics, pair completeness (recall of true
// matches) and reduction ratio (fraction of the quadratic pair space
// pruned), computed by EvaluateClusters.
package blocking

import (
	"wdcproducts/internal/embed"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/simlib"
)

// CandidatePair is an unordered offer-index pair proposed by a blocker.
type CandidatePair struct {
	A, B int
}

func orderedPair(a, b int) CandidatePair {
	if a > b {
		a, b = b, a
	}
	return CandidatePair{A: a, B: b}
}

// Blocker proposes candidate pairs from a set of offers.
type Blocker interface {
	Name() string
	// Candidates returns the proposed pairs for the offers at the given
	// indices.
	Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair
}

// TokenBlocker proposes every pair of offers sharing at least MinShared
// title tokens, skipping tokens more frequent than MaxTokenFreq (stop-word
// guard: frequent tokens generate quadratic blowup without signal).
type TokenBlocker struct {
	MinShared    int
	MaxTokenFreq int
}

// NewTokenBlocker returns the standard configuration.
func NewTokenBlocker() *TokenBlocker { return &TokenBlocker{MinShared: 2, MaxTokenFreq: 50} }

// Name implements Blocker.
func (t *TokenBlocker) Name() string { return "token-blocking" }

// Candidates implements Blocker. Titles are interned once into a prepared
// corpus and the inverted index runs on token IDs, so repeated titles and
// repeated tokens cost nothing beyond their first sighting. The pair keys
// are sorted by lsh.SortPairKeys on every core.
func (t *TokenBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	prep := simlib.NewPrepared()
	inv := map[int32][]int{}
	for _, i := range idxs {
		for _, tok := range prep.TokenSet(prep.Intern(offers[i].Title)) {
			inv[tok] = append(inv[tok], i)
		}
	}
	// One key per (pair, shared token): after sorting, a pair's run
	// length is the number of title tokens it shares.
	var keys []uint64
	for _, members := range inv {
		if len(members) > t.MaxTokenFreq {
			continue
		}
		for x, a := range members {
			for _, b := range members[x+1:] {
				keys = append(keys, pairKey(a, b))
			}
		}
	}
	keys = lsh.SortPairKeys(keys, false, 0)
	var out []CandidatePair
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		for hi = lo + 1; hi < len(keys) && keys[hi] == keys[lo]; hi++ {
		}
		if hi-lo >= t.MinShared {
			out = append(out, unpackPair(keys[lo]))
		}
	}
	return out
}

// EmbeddingBlocker proposes, for each offer, its K nearest neighbours in
// the title embedding space.
type EmbeddingBlocker struct {
	Model *embed.Model
	K     int
	// Workers bounds the goroutines encoding titles and materializing
	// neighbour lists (<= 0 selects all cores; results are identical at any
	// value).
	Workers int
}

// NewEmbeddingBlocker wraps a trained embedding model.
func NewEmbeddingBlocker(model *embed.Model, k int) *EmbeddingBlocker {
	return &EmbeddingBlocker{Model: model, K: k}
}

// Name implements Blocker.
func (e *EmbeddingBlocker) Name() string { return "embedding-knn" }

// BuildIndex implements IndexedBlocker with an EmbeddingIndex over the
// offers at idxs, in order; each distinct title is encoded once.
func (e *EmbeddingBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	x := &EmbeddingIndex{model: e.Model, k: e.K, slotOf: make(map[int]int, len(idxs))}
	x.init(e.Name(), offers, idxs, e.Workers, []uint64{uint64(e.K), modelFingerprint(e.Model)})
	x.grow(0, 0)
	return x
}

// Candidates implements Blocker through a one-shot index. Titles are
// interned so each distinct title is tokenized and encoded exactly once,
// and the per-offer neighbour search keeps a bounded top-K (vector.TopK)
// instead of sorting the full scored list — O(n log K) per offer instead
// of O(n log n).
func (e *EmbeddingBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return e.BuildIndex(offers, idxs).Candidates(idxs)
}

// Metrics are the standard blocking quality measures.
type Metrics struct {
	// PairCompleteness is the fraction of true matches covered by the
	// candidate set (recall).
	PairCompleteness float64
	// ReductionRatio is 1 - |candidates| / |all pairs|.
	ReductionRatio float64
	Candidates     int
	TrueMatches    int
	CoveredMatches int
}

// pairKey packs an unordered offer-index pair into one sortable word,
// lower index in the high half, so sorting keys orders pairs
// lexicographically and equal pairs become adjacent.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// unpackPair is the inverse of pairKey.
func unpackPair(k uint64) CandidatePair { return CandidatePair{A: int(k >> 32), B: int(uint32(k))} }

// unpackPairs sorts and deduplicates pair keys (lsh.SortPairKeys, across
// at most workers goroutines) and unpacks them: the one way every
// candidate set in this package is assembled.
func unpackPairs(keys []uint64, workers int) []CandidatePair {
	keys = lsh.SortPairKeys(keys, true, workers)
	out := make([]CandidatePair, len(keys))
	for i, k := range keys {
		out[i] = unpackPair(k)
	}
	return out
}
