// Package blocking implements the blocking extension discussed in §6 of
// the paper: the corpus behind WDC Products is "well-suited as starting
// point for building blocking benchmarks" (SC-Block is derived from it).
// This package provides two standard blockers over benchmark offers — token
// blocking and embedding nearest-neighbour blocking — together with the
// standard blocking quality metrics, pair completeness (recall of true
// matches) and reduction ratio (fraction of the quadratic pair space
// pruned).
package blocking

import (
	"sort"

	"wdcproducts/internal/embed"
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
// repeated tokens cost nothing beyond their first sighting.
func (t *TokenBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	prep := simlib.NewPrepared()
	inv := map[int32][]int{}
	for _, i := range idxs {
		for _, tok := range prep.TokenSet(prep.Intern(offers[i].Title)) {
			inv[tok] = append(inv[tok], i)
		}
	}
	shared := map[CandidatePair]int{}
	for _, members := range inv {
		if len(members) > t.MaxTokenFreq {
			continue
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				shared[orderedPair(members[x], members[y])]++
			}
		}
	}
	var out []CandidatePair
	for p, n := range shared {
		if n >= t.MinShared {
			out = append(out, p)
		}
	}
	sortPairs(out)
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

// BuildIndex implements IndexedBlocker.
func (e *EmbeddingBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	return BuildEmbeddingIndex(offers, idxs, e.Model, e.K, e.Workers)
}

// Candidates implements Blocker through a one-shot index. Titles are
// interned so each distinct title is tokenized and encoded exactly once,
// and the per-offer neighbour search keeps a bounded top-K heap instead of
// sorting the full scored list — O(n log K) per offer instead of
// O(n log n).
func (e *EmbeddingBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return e.BuildIndex(offers, idxs).Candidates(idxs)
}

// scoredPos is one neighbour candidate of the embedding blocker.
type scoredPos struct {
	pos int
	sim float64
}

// topKHeap keeps the K best neighbours by (similarity descending, position
// ascending), with the worst of the kept elements at the root so it can be
// evicted in O(log K). The kept set is exactly the first K elements of the
// full descending sort, so swapping the sort for the heap cannot change
// blocker output.
type topKHeap []scoredPos

// worse reports whether x ranks strictly below y.
func worse(x, y scoredPos) bool {
	if x.sim != y.sim {
		return x.sim < y.sim
	}
	return x.pos > y.pos
}

// offer inserts c if the heap holds fewer than k elements or c beats the
// current worst element.
func (h *topKHeap) offer(c scoredPos, k int) {
	if k <= 0 {
		return
	}
	if len(*h) < k {
		*h = append(*h, c)
		// Sift up.
		i := len(*h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse((*h)[i], (*h)[parent]) {
				break
			}
			(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
			i = parent
		}
		return
	}
	if !worse((*h)[0], c) {
		return
	}
	(*h)[0] = c
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(*h) && worse((*h)[l], (*h)[min]) {
			min = l
		}
		if r < len(*h) && worse((*h)[r], (*h)[min]) {
			min = r
		}
		if min == i {
			return
		}
		(*h)[i], (*h)[min] = (*h)[min], (*h)[i]
		i = min
	}
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

// Evaluate scores a candidate set against ground-truth matches. The truth
// function reports whether two offer indices refer to the same product.
func Evaluate(cands []CandidatePair, idxs []int, truth func(a, b int) bool) Metrics {
	m := Metrics{Candidates: len(cands)}
	candSet := make(map[CandidatePair]bool, len(cands))
	for _, p := range cands {
		candSet[p] = true
	}
	for x := 0; x < len(idxs); x++ {
		for y := x + 1; y < len(idxs); y++ {
			if truth(idxs[x], idxs[y]) {
				m.TrueMatches++
				if candSet[orderedPair(idxs[x], idxs[y])] {
					m.CoveredMatches++
				}
			}
		}
	}
	if m.TrueMatches > 0 {
		m.PairCompleteness = float64(m.CoveredMatches) / float64(m.TrueMatches)
	}
	total := len(idxs) * (len(idxs) - 1) / 2
	if total > 0 {
		m.ReductionRatio = 1 - float64(len(cands))/float64(total)
	}
	return m
}

func sortPairs(ps []CandidatePair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}
