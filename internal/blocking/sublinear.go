// Sublinear candidate generation: the MinHash-LSH and HNSW blockers.
//
// Both follow the same shape: intern the offers' titles into a
// simlib.Prepared corpus (so duplicate titles are represented once), run a
// sublinear index over the distinct titles — banded MinHash over token
// sets for MinHashBlocker, an HNSW graph over embedding vectors for
// HNSWBlocker — and expand the resulting title pairs back to offer pairs.
// Offers sharing an identical title are always paired with each other: an
// exact duplicate is the strongest possible candidate and must never be
// lost to indexing approximation.
//
// Since the reusable-index layer (index.go) the blockers are thin
// adapters: BuildIndex hands out a fresh index for callers that manage
// reuse themselves (the §6 build-once/query-per-split study), and
// Candidates builds one over the offers and queries it once.

package blocking

import (
	"wdcproducts/internal/embed"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
)

// expandTitlePairs converts title-level candidate pairs, packed s<<32|t
// over group slots s and t in either order, into offer-level candidate
// pairs: the cross product of the two title groups for each proposed
// title pair, plus the full clique inside every title group (identical
// titles are always candidates). The result is sorted and deduplicated
// across at most workers goroutines.
func expandTitlePairs(groups [][]int, titlePairs []uint64, workers int) []CandidatePair {
	// Size the offer keys up front: the full query expands to about a
	// million of them, and growing the slice would copy them repeatedly.
	n := 0
	for _, members := range groups {
		n += len(members) * (len(members) - 1) / 2
	}
	for _, tp := range titlePairs {
		n += len(groups[tp>>32]) * len(groups[uint32(tp)])
	}
	keys := make([]uint64, 0, n)
	for _, members := range groups {
		for x, a := range members {
			for _, b := range members[x+1:] {
				keys = append(keys, pairKey(a, b))
			}
		}
	}
	for _, tp := range titlePairs {
		for _, a := range groups[tp>>32] {
			for _, b := range groups[uint32(tp)] {
				keys = append(keys, pairKey(a, b))
			}
		}
	}
	return unpackPairs(keys, workers)
}

// MinHashConfig sizes the MinHash-LSH blocker: Bands x Rows shape the
// banded index (a candidate threshold of roughly (1/Bands)^(1/Rows)
// Jaccard) and Workers bounds the worker pool that computes signatures,
// fills the band buckets and sorts the pair keys of a large query.
type MinHashConfig = lsh.Config

// MinHashBlocker proposes pairs of offers whose title token sets collide
// in at least one band of a MinHash-LSH index — an approximation of "token
// Jaccard above the banding threshold" that never enumerates the quadratic
// pair space. Candidate sets are deterministic for a fixed Seed.
type MinHashBlocker struct {
	// Config sizes the LSH index (bands x rows and the construction
	// worker pool).
	Config MinHashConfig
	// Seed roots the xrand stream the hash family is drawn from.
	Seed int64
}

// NewMinHashBlocker returns the standard blocking configuration: 48 bands
// of 2 rows (candidate threshold ~ Jaccard 0.14), seed 1. The threshold is
// deliberately far below lsh.DefaultConfig's near-duplicate setting: the
// benchmark's corner-case positives are hard matches with little token
// overlap, and the low threshold is what keeps pair completeness near 100%
// while still pruning the bulk of the pair space. Past tens of thousands
// of near-duplicate offers 48x2 goes quadratic; set Config to 16 bands of
// 4 rows (threshold ~ Jaccard 0.5) there.
func NewMinHashBlocker() *MinHashBlocker {
	return &MinHashBlocker{Config: MinHashConfig{Bands: 48, Rows: 2, Workers: 0}, Seed: 1}
}

// Name implements Blocker.
func (m *MinHashBlocker) Name() string { return "minhash-lsh" }

// BuildIndex implements IndexedBlocker with a MinHashIndex: the titles of
// the offers at idxs are interned and the banded LSH index is built over
// their distinct token sets. Signature computation fans out across
// Config.Workers; the index contents are identical at any worker count
// for a fixed seed.
func (m *MinHashBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	x := m.newIndex(offers, idxs)
	prep := x.corpus.prep()
	sets := make([][]int32, x.corpus.titleCount())
	for t := range sets {
		sets[t] = prep.TokenSet(t)
	}
	x.ix = lsh.NewIndex(m.Config, xrand.New(m.Seed).Stream("minhash-lsh"))
	x.ix.Build(sets)
	return x
}

// Candidates implements Blocker through a one-shot index. Each distinct
// title is signed once; signature computation fans out across the
// configured worker pool.
func (m *MinHashBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return m.BuildIndex(offers, idxs).Candidates(idxs)
}

// HNSWBlocker proposes, for each offer, the offers carrying its K
// approximately nearest distinct titles in the embedding space, found
// through an HNSW graph instead of the exhaustive scan of
// EmbeddingBlocker. Candidate sets are deterministic for a fixed Seed.
type HNSWBlocker struct {
	// Model encodes titles into the embedding space (shared with
	// EmbeddingBlocker so the two search the same geometry).
	Model *embed.Model
	// K is the number of nearest distinct titles retrieved per title.
	K int
	// Config sizes the HNSW graph (M, ef bounds, construction batching and
	// the worker pool).
	Config hnsw.Config
	// Seed roots the xrand stream behind the graph's level draws.
	Seed int64
}

// NewHNSWBlocker wraps a trained embedding model with the default graph
// configuration and seed 1.
func NewHNSWBlocker(model *embed.Model, k int) *HNSWBlocker {
	return &HNSWBlocker{Model: model, K: k, Config: hnsw.DefaultConfig(), Seed: 1}
}

// Name implements Blocker.
func (h *HNSWBlocker) Name() string { return "hnsw-knn" }

// BuildIndex implements IndexedBlocker with a KNNIndex over one HNSW
// graph built over the encodings of the distinct titles of the offers at
// idxs.
func (h *HNSWBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	x := newKNNIndex(h.Name(), offers, idxs, h.Model, h.K, h.Config.Workers, h.words())
	x.vecs = encodeTitles(x.corpus, h.Model, 0, h.Config.Workers)
	x.engine = hnsw.Build(x.vecs, h.Config, xrand.New(h.Seed).Stream("hnsw-knn"))
	return x
}

// Candidates implements Blocker through a one-shot index. Encoding, graph
// construction and the per-title queries all run across the configured
// worker pool; results are identical at any worker count.
func (h *HNSWBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return h.BuildIndex(offers, idxs).Candidates(idxs)
}
