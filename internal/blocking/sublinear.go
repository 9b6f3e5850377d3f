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
)

// expandTitlePairs converts title-level candidate pairs into offer-level
// candidate pairs: the cross product of the two title groups for each
// proposed title pair, plus the full clique inside every title group
// (identical titles are always candidates). The result is sorted and
// deduplicated.
func expandTitlePairs(groups [][]int, titlePairs [][2]int) []CandidatePair {
	set := map[CandidatePair]bool{}
	for _, members := range groups {
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				set[orderedPair(members[x], members[y])] = true
			}
		}
	}
	for _, tp := range titlePairs {
		for _, a := range groups[tp[0]] {
			for _, b := range groups[tp[1]] {
				set[orderedPair(a, b)] = true
			}
		}
	}
	out := make([]CandidatePair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sortPairs(out)
	return out
}

// DefaultAutoBandAbove is the indexed-universe size past which
// MinHashConfig.AutoBand switches the banding from the recall-first 48x2
// to the scale-tuned 16x4. The PR 8 scale-out measured the crossover: at
// n=100k near-duplicate synthetic offers the 48x2 banding (candidate
// threshold ~ Jaccard 0.14) goes quadratic (~250M candidate pairs), while
// 16x4 (threshold ~ 0.5) blocks the same universe in seconds at 99.8%
// reduction — and below a few tens of thousands of offers 48x2's extra
// recall is affordable.
const DefaultAutoBandAbove = 20000

// MinHashConfig sizes the MinHash-LSH blocker. It mirrors lsh.Config's
// banding knobs and adds the scale-aware banding switch; resolve turns it
// into the concrete lsh.Config an index is built with.
type MinHashConfig struct {
	// Bands and Rows shape the banded index exactly as in lsh.Config:
	// signatures of Bands*Rows hashes, one bucket collision per band, a
	// candidate threshold of roughly (1/Bands)^(1/Rows) Jaccard.
	Bands int
	Rows  int
	// Workers bounds the signature-computation worker pool (<= 0 selects
	// runtime.NumCPU()).
	Workers int
	// AutoBand, when set, replaces Bands x Rows with the scale-tuned 16x4
	// banding once the indexed universe exceeds AutoBandAbove offers — the
	// PR 8 footgun (48x2 going quadratic on a 100k near-duplicate corpus)
	// fixed at the API level. Off by default so the paper-reproduction
	// goldens, which pin the 48x2 candidate sets, stand unchanged. The
	// banding is resolved once per index build from the built universe's
	// size; growing an index past the threshold with Add never re-switches
	// (a rebuild at the larger size does).
	AutoBand bool
	// AutoBandAbove overrides the switch threshold (0 selects
	// DefaultAutoBandAbove).
	AutoBandAbove int
}

// resolve returns the lsh.Config for an index over universe offers: the
// configured banding, or 16x4 when AutoBand is on and the universe is
// strictly larger than the threshold.
func (c MinHashConfig) resolve(universe int) lsh.Config {
	out := lsh.Config{Bands: c.Bands, Rows: c.Rows, Workers: c.Workers}
	if c.AutoBand {
		above := c.AutoBandAbove
		if above <= 0 {
			above = DefaultAutoBandAbove
		}
		if universe > above {
			out.Bands, out.Rows = 16, 4
		}
	}
	return out
}

// MinHashBlocker proposes pairs of offers whose title token sets collide
// in at least one band of a MinHash-LSH index — an approximation of "token
// Jaccard above the banding threshold" that never enumerates the quadratic
// pair space. Candidate sets are deterministic for a fixed Seed.
type MinHashBlocker struct {
	// Config sizes the LSH index (bands x rows, the construction worker
	// pool, and the scale-aware AutoBand switch).
	Config MinHashConfig
	// Seed roots the xrand stream the hash family is drawn from.
	Seed int64
}

// NewMinHashBlocker returns the standard blocking configuration: 48 bands
// of 2 rows (candidate threshold ~ Jaccard 0.14), seed 1. The threshold is
// deliberately far below lsh.DefaultConfig's near-duplicate setting: the
// benchmark's corner-case positives are hard matches with little token
// overlap, and the low threshold is what keeps pair completeness near 100%
// while still pruning the bulk of the pair space. Set Config.AutoBand when
// indexing universes past tens of thousands of offers; see
// DefaultAutoBandAbove.
func NewMinHashBlocker() *MinHashBlocker {
	return &MinHashBlocker{Config: MinHashConfig{Bands: 48, Rows: 2, Workers: 0}, Seed: 1}
}

// Name implements Blocker.
func (m *MinHashBlocker) Name() string { return "minhash-lsh" }

// BuildIndex implements IndexedBlocker. The banding is resolved from the
// built universe's size (see MinHashConfig.AutoBand).
func (m *MinHashBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	return BuildMinHashIndex(offers, idxs, m.Config.resolve(len(idxs)), m.Seed)
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

// BuildIndex implements IndexedBlocker with the single-shard
// ShardedKNNIndex.
func (h *HNSWBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	return BuildShardedHNSWIndex(offers, idxs, 1, h.Model, h.K, h.Config, h.Seed)
}

// Candidates implements Blocker through a one-shot index. Encoding, graph
// construction and the per-title queries all run across the configured
// worker pool; results are identical at any worker count.
func (h *HNSWBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return h.BuildIndex(offers, idxs).Candidates(idxs)
}
