// IVFBlocker: partition-based approximate kNN blocking over
// title embeddings through the internal/ivf inverted-file index — the
// coarse-quantizer alternative to the HNSW graph. Build cost is one
// k-means fit plus a linear assignment pass (no graph), queries probe the
// nprobe nearest lists; prefer it over HNSW when indexes are rebuilt often
// or when predictable memory matters more than the last points of recall.

package blocking

import (
	"wdcproducts/internal/embed"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/schemaorg"
)

// IVFBlocker proposes, for each offer, the offers carrying its K
// approximately nearest distinct titles, found by probing an inverted-file
// (IVF) index instead of walking an HNSW graph. Candidate sets are
// deterministic for a fixed Seed.
type IVFBlocker struct {
	// Model encodes titles into the embedding space (shared with
	// EmbeddingBlocker and HNSWBlocker so all three search the same
	// geometry).
	Model *embed.Model
	// K is the number of nearest distinct titles retrieved per title.
	K int
	// Config sizes the IVF index (nlist/nprobe, the quantizer training
	// prefix, and the worker pool).
	Config ivf.Config
	// Seed roots the xrand stream behind the quantizer seeding.
	Seed int64
}

// NewIVFBlocker wraps a trained embedding model with the default IVF
// configuration and seed 1.
func NewIVFBlocker(model *embed.Model, k int) *IVFBlocker {
	return &IVFBlocker{Model: model, K: k, Config: ivf.DefaultConfig(), Seed: 1}
}

// Name implements Blocker.
func (b *IVFBlocker) Name() string { return "ivf-knn" }

// BuildIndex implements IndexedBlocker with the single-shard
// ShardedKNNIndex.
func (b *IVFBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) Index {
	return BuildShardedIVFIndex(offers, idxs, 1, b.Model, b.K, b.Config, b.Seed)
}

// Candidates implements Blocker through a one-shot index; callers that
// query one corpus repeatedly keep the BuildIndex result instead.
func (b *IVFBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []CandidatePair {
	return b.BuildIndex(offers, idxs).Candidates(idxs)
}
