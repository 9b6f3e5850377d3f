// Sharded indexes: hash-partitioned variants of the two approximate-kNN
// blocking engines (HNSW and IVF), the layer that lets a corpus outgrow
// one index (and, with the snapshot format, one machine). Distinct titles
// are assigned to shards by a hash of their bytes — identical titles
// always share a title id, so the identical-title cliques every blocker
// guarantees are unaffected by where the title lands — and each shard
// runs an ordinary hnsw/ivf engine over its own slice of the corpus,
// built concurrently over internal/parallel. The shard assignment and
// corpus live in one shardSet that ShardedKNNIndex embeds; MinHashIndex
// embeds a one-shard shardSet for its corpus, lock and snapshot envelope.
//
// Queries fan out and merge deterministically: each shard answers
// top-(K+1) for the query title; the per-shard results merge by
// (similarity descending, title id ascending) and truncate — the standard
// distributed-kNN merge. The per-title budget is spent against slightly
// different neighbour pools than a single index would see, so recall can
// differ within the approximation's usual tolerance (the equivalence
// suite bounds it). At one shard the merge is the single index's own
// ranking, so ShardedKNNIndex is also the unsharded HNSW and IVF index.
//
// Shard assignment, merge order, and per-shard engine contents are all
// pure functions of the corpus and seed, so sharded candidate sets are
// byte-identical at any worker count, and a grown index (Add) equals a
// fresh sharded build over the union — the same contracts the unsharded
// indexes honour.

package blocking

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/parallel"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
)

// shardWordMarker tags a multi-shard index's fingerprint words so a
// sharded and an unsharded snapshot of the same corpus/config can never
// collide.
const shardWordMarker = 0x7368617264 // "shard"

// shardForTitle assigns a title to one of shards partitions by an FNV-1a
// hash of its bytes. The assignment depends only on the title, so a title
// lands on the same shard in every process and at every corpus size. One
// shard skips the hash: every single-shard build and load pays this per
// title.
func shardForTitle(title string, shards int) int {
	if shards == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(title))
	return int(h.Sum64() % uint64(shards))
}

// shardStream names the per-shard seed stream. One shard keeps the
// unsharded stream name, so a single-shard index holds exactly the
// engine an unsharded build would produce.
func shardStream(base string, shards, s int) string {
	if shards == 1 {
		return base
	}
	return fmt.Sprintf("%s/shard=%d", base, s)
}

// shardWorkers splits a worker budget across shards: the outer loop runs
// one goroutine per shard, each building its engine with an inner pool of
// roughly workers/shards, so total parallelism tracks the configured
// budget at any shard count.
func shardWorkers(workers, shards int) int {
	w := parallel.Workers(workers) / shards
	if w < 1 {
		w = 1
	}
	return w
}

// shardSet is the state every sharded index shares: the indexed corpus
// and the title -> shard assignment (MinHashIndex embeds a one-shard
// set). mu guards the set and the engines of the index that embeds it:
// Add holds it for writing, Candidates for reading.
type shardSet struct {
	mu       sync.RWMutex // Add writes, Candidates reads
	name     string
	corpus   *indexedCorpus
	shards   int
	workers  int
	cfgWords []uint64

	shardOf []int32   // title id -> shard
	members [][]int32 // shard -> local id -> title id
}

// init indexes the offers at idxs and places every title on its shard.
// The fingerprint words gain the shard marker only past one shard, so a
// single-shard index carries the unsharded content address.
func (ss *shardSet) init(name string, offers []schemaorg.Offer, idxs []int, shards, workers int, cfgWords []uint64) {
	if shards < 1 {
		shards = 1
	}
	ss.name = name
	ss.corpus = newIndexedCorpus()
	ss.shards = shards
	ss.workers = workers
	ss.cfgWords = shardedSnapshotWords(cfgWords, shards)
	ss.members = make([][]int32, shards)
	ss.corpus.add(offers, idxs)
	ss.assign(0)
}

// assign places every title id >= from on its shard. Capacity is reserved
// up front because a build or load assigns its whole corpus in one call.
func (ss *shardSet) assign(from int) {
	n := ss.corpus.titleCount() - from
	ss.shardOf = slices.Grow(ss.shardOf, n)
	for s := range ss.members {
		ss.members[s] = slices.Grow(ss.members[s], n/ss.shards+1)
	}
	for tid := from; tid < ss.corpus.titleCount(); tid++ {
		s := shardForTitle(ss.corpus.titles[tid], ss.shards)
		ss.shardOf = append(ss.shardOf, int32(s))
		ss.members[s] = append(ss.members[s], int32(tid))
	}
}

// addOffers indexes further offers and places their new titles on their
// shards, returning the new title ids for the caller's engines. The
// caller holds mu for writing.
func (ss *shardSet) addOffers(offers []schemaorg.Offer, idxs []int) []int {
	from := ss.corpus.titleCount()
	newTitles := ss.corpus.add(offers, idxs)
	ss.assign(from)
	return newTitles
}

// Name implements Index (the engine name; see Shards for the partition
// count).
func (ss *shardSet) Name() string { return ss.name }

// Shards returns the number of hash partitions.
func (ss *shardSet) Shards() int { return ss.shards }

// Len implements Index.
func (ss *shardSet) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.corpus.len()
}

// knnShard is one shard's approximate-kNN engine — an HNSW graph or an
// IVF index — reduced to what ShardedKNNIndex needs of it.
type knnShard interface {
	// Add appends a vector under the next local id.
	Add(vec []float32) int
	// AppendSnapshot writes the engine's structure into b.
	AppendSnapshot(b *persist.Buffer)
	// search returns the k members nearest q, best first.
	search(q []float32, k int) []scoredTitle
}

// scoredTitle is one kNN search hit: a title id (shard-local inside a
// shard's search results) and its cosine similarity to the query.
type scoredTitle struct {
	id  int32
	sim float64
}

// hnswShard adapts an HNSW graph to knnShard.
type hnswShard struct{ *hnsw.Graph }

func (g hnswShard) search(q []float32, k int) []scoredTitle {
	res := g.Search(q, k)
	out := make([]scoredTitle, len(res))
	for i, r := range res {
		out[i] = scoredTitle{int32(r.ID), r.Sim}
	}
	return out
}

// ivfShard adapts an IVF index to knnShard.
type ivfShard struct{ *ivf.Index }

func (x ivfShard) search(q []float32, k int) []scoredTitle {
	res := x.Search(q, k)
	out := make([]scoredTitle, len(res))
	for i, r := range res {
		out[i] = scoredTitle{int32(r.ID), r.Sim}
	}
	return out
}

// ShardedKNNIndex is the approximate-kNN Index over distinct title
// embeddings, hash-partitioned across per-shard HNSW graphs or IVF
// indexes; at one shard it is the unsharded index HNSWBlocker and
// IVFBlocker build. Each distinct title is encoded once, and its ranked
// neighbour list is materialized lazily, at most once between Adds.
// Build one with BuildShardedHNSWIndex / BuildShardedIVFIndex or through
// the blockers. It honours the full Index contract but is not a
// DeltaIndex: a new title can evict an old partner from someone's top-K,
// so kNN adjacency is not monotone under Add.
type ShardedKNNIndex struct {
	shardSet
	model   *embed.Model
	k       int
	vecs    [][]float32 // title id -> encoding
	engines []knnShard  // shard -> engine
	memo    *memoSlots[int32]
}

// newShardedKNN indexes the corpus and shard assignment of a sharded kNN
// index whose encodings and engines the caller fills in.
func newShardedKNN(name string, offers []schemaorg.Offer, idxs []int, shards int, model *embed.Model, k, workers int, cfgWords []uint64) *ShardedKNNIndex {
	x := &ShardedKNNIndex{model: model, k: k}
	x.init(name, offers, idxs, shards, workers, cfgWords)
	x.engines = make([]knnShard, x.shards)
	x.memo = newMemoSlots[int32](x.corpus.titleCount())
	return x
}

// buildEngines encodes every title and builds each shard's engine
// concurrently.
func (x *ShardedKNNIndex) buildEngines(build func(s int) knnShard) {
	x.encodeTitles(0)
	parallel.Run(x.shards, x.workers, func(s int) error {
		x.engines[s] = build(s)
		return nil
	}, nil)
}

// BuildShardedHNSWIndex hash-partitions the distinct titles across shards
// and builds one HNSW graph per shard concurrently; queries merge the
// per-shard top-(K+1) lists. k is the neighbour budget per distinct title
// at query time.
func BuildShardedHNSWIndex(offers []schemaorg.Offer, idxs []int, shards int, model *embed.Model, k int, cfg hnsw.Config, seed int64) *ShardedKNNIndex {
	x := newShardedKNN("hnsw-knn", offers, idxs, shards, model, k, cfg.Workers, hnswWords(model, k, cfg, seed))
	inner := cfg
	inner.Workers = shardWorkers(cfg.Workers, x.shards)
	x.buildEngines(func(s int) knnShard {
		return hnswShard{hnsw.Build(x.shardVecs(s), inner,
			xrand.New(seed).Stream(shardStream("hnsw-knn", x.shards, s)))}
	})
	return x
}

// BuildShardedIVFIndex hash-partitions the distinct titles across shards
// and fits one IVF index per shard concurrently; queries merge the
// per-shard top-(K+1) lists. Each shard trains its own coarse quantizer
// on its first Config.TrainSize titles. k is the neighbour budget per
// distinct title at query time.
func BuildShardedIVFIndex(offers []schemaorg.Offer, idxs []int, shards int, model *embed.Model, k int, cfg ivf.Config, seed int64) *ShardedKNNIndex {
	x := newShardedKNN("ivf-knn", offers, idxs, shards, model, k, cfg.Workers, ivfWords(model, k, cfg, seed))
	inner := cfg
	inner.Workers = shardWorkers(cfg.Workers, x.shards)
	x.buildEngines(func(s int) knnShard {
		return ivfShard{ivf.Build(x.shardVecs(s), inner,
			xrand.New(seed).Stream(shardStream("ivf-knn", x.shards, s)))}
	})
	return x
}

// encodeTitles encodes every title id >= from across the worker pool.
func (x *ShardedKNNIndex) encodeTitles(from int) {
	prep := x.corpus.prep()
	n := x.corpus.titleCount()
	x.vecs = append(x.vecs, make([][]float32, n-from)...)
	parallel.Run(n-from, x.workers, func(j int) error {
		t := from + j
		x.vecs[t] = x.model.EncodeTokens(prep.Tokens(t))
		return nil
	}, nil)
}

// shardVecs gathers shard s's vectors in local-id order.
func (x *ShardedKNNIndex) shardVecs(s int) [][]float32 {
	out := make([][]float32, len(x.members[s]))
	for l, tid := range x.members[s] {
		out[l] = x.vecs[tid]
	}
	return out
}

// Add implements Index: new distinct titles are encoded and appended to
// their shard's engine incrementally. Per-shard insertion order is the
// global interning order restricted to the shard, so a grown index is
// identical to a fresh sharded build over the union (for IVF, whenever
// each shard's first build covered its Config.TrainSize prefix).
// Neighbour memos are discarded: the new titles may appear in anyone's
// top-K.
func (x *ShardedKNNIndex) Add(offers []schemaorg.Offer, idxs []int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	from := x.corpus.titleCount()
	newTitles := x.addOffers(offers, idxs)
	if len(newTitles) == 0 {
		return
	}
	x.encodeTitles(from)
	for _, tid := range newTitles {
		x.engines[x.shardOf[tid]].Add(x.vecs[tid])
	}
	x.memo = newMemoSlots[int32](x.corpus.titleCount())
}

// Candidates implements Index with the shared title-level kNN split
// semantics of knnCandidates.
func (x *ShardedKNNIndex) Candidates(queryIdxs []int) []CandidatePair {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.corpus.knnCandidates(queryIdxs, x.k, x.workers, x.neighbours)
}

// neighbours returns title tid's memoized ranked neighbour ids: every
// shard answers top-(K+1) for tid's vector, and the union merges by
// (similarity descending, title id ascending) — the deterministic
// distributed-kNN merge — truncated to K+1 (the query title itself ranks
// first from its home shard).
func (x *ShardedKNNIndex) neighbours(tid int) []int32 {
	return x.memo.get(tid, func() []int32 {
		var all []scoredTitle
		for s, e := range x.engines {
			for _, r := range e.search(x.vecs[tid], x.k+1) {
				all = append(all, scoredTitle{x.members[s][r.id], r.sim})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].sim != all[b].sim {
				return all[a].sim > all[b].sim
			}
			return all[a].id < all[b].id
		})
		if len(all) > x.k+1 {
			all = all[:x.k+1]
		}
		ids := make([]int32, len(all))
		for i, s := range all {
			ids[i] = s.id
		}
		return ids
	})
}

// BuildShardedIndex implements ShardedIndexBuilder.
func (h *HNSWBlocker) BuildShardedIndex(offers []schemaorg.Offer, idxs []int, shards int) Index {
	return BuildShardedHNSWIndex(offers, idxs, shards, h.Model, h.K, h.Config, h.Seed)
}

// BuildShardedIndex implements ShardedIndexBuilder.
func (b *IVFBlocker) BuildShardedIndex(offers []schemaorg.Offer, idxs []int, shards int) Index {
	return BuildShardedIVFIndex(offers, idxs, shards, b.Model, b.K, b.Config, b.Seed)
}

// ShardedIndexBuilder is implemented by blockers whose index can be
// hash-partitioned (HNSW and IVF); OpenIndex routes Shards > 1 through
// it and builds one index for every other blocker.
type ShardedIndexBuilder interface {
	IndexedBlocker
	// BuildShardedIndex returns a fresh index partitioned across shards
	// (values < 2 build a single partition).
	BuildShardedIndex(offers []schemaorg.Offer, idxs []int, shards int) Index
}
