// The kNN indexes: KNNIndex, the approximate index over one HNSW graph or
// IVF index, and EmbeddingIndex, the exact index (exhaustive scan), plus
// the per-slot memo they share. Both encode each distinct title once at
// Build/Add time and materialize per-node neighbour lists lazily, at most
// once per node, so the first query after a build pays the searches and
// every later query is a filter over frozen lists. Add invalidates the
// memo wholesale: a new node can be a nearer neighbour of any existing
// one.
//
// KNNIndex runs one engine over the whole corpus. Engine contents are a
// pure function of the corpus and seed, so candidate sets are
// byte-identical at any worker count, and a grown index (Add) equals a
// fresh build over the union.

package blocking

import (
	"sync"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/parallel"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/vector"
	"wdcproducts/internal/xrand"
)

// memoSlots lazily materializes one value per slot, each computed at most
// once. Concurrent readers of the same slot are serialized by its
// sync.Once, which is what keeps concurrent Candidates calls race-free.
type memoSlots[T any] struct {
	once []sync.Once
	res  [][]T
}

func newMemoSlots[T any](n int) *memoSlots[T] {
	return &memoSlots[T]{once: make([]sync.Once, n), res: make([][]T, n)}
}

func (m *memoSlots[T]) get(i int, compute func() []T) []T {
	m.once[i].Do(func() { m.res[i] = compute() })
	return m.res[i]
}

// knnEngine is the approximate-kNN engine of a KNNIndex — an HNSW graph
// or an IVF index — reduced to what the index needs of it. Engine ids are
// title ids: the engine holds one vector per title, in interning order.
type knnEngine interface {
	// Add appends a vector under the next id.
	Add(vec []float32) int
	// AppendSnapshot writes the engine's structure into b.
	AppendSnapshot(b *persist.Buffer)
	// search returns the ids of the k titles nearest q, ranked by
	// similarity descending with ties by ascending id.
	search(q []float32, k int) []int32
}

// hnswEngine adapts an HNSW graph to knnEngine.
type hnswEngine struct{ *hnsw.Graph }

func (g hnswEngine) search(q []float32, k int) []int32 {
	res := g.Search(q, k)
	ids := make([]int32, len(res))
	for i, r := range res {
		ids[i] = int32(r.ID)
	}
	return ids
}

// ivfEngine adapts an IVF index to knnEngine.
type ivfEngine struct{ *ivf.Index }

func (x ivfEngine) search(q []float32, k int) []int32 {
	res := x.Search(q, k)
	ids := make([]int32, len(res))
	for i, r := range res {
		ids[i] = int32(r.ID)
	}
	return ids
}

// KNNIndex is the approximate-kNN Index over distinct title embeddings
// that HNSWBlocker and IVFBlocker build: one HNSW graph or IVF index over
// the whole corpus. Each distinct title is encoded once, and its ranked
// neighbour list is materialized lazily, at most once between Adds.
// Build one with BuildHNSWIndex / BuildIVFIndex or through the blockers.
// It honours the full Index contract but is not a DeltaIndex: a new title
// can evict an old partner from someone's top-K, so kNN adjacency is not
// monotone under Add.
type KNNIndex struct {
	indexBase
	model  *embed.Model
	k      int
	vecs   [][]float32 // title id -> encoding
	engine knnEngine
	memo   *memoSlots[int32]
}

// newKNNIndex indexes the corpus of a kNN index whose encodings and
// engine the caller fills in.
func newKNNIndex(name string, offers []schemaorg.Offer, idxs []int, model *embed.Model, k, workers int, cfgWords []uint64) *KNNIndex {
	x := &KNNIndex{model: model, k: k}
	x.init(name, offers, idxs, workers, cfgWords)
	x.memo = newMemoSlots[int32](x.corpus.titleCount())
	return x
}

// BuildHNSWIndex encodes the distinct titles of the offers at idxs and
// builds one HNSW graph over them. k is the neighbour budget per
// distinct title at query time.
func BuildHNSWIndex(offers []schemaorg.Offer, idxs []int, model *embed.Model, k int, cfg hnsw.Config, seed int64) *KNNIndex {
	x := newKNNIndex("hnsw-knn", offers, idxs, model, k, cfg.Workers, hnswWords(model, k, cfg, seed))
	x.encodeTitles(0)
	x.engine = hnswEngine{hnsw.Build(x.vecs, cfg, xrand.New(seed).Stream("hnsw-knn"))}
	return x
}

// BuildIVFIndex encodes the distinct titles of the offers at idxs and
// fits one IVF index over them; the coarse quantizer trains on the first
// Config.TrainSize titles. k is the neighbour budget per distinct title
// at query time.
func BuildIVFIndex(offers []schemaorg.Offer, idxs []int, model *embed.Model, k int, cfg ivf.Config, seed int64) *KNNIndex {
	x := newKNNIndex("ivf-knn", offers, idxs, model, k, cfg.Workers, ivfWords(model, k, cfg, seed))
	x.encodeTitles(0)
	x.engine = ivfEngine{ivf.Build(x.vecs, cfg, xrand.New(seed).Stream("ivf-knn"))}
	return x
}

// encodeTitles encodes every title id >= from across the worker pool.
func (x *KNNIndex) encodeTitles(from int) {
	prep := x.corpus.prep()
	n := x.corpus.titleCount()
	x.vecs = append(x.vecs, make([][]float32, n-from)...)
	parallel.Run(n-from, x.workers, func(j int) error {
		t := from + j
		x.vecs[t] = x.model.EncodeTokens(prep.Tokens(t))
		return nil
	}, nil)
}

// Add implements Index: new distinct titles are encoded and appended to
// the engine incrementally in interning order, so a grown index is
// identical to a fresh build over the union (for IVF, whenever the first
// build covered its Config.TrainSize prefix). Neighbour memos are
// discarded: the new titles may appear in anyone's top-K.
func (x *KNNIndex) Add(offers []schemaorg.Offer, idxs []int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	from := x.corpus.titleCount()
	if len(x.corpus.add(offers, idxs)) == 0 {
		return
	}
	x.encodeTitles(from)
	for _, v := range x.vecs[from:] {
		x.engine.Add(v)
	}
	x.memo = newMemoSlots[int32](x.corpus.titleCount())
}

// Candidates implements Index with the shared title-level kNN split
// semantics of knnCandidates.
func (x *KNNIndex) Candidates(queryIdxs []int) []CandidatePair {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.corpus.knnCandidates(queryIdxs, x.k, x.workers, x.neighbours)
}

// neighbours returns title tid's memoized top-(K+1) neighbour ids in the
// engine's ranking (the query title itself ranks first).
func (x *KNNIndex) neighbours(tid int) []int32 {
	return x.memo.get(tid, func() []int32 { return x.engine.search(x.vecs[tid], x.k+1) })
}

// EmbeddingIndex is the reusable form of the exhaustive embedding blocker:
// exact per-offer top-K neighbour lists over the indexed offers,
// materialized lazily one offer at a time. It preserves the legacy
// blocker's per-offer (not per-title) semantics — duplicate titles occupy
// one slot each and can fill a neighbour budget — so full-universe queries
// are byte-identical to EmbeddingBlocker.Candidates. Add and Candidates
// are safe to interleave from any number of goroutines (see the Index
// contract).
type EmbeddingIndex struct {
	mu      sync.RWMutex // Add writes, Candidates reads
	corpus  *indexedCorpus
	model   *embed.Model
	k       int
	workers int
	order   []int       // slot -> offer idx, in indexing order
	slotOf  map[int]int // offer idx -> slot
	vecs    [][]float32 // slot -> encoding (shared per distinct title)
	memo    *memoSlots[int32]
}

// BuildEmbeddingIndex interns and encodes each distinct title once and
// indexes the offers at idxs in order. workers bounds the encoding and
// neighbour-materialization goroutines (<= 0 selects all cores).
func BuildEmbeddingIndex(offers []schemaorg.Offer, idxs []int, model *embed.Model, k, workers int) *EmbeddingIndex {
	e := &EmbeddingIndex{
		corpus: newIndexedCorpus(), model: model, k: k, workers: workers,
		slotOf: make(map[int]int, len(idxs)),
	}
	e.corpus.add(offers, idxs)
	prep := e.corpus.prep()
	titleVecs := make([][]float32, prep.Len())
	parallel.Run(len(titleVecs), workers, func(t int) error {
		titleVecs[t] = model.EncodeTokens(prep.Tokens(t))
		return nil
	}, nil)
	for _, i := range idxs {
		if _, dup := e.slotOf[i]; dup {
			continue
		}
		e.slotOf[i] = len(e.order)
		e.order = append(e.order, i)
		e.vecs = append(e.vecs, titleVecs[e.corpus.titleOf[i]])
	}
	e.memo = newMemoSlots[int32](len(e.order))
	return e
}

// Name implements Index.
func (e *EmbeddingIndex) Name() string { return "embedding-knn" }

// Len implements Index.
func (e *EmbeddingIndex) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// Add implements Index: new offers are appended in idxs order (new
// distinct titles are encoded once) and the neighbour memo is discarded.
func (e *EmbeddingIndex) Add(offers []schemaorg.Offer, idxs []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	newTitles := e.corpus.add(offers, idxs)
	grown := false
	titleVecs := map[int][]float32{}
	for _, tid := range newTitles {
		titleVecs[tid] = e.model.EncodeTokens(e.corpus.prep().Tokens(tid))
	}
	for _, i := range idxs {
		if _, dup := e.slotOf[i]; dup {
			continue
		}
		tid := e.corpus.titleOf[i]
		vec, ok := titleVecs[tid]
		if !ok {
			// The title was already indexed under another offer: reuse its
			// encoding through that offer's slot.
			vec = e.vecs[e.slotOf[e.corpus.groups[tid][0]]]
		}
		e.slotOf[i] = len(e.order)
		e.order = append(e.order, i)
		e.vecs = append(e.vecs, vec)
		grown = true
	}
	if grown {
		e.memo = newMemoSlots[int32](len(e.order))
	}
}

// neighbourSlots returns slot a's memoized top-K neighbour slots (exact,
// by cosine similarity descending with ties broken by ascending slot).
func (e *EmbeddingIndex) neighbourSlots(a int) []int32 {
	return e.memo.get(a, func() []int32 {
		heap := make(topKHeap, 0, e.k)
		for b := range e.vecs {
			if b == a {
				continue
			}
			heap.offer(scoredPos{b, vector.Cosine(e.vecs[a], e.vecs[b])}, e.k)
		}
		out := make([]int32, len(heap))
		for i, s := range heap {
			out[i] = int32(s.pos)
		}
		return out
	})
}

// Candidates implements Index: each query offer contributes its exact
// top-K neighbours among all indexed offers, restricted to neighbours
// inside the query.
func (e *EmbeddingIndex) Candidates(queryIdxs []int) []CandidatePair {
	e.mu.RLock()
	defer e.mu.RUnlock()
	slots := make([]int, len(queryIdxs))
	inQuery := make(map[int32]bool, len(queryIdxs))
	for q, i := range queryIdxs {
		s, ok := e.slotOf[i]
		if !ok {
			panic(&UnindexedQueryError{Offer: i})
		}
		slots[q] = s
		inQuery[int32(s)] = true
	}
	parallel.Run(len(slots), e.workers, func(q int) error {
		e.neighbourSlots(slots[q])
		return nil
	}, nil)
	var keys []uint64
	for _, s := range slots {
		for _, nb := range e.neighbourSlots(s) {
			if inQuery[nb] {
				keys = append(keys, pairKey(e.order[s], e.order[nb]))
			}
		}
	}
	return unpackPairs(keys)
}
