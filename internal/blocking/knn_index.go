// The kNN indexes: KNNIndex, the approximate index over one HNSW graph or
// IVF index, and EmbeddingIndex, the exact index (exhaustive scan). Both
// sit on indexBase, encode each distinct title once at build and Add
// time, and materialize per-node neighbour lists lazily, at most once per
// node, so the first query after a build pays the searches and every
// later query is a filter over frozen lists. Add invalidates the memo
// wholesale: a new node can be a nearer neighbour of any existing one.
//
// Every kNN search returns vector.Neighbor results chosen through one
// bounded top-K (vector.TopK); neighbourIDs is the one place they become
// memoized ids. KNNIndex runs its engine over the whole corpus. Engine
// contents are a pure function of the corpus and seed, so candidate sets
// are byte-identical at any worker count, and a grown index (Add) equals
// a fresh build over the union.

package blocking

import (
	"sync"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/parallel"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/vector"
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

// knnEngine is the approximate-kNN engine of a KNNIndex — an *hnsw.Graph
// or an *ivf.Index, both of which satisfy it as they are. Engine ids are
// title ids: the engine holds one vector per title, in interning order.
type knnEngine interface {
	// Add appends a vector under the next id.
	Add(vec []float32) int
	// AppendSnapshot writes the engine's structure into b.
	AppendSnapshot(b *persist.Buffer)
	// Search returns the k titles nearest q, ranked by similarity
	// descending with ties by ascending id.
	Search(q []float32, k int) []vector.Neighbor
}

// neighbourIDs returns the ids of ns, in order, as a neighbour memo holds
// them.
func neighbourIDs(ns []vector.Neighbor) []int32 {
	ids := make([]int32, len(ns))
	for i, n := range ns {
		ids[i] = int32(n.ID)
	}
	return ids
}

// KNNIndex is the approximate-kNN Index over distinct title embeddings
// that HNSWBlocker and IVFBlocker build: one HNSW graph or IVF index over
// the whole corpus. Each distinct title is encoded once, and its ranked
// neighbour list is materialized lazily, at most once between Adds.
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

// encodeTitles encodes the corpus titles with id >= from across the
// worker pool, in title-id order.
func encodeTitles(c *indexedCorpus, model *embed.Model, from, workers int) [][]float32 {
	prep := c.prep()
	out := make([][]float32, c.titleCount()-from)
	parallel.Run(len(out), workers, func(j int) error {
		out[j] = model.EncodeTokens(prep.Tokens(from + j))
		return nil
	}, nil)
	return out
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
	x.vecs = append(x.vecs, encodeTitles(x.corpus, x.model, from, x.workers)...)
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
	return x.memo.get(tid, func() []int32 { return neighbourIDs(x.engine.Search(x.vecs[tid], x.k+1)) })
}

// EmbeddingIndex is the reusable form of the exhaustive embedding blocker:
// exact per-offer top-K neighbour lists over the indexed offers,
// materialized lazily one offer at a time. It preserves the legacy
// blocker's per-offer (not per-title) semantics — duplicate titles occupy
// one slot each and can fill a neighbour budget — so full-universe queries
// are byte-identical to EmbeddingBlocker.Candidates. A slot is an offer's
// position in the corpus's indexing order. Add and Candidates are safe to
// interleave from any number of goroutines (see the Index contract).
type EmbeddingIndex struct {
	indexBase
	model  *embed.Model
	k      int
	slotOf map[int]int // offer idx -> slot
	vecs   [][]float32 // slot -> encoding (shared per distinct title)
	norms  []float64   // slot -> vector.Norm of its encoding
	memo   *memoSlots[int32]
}

// grow gives a slot to every offer indexed since slot fromSlot. Titles
// with id >= fromTitle are new and encoded once across the worker pool;
// every other offer shares the encoding of its title's first offer.
func (e *EmbeddingIndex) grow(fromSlot, fromTitle int) {
	titleVecs := encodeTitles(e.corpus, e.model, fromTitle, e.workers)
	for _, i := range e.corpus.order[fromSlot:] {
		tid := e.corpus.titleOf[i]
		var vec []float32
		if tid >= fromTitle {
			vec = titleVecs[tid-fromTitle]
		} else {
			vec = e.vecs[e.slotOf[e.corpus.groups[tid][0]]]
		}
		e.slotOf[i] = len(e.vecs)
		e.vecs = append(e.vecs, vec)
		e.norms = append(e.norms, vector.Norm(vec))
	}
	e.memo = newMemoSlots[int32](len(e.vecs))
}

// Add implements Index: new offers are appended in idxs order (new
// distinct titles are encoded once) and the neighbour memo is discarded.
func (e *EmbeddingIndex) Add(offers []schemaorg.Offer, idxs []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fromSlot, fromTitle := e.corpus.len(), e.corpus.titleCount()
	e.corpus.add(offers, idxs)
	if e.corpus.len() > fromSlot {
		e.grow(fromSlot, fromTitle)
	}
}

// neighbourSlots returns slot a's memoized top-K neighbour slots (exact,
// by cosine similarity descending with ties broken by ascending slot).
// Each cosine is vector.Cosine's expression over the slot norms grow
// computed once, so the scores are bit-identical to it.
func (e *EmbeddingIndex) neighbourSlots(a int) []int32 {
	return e.memo.get(a, func() []int32 {
		top := make(vector.TopK, 0, e.k)
		na := e.norms[a]
		for b := range e.vecs {
			if b == a {
				continue
			}
			var sim float64
			if nb := e.norms[b]; na != 0 && nb != 0 {
				sim = vector.Dot(e.vecs[a], e.vecs[b]) / (na * nb)
			}
			top.Offer(vector.Neighbor{ID: b, Sim: sim}, e.k)
		}
		return neighbourIDs(top)
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
				keys = append(keys, pairKey(e.corpus.order[s], e.corpus.order[nb]))
			}
		}
	}
	return unpackPairs(keys, e.workers)
}
