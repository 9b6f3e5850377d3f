// EmbeddingIndex, the exact-kNN index (exhaustive scan), and the
// per-slot memo it shares with the approximate ShardedKNNIndex. Both
// encode each distinct title once at Build/Add time and materialize
// per-node neighbour lists lazily, at most once per node, so the first
// query after a build pays the searches and every later query is a filter
// over frozen lists. Add invalidates the memo wholesale: a new node can be
// a nearer neighbour of any existing one.

package blocking

import (
	"sync"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/parallel"
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
	set := map[CandidatePair]bool{}
	for _, s := range slots {
		for _, nb := range e.neighbourSlots(s) {
			if inQuery[nb] {
				set[orderedPair(e.order[s], e.order[nb])] = true
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
