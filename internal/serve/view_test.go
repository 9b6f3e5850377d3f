// The layered-view suite: the publication equivalence property (after
// every applied batch, the published view answers byte-identically to a
// from-scratch adjacency rebuild, across engines and worker counts,
// through forced compactions), plus the publication-dedup regression —
// engines that emit a candidate pair more than once must still yield
// sorted, duplicate-free partner lists — on both the delta layer path
// and the ErrNoDelta full-rebuild fallback, and the guard that a delta
// layer's allocations track its pairs, not the corpus.

package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
)

// TestLayeredViewEquivalence is the core property of the incremental
// write path: stream batches through applyBatch and, after every single
// publication, compare the layered view against s.buildView run fresh
// over the same index — every offer's match list and corpus position
// must agree exactly. The MinHash rows force CompactLayers low so the
// walk crosses several compactions, and the matrix covers the engine
// worker pool. The kNN rows (hnsw and ivf at the same worker counts, the
// exhaustive embedding index once) pin the other publish path: kNN
// adjacency is not monotone under Add, so every kNN batch must republish
// a full view with no delta layers instead of stacking pairs on partners
// the index has evicted. Row names keep their "/shards=1" suffix so test
// IDs stay stable across releases.
func TestLayeredViewEquivalence(t *testing.T) {
	all := fixture(t)
	titles := make([]string, 145)
	for i := range titles {
		titles[i] = all[i].Title
	}
	ecfg := embed.DefaultConfig()
	ecfg.Epochs = 2
	model := embed.Train(titles, ecfg, xrand.New(1).Stream("view-embed"))

	type row struct {
		name    string
		blocker blocking.IndexedBlocker
		knn     bool
	}
	var rows []row
	for _, workers := range []int{1, 2, 8} {
		rows = append(rows, row{
			name: fmt.Sprintf("workers=%d/shards=1", workers),
			blocker: &blocking.MinHashBlocker{
				Config: blocking.MinHashConfig{Bands: 48, Rows: 2, Workers: workers},
				Seed:   1,
			},
		})
		hb := blocking.NewHNSWBlocker(model, 6)
		hb.Config.Workers = workers
		ib := blocking.NewIVFBlocker(model, 6)
		ib.Config.Workers = workers
		for _, bl := range []blocking.IndexedBlocker{hb, ib} {
			rows = append(rows, row{
				name:    fmt.Sprintf("%s/workers=%d/shards=1", bl.Name(), workers),
				blocker: bl,
				knn:     true,
			})
		}
	}
	rows = append(rows, row{name: "embedding-knn", blocker: blocking.NewEmbeddingBlocker(model, 6), knn: true})

	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(all[:40])
			cfg.Blocker = r.blocker
			cfg.CompactLayers = 3
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkViewEquivalence(t, s)

			rng := rand.New(rand.NewSource(1))
			stream := all[40:145]
			for len(stream) > 0 {
				n := 7
				if n > len(stream) {
					n = len(stream)
				}
				s.applyBatch(context.Background(), stream[:n], rng)
				stream = stream[n:]
				checkViewEquivalence(t, s)
				if st := s.Stats(); r.knn && st.Layers != 0 {
					t.Fatalf("epoch %d: kNN view has %d delta layers, want a full republish", st.Epoch, st.Layers)
				}
			}
			v := s.view.Load()
			if len(v.offers) != 145 {
				t.Fatalf("streamed corpus has %d offers, want 145", len(v.offers))
			}
			if got := s.Stats().Compactions; !r.knn && got == 0 {
				t.Fatal("the walk crossed no compaction; CompactLayers=3 should have forced several")
			}
		})
	}
}

// checkViewEquivalence compares the published layered view against a
// from-scratch rebuild over the same index state: identical epoch
// corpus, identical id→index resolution, identical match lists, and an
// additive pair count (base + layers == the full adjacency).
func checkViewEquivalence(t *testing.T, s *Server) {
	t.Helper()
	v := s.view.Load()
	idxOf := make(map[int64]int, len(v.offers))
	for i := range v.offers {
		idxOf[v.offers[i].ID] = i
	}
	ref, err := s.buildView(v.epoch, v.offers, idxOf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.offers {
		id := v.offers[i].ID
		if idx, ok := v.indexOf(id); !ok || idx != i {
			t.Fatalf("epoch %d: indexOf(%d) = (%d, %v), want (%d, true)", v.epoch, id, idx, ok, i)
		}
		got, want := v.match(id), ref.match(id)
		if !slices.Equal(got, want) {
			t.Fatalf("epoch %d: match(%d) diverged from full rebuild:\n got %v\nwant %v",
				v.epoch, id, got, want)
		}
	}
	if total := v.base.pairs + v.deltaPairs; total != ref.base.pairs {
		t.Fatalf("epoch %d: base+delta pairs = %d, want %d (full adjacency)",
			v.epoch, total, ref.base.pairs)
	}
}

// dupIndex is a deliberately contract-violating fake: it proposes every
// same-title pair among the indexed offers but emits each pair twice.
// Publication must absorb that (partner lists stay sorted and unique).
type dupIndex struct {
	offers  []schemaorg.Offer
	indexed map[int]bool
	reorder bool // emit pairs in reverse lexicographic order, endpoints swapped
}

func newDupIndex(reorder bool) *dupIndex { return &dupIndex{indexed: map[int]bool{}, reorder: reorder} }

func (d *dupIndex) Name() string { return "dup-fake" }
func (d *dupIndex) Len() int     { return len(d.indexed) }
func (d *dupIndex) Add(offers []schemaorg.Offer, idxs []int) {
	d.offers = offers
	for _, i := range idxs {
		d.indexed[i] = true
	}
}

// pairsAmong returns every same-title pair with both endpoints in idxs,
// each emitted twice (the duplication under test), in lexicographic
// order or, with reorder, reversed with swapped endpoints.
func (d *dupIndex) pairsAmong(idxs []int) []blocking.CandidatePair {
	idxs = slices.Sorted(slices.Values(idxs))
	var out []blocking.CandidatePair
	for _, i := range idxs {
		for _, j := range idxs {
			if i < j && d.offers[i].Title == d.offers[j].Title {
				p := blocking.CandidatePair{A: i, B: j}
				out = append(out, p, p)
			}
		}
	}
	if d.reorder {
		slices.Reverse(out)
		for k := range out {
			out[k].A, out[k].B = out[k].B, out[k].A
		}
	}
	return out
}

func (d *dupIndex) Candidates(queryIdxs []int) []blocking.CandidatePair {
	for _, i := range queryIdxs {
		if !d.indexed[i] {
			panic(&blocking.UnindexedQueryError{Offer: i})
		}
	}
	return d.pairsAmong(queryIdxs)
}

// dupDeltaIndex adds the delta path to dupIndex, again emitting every
// pair twice.
type dupDeltaIndex struct{ *dupIndex }

func (d *dupDeltaIndex) DeltaCandidates(newIdxs []int) []blocking.CandidatePair {
	for _, i := range newIdxs {
		if !d.indexed[i] {
			panic(&blocking.UnindexedQueryError{Offer: i})
		}
	}
	in := map[int]bool{}
	for _, i := range newIdxs {
		in[i] = true
	}
	all := make([]int, 0, len(d.indexed))
	for i := range d.indexed {
		all = append(all, i)
	}
	var out []blocking.CandidatePair
	for _, p := range d.pairsAmong(all) {
		if in[p.A] || in[p.B] {
			out = append(out, p)
		}
	}
	return out
}

// dupBlocker builds dupIndex (delta selects the DeltaCandidates form,
// reorder the out-of-order emission).
type dupBlocker struct{ delta, reorder bool }

func (b dupBlocker) Name() string { return "dup-fake" }
func (b dupBlocker) Candidates(offers []schemaorg.Offer, idxs []int) []blocking.CandidatePair {
	return nil
}
func (b dupBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) blocking.Index {
	ix := newDupIndex(b.reorder)
	ix.Add(offers, idxs)
	if b.delta {
		return &dupDeltaIndex{ix}
	}
	return ix
}

// TestPublishDedupesDuplicatePairs pins the dedup-on-publication
// guarantee on both write paths: the delta-layer path (an engine's
// DeltaCandidates emits a pair twice) and the ErrNoDelta fallback (the
// full rebuild's Candidates emits a pair twice). Every served match
// list must come back strictly increasing — sorted with no duplicate
// partner IDs. The unsorted-ids rows give offer IDs that are not
// monotone in index order and the unsorted-pairs rows emit pairs out of
// lexicographic order, so neither order can stand in for the per-list
// sort publication does.
func TestPublishDedupesDuplicatePairs(t *testing.T) {
	seed := []schemaorg.Offer{
		{ID: 1, Title: "alpha"}, {ID: 2, Title: "alpha"},
		{ID: 3, Title: "beta"}, {ID: 4, Title: "beta"},
		{ID: 5, Title: "gamma"}, {ID: 6, Title: "alpha"},
	}
	batch := []schemaorg.Offer{
		{ID: 7, Title: "alpha"}, {ID: 8, Title: "beta"}, {ID: 9, Title: "delta"},
	}
	want := map[int64][]int64{
		1: {2, 6, 7}, 2: {1, 6, 7}, 3: {4, 8}, 4: {3, 8},
		5: {}, 6: {1, 2, 7}, 7: {1, 2, 6}, 8: {3, 4}, 9: {},
	}
	unsorted := map[int64]int64{1: 50, 2: 10, 3: 90, 4: 30, 5: 70, 6: 20, 7: 80, 8: 40, 9: 60}
	for _, tc := range []struct {
		name       string
		delta      bool
		wantLayers int
		renumber   bool
		reorder    bool
	}{
		{name: "delta-layer", delta: true, wantLayers: 1},
		{name: "errnodelta-fallback", delta: false, wantLayers: 0},
		{name: "delta-layer/unsorted-ids", delta: true, wantLayers: 1, renumber: true},
		{name: "errnodelta-fallback/unsorted-ids", delta: false, wantLayers: 0, renumber: true},
		{name: "delta-layer/unsorted-pairs", delta: true, wantLayers: 1, reorder: true},
		{name: "errnodelta-fallback/unsorted-pairs", delta: false, wantLayers: 0, reorder: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := func(x int64) int64 {
				if tc.renumber {
					return unsorted[x]
				}
				return x
			}
			renumbered := func(offers []schemaorg.Offer) []schemaorg.Offer {
				out := slices.Clone(offers)
				for i := range out {
					out[i].ID = id(out[i].ID)
				}
				return out
			}
			cfg := testConfig(renumbered(seed))
			cfg.Blocker = dupBlocker{delta: tc.delta, reorder: tc.reorder}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.applyBatch(context.Background(), renumbered(batch), rand.New(rand.NewSource(1)))
			st := s.Stats()
			if st.Epoch != 1 || st.Offers != 9 {
				t.Fatalf("published epoch %d with %d offers, want epoch 1 with 9", st.Epoch, st.Offers)
			}
			if st.Layers != tc.wantLayers {
				t.Fatalf("view has %d layers, want %d", st.Layers, tc.wantLayers)
			}
			for x, partners := range want {
				wantPartners := make([]int64, len(partners))
				for k, p := range partners {
					wantPartners[k] = id(p)
				}
				slices.Sort(wantPartners)
				got, _, merr := s.Match(context.Background(), id(x))
				if merr != nil {
					t.Fatalf("Match(%d): %v", id(x), merr)
				}
				if !slices.IsSortedFunc(got, func(a, b int64) int {
					if a < b {
						return -1
					}
					return 1 // equal counts as disorder: duplicates must not survive
				}) {
					t.Fatalf("Match(%d) = %v is not strictly increasing", id(x), got)
				}
				if len(got) != len(wantPartners) || (len(got) > 0 && !slices.Equal(got, wantPartners)) {
					t.Fatalf("Match(%d) = %v, want %v", id(x), got, wantPartners)
				}
			}
		})
	}
}

// adjacencySink keeps the layers TestDeltaLayerBytesTrackPairs builds
// reachable, so the allocations it measures cannot be optimized away.
var adjacencySink *adjacency

// TestDeltaLayerBytesTrackPairs guards the delta publish path against an
// O(corpus) buffer in newAdjacency: a 10-pair layer must allocate the
// same bytes, within 2x, over a 1k-offer and a 100k-offer corpus. A
// degree array sized by the corpus would allocate 100x more at 100k.
func TestDeltaLayerBytesTrackPairs(t *testing.T) {
	bytesPerLayer := func(n int) uint64 {
		offers := make([]schemaorg.Offer, n)
		for i := range offers {
			offers[i] = schemaorg.Offer{ID: int64(n - i), Title: "t"}
		}
		// Five batch offers at the corpus tail, each paired with two old
		// offers spread over the whole corpus.
		batch := map[int64]int{}
		pairs := make([]blocking.CandidatePair, 10)
		for k := range pairs {
			b := n - 1 - k%5
			batch[offers[b].ID] = b
			pairs[k] = blocking.CandidatePair{A: k * (n / 10), B: b}
		}
		best := uint64(math.MaxUint64)
		for trial := 0; trial < 3; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 50
			for r := 0; r < runs; r++ {
				adjacencySink = newAdjacency(offers, batch, pairs)
			}
			runtime.ReadMemStats(&after)
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}
	small, large := bytesPerLayer(1000), bytesPerLayer(100000)
	if large > 2*small {
		t.Fatalf("10-pair layer allocates %d B over 100k offers vs %d B over 1k: cost must track the pairs, not the corpus", large, small)
	}
}
