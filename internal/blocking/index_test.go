package blocking

import (
	"fmt"
	"sync"
	"testing"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/synth"
	"wdcproducts/internal/xrand"
)

// indexedBlockers returns one IndexedBlocker of every strategy at the
// given worker count, on the shared fixture model.
func indexedBlockers(workers int) []IndexedBlocker {
	mh := NewMinHashBlocker()
	mh.Config.Workers = workers
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = workers
	eb := NewEmbeddingBlocker(model, 6)
	eb.Workers = workers
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = workers
	return []IndexedBlocker{mh, hb, eb, ib}
}

func samePairs(t *testing.T, name string, got, want []CandidatePair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// TestIndexFullUniverseMatchesRebuild is the central reuse property:
// building an index once and querying the full build universe repeatedly
// must be byte-identical to the blocker's rebuild-per-call Candidates —
// for every strategy, at any worker count.
func TestIndexFullUniverseMatchesRebuild(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, workers := range []int{1, 7} {
		for _, bl := range indexedBlockers(workers) {
			name := fmt.Sprintf("%s/workers=%d", bl.Name(), workers)
			want := bl.Candidates(offers, idxs)
			ix := bl.BuildIndex(offers, idxs)
			if ix.Len() != len(idxs) {
				t.Fatalf("%s: index holds %d offers, want %d", name, ix.Len(), len(idxs))
			}
			for rep := 0; rep < 3; rep++ {
				samePairs(t, fmt.Sprintf("%s rep %d", name, rep), ix.Candidates(idxs), want)
			}
		}
	}
}

// TestMinHashCandidatesWorkerInvariantAtScale repeats the worker-count
// check over the fixture grown to 3k synthetic offers, where both the
// title-pair and the offer-pair sort outgrow their row range and take
// lsh.SortPairKeys's row kernel (the fixture's offer pairs are fewer
// than its offer rows, so they stay on the slices.Sort fallback). The
// answer must be strictly ascending and the same at workers 1 and 7.
func TestMinHashCandidatesWorkerInvariantAtScale(t *testing.T) {
	seed, _, _ := fixture(t)
	c, err := synth.Grow(seed, synth.ScaleConfig(3000, 42))
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([]int, len(c.Offers))
	for i := range idxs {
		idxs[i] = i
	}
	var want []CandidatePair
	for _, workers := range []int{1, 7} {
		bl := &MinHashBlocker{Config: MinHashConfig{Bands: 16, Rows: 4, Workers: workers}, Seed: 1}
		got := bl.BuildIndex(c.Offers, idxs).Candidates(idxs)
		if len(got) < len(idxs) {
			t.Fatalf("workers=%d: %d pairs over %d offers; the offer pairs would not reach the row kernel", workers, len(got), len(idxs))
		}
		for k := 1; k < len(got); k++ {
			if a, b := got[k-1], got[k]; a.A > b.A || a.A == b.A && a.B >= b.B {
				t.Fatalf("workers=%d: pair %d %+v does not follow %+v", workers, k, b, a)
			}
		}
		if want == nil {
			want = got
			continue
		}
		samePairs(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestIndexSubsetQueryIsRestriction: a split query against a corpus-wide
// index must equal the full-universe candidate set filtered to pairs whose
// endpoints both lie in the split — neighbour and collision structure
// belongs to the corpus, the query only restricts.
func TestIndexSubsetQueryIsRestriction(t *testing.T) {
	offers, idxs, _ := fixture(t)
	subset := make([]int, 0, len(idxs)/2)
	inSubset := map[int]bool{}
	for k, i := range idxs {
		if k%2 == 0 {
			subset = append(subset, i)
			inSubset[i] = true
		}
	}
	for _, bl := range indexedBlockers(1) {
		ix := bl.BuildIndex(offers, idxs)
		var want []CandidatePair
		for _, p := range ix.Candidates(idxs) {
			if inSubset[p.A] && inSubset[p.B] {
				want = append(want, p)
			}
		}
		samePairs(t, bl.Name(), ix.Candidates(subset), want)
	}
}

// TestIndexIncrementalAdd: an index grown by Adding offers one at a time
// must produce candidates identical to a fresh Build over the union. The
// IVF blocker's quantizer trains on a prefix (TrainSize), so its initial
// build must cover that prefix — the documented contract for exact
// incremental insertion.
func TestIndexIncrementalAdd(t *testing.T) {
	offers, idxs, _ := fixture(t)
	cut := len(idxs) * 2 / 3
	mh := NewMinHashBlocker()
	mh.Config.Workers = 1
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = 1
	eb := NewEmbeddingBlocker(model, 6)
	eb.Workers = 1
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = 1
	ib.Config.TrainSize = 32 // covered by the initial two-thirds build
	if cut < ib.Config.TrainSize {
		t.Fatalf("fixture too small: cut %d < TrainSize %d", cut, ib.Config.TrainSize)
	}
	for _, bl := range []IndexedBlocker{mh, hb, eb, ib} {
		grown := bl.BuildIndex(offers, idxs[:cut])
		for _, i := range idxs[cut:] {
			grown.Add(offers, []int{i})
		}
		fresh := bl.BuildIndex(offers, idxs)
		if grown.Len() != fresh.Len() {
			t.Fatalf("%s: grown index holds %d offers, fresh %d", bl.Name(), grown.Len(), fresh.Len())
		}
		samePairs(t, bl.Name(), grown.Candidates(idxs), fresh.Candidates(idxs))
	}
}

// TestIndexAddIgnoresIndexedOffers: re-Adding already-indexed offers must
// change nothing, so Add(union) and Add of overlapping pieces agree.
func TestIndexAddIgnoresIndexedOffers(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, bl := range indexedBlockers(1) {
		ix := bl.BuildIndex(offers, idxs)
		want := ix.Candidates(idxs)
		ix.Add(offers, idxs[:len(idxs)/2])
		if ix.Len() != len(idxs) {
			t.Fatalf("%s: duplicate Add grew the index to %d", bl.Name(), ix.Len())
		}
		samePairs(t, bl.Name(), ix.Candidates(idxs), want)
	}
}

// TestIndexQueryUnindexedOfferPanics: silently dropping unknown offers
// would under-report candidates, so the contract is a panic.
func TestIndexQueryUnindexedOfferPanics(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, bl := range indexedBlockers(1) {
		ix := bl.BuildIndex(offers, idxs[:len(idxs)-1])
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: unindexed query offer did not panic", bl.Name())
				}
			}()
			ix.Candidates(idxs)
		}()
	}
}

// TestConcurrentQueriesHammer drives many concurrent Candidates calls —
// full-universe and subsets, with no writes in flight — against one index
// of each strategy. Run under -race this pins the lazily materialized
// neighbour memos; every goroutine must also see identical candidates.
func TestConcurrentQueriesHammer(t *testing.T) {
	offers, idxs, _ := fixture(t)
	subset := idxs[:len(idxs)/2]
	for _, bl := range indexedBlockers(0) {
		ix := bl.BuildIndex(offers, idxs)
		wantFull := ix.Candidates(idxs)
		wantSub := ix.Candidates(subset)
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					q, want := idxs, wantFull
					if (g+rep)%2 == 1 {
						q, want = subset, wantSub
					}
					got := ix.Candidates(q)
					if len(got) != len(want) {
						errs <- fmt.Sprintf("%s: goroutine %d saw %d pairs, want %d",
							bl.Name(), g, len(got), len(want))
						return
					}
					for i := range got {
						if got[i] != want[i] {
							errs <- fmt.Sprintf("%s: goroutine %d pair %d differs", bl.Name(), g, i)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestBlockerCandidatesCacheReuse: repeated Candidates calls over the same
// corpus must stay byte-identical, and switching corpora must never serve
// pairs from the previous universe.
func TestBlockerCandidatesCacheReuse(t *testing.T) {
	offers, idxs, _ := fixture(t)
	half := idxs[:len(idxs)/2]
	for _, bl := range indexedBlockers(1) {
		full1 := bl.Candidates(offers, idxs)
		full2 := bl.Candidates(offers, idxs)
		samePairs(t, bl.Name()+" repeat", full2, full1)
		halfCands := bl.Candidates(offers, half)
		universe := pairUniverse(half)
		for _, p := range halfCands {
			if !universe[p] {
				t.Fatalf("%s: stale index leaked pair %+v outside the half universe", bl.Name(), p)
			}
		}
		samePairs(t, bl.Name()+" after switch", bl.Candidates(offers, idxs), full1)
	}
}

// TestBlockerCacheMissesOnModelSwap: reassigning the exported Model field
// must rebuild the index instead of serving candidates computed in the
// old geometry.
func TestBlockerCacheMissesOnModelSwap(t *testing.T) {
	offers, idxs, _ := fixture(t)
	titles := make([]string, len(offers))
	for i := range offers {
		titles[i] = offers[i].Title
	}
	cfg := embed.DefaultConfig()
	cfg.Epochs = 1
	other := embed.Train(titles, cfg, xrand.New(991).Stream("swap"))
	eb := NewEmbeddingBlocker(model, 6)
	cached := eb.Candidates(offers, idxs)
	eb.Model = other
	swapped := eb.Candidates(offers, idxs)
	fresh := NewEmbeddingBlocker(other, 6).Candidates(offers, idxs)
	samePairs(t, "embedding-knn after model swap", swapped, fresh)
	if len(cached) == len(swapped) {
		same := true
		for i := range cached {
			if cached[i] != swapped[i] {
				same = false
				break
			}
		}
		if same {
			t.Log("note: both models agree on this fixture; equality to the fresh build above is the real check")
		}
	}
}

// TestIVFBlockerQuality pins the acceptance floor of the IVF blocker on
// the fixture corpus: at equal K it must recover >= 0.85 of the exhaustive
// embedding blocker's pairs, while pruning the pair space.
func TestIVFBlockerQuality(t *testing.T) {
	offers, idxs, truth := fixture(t)
	const k = 6
	cands := NewIVFBlocker(model, k).Candidates(offers, idxs)
	m := Evaluate(cands, idxs, truth)
	t.Logf("ivf-knn: %d candidates, completeness %.3f, reduction %.3f",
		m.Candidates, m.PairCompleteness, m.ReductionRatio)
	exhaustive := NewEmbeddingBlocker(model, k).Candidates(offers, idxs)
	recall := overlapRecall(pairSet(cands), exhaustive)
	t.Logf("ivf-knn recall of exhaustive embedding-knn pairs: %.3f", recall)
	if recall < 0.85 {
		t.Fatalf("ivf-knn covers only %.3f of exhaustive knn pairs, want >= 0.85", recall)
	}
	if m.ReductionRatio < 0.3 {
		t.Fatalf("ivf-knn reduction = %.3f (no pruning)", m.ReductionRatio)
	}
}

// TestIVFBlockerDeterministic: like the other sublinear blockers, the IVF
// candidate set must be identical at any worker count.
func TestIVFBlockerDeterministic(t *testing.T) {
	offers, idxs, _ := fixture(t)
	run := func(workers int) []CandidatePair {
		b := NewIVFBlocker(model, 6)
		b.Config.Workers = workers
		return b.Candidates(offers, idxs)
	}
	samePairs(t, "ivf-knn", run(8), run(1))
}

// TestIVFBlockerIdenticalTitlesAlwaysPaired mirrors the sublinear-blocker
// guarantee for the IVF path.
func TestIVFBlockerIdenticalTitlesAlwaysPaired(t *testing.T) {
	fixture(t) // ensures the shared model is trained
	offers := []schemaorg.Offer{
		{Title: "acme widget pro 3000 silver"},
		{Title: "totally different product name"},
		{Title: "acme widget pro 3000 silver"},
		{Title: "another unrelated thing entirely"},
	}
	b := NewIVFBlocker(model, 1)
	b.Config = ivf.Config{NLists: 2, NProbe: 1, TrainSize: 4, Iters: 2, Workers: 1}
	got := b.Candidates(offers, []int{0, 1, 2, 3})
	if !pairSet(got)[CandidatePair{A: 0, B: 2}] {
		t.Fatal("ivf-knn did not pair identical titles")
	}
}
