package ivf

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wdcproducts/internal/vector"
	"wdcproducts/internal/xrand"
)

// clusteredVecs draws n vectors around k well-separated random centres —
// the geometry IVF is built for.
func clusteredVecs(rng *rand.Rand, n, k, dim int) [][]float32 {
	centres := make([][]float32, k)
	for c := range centres {
		centres[c] = make([]float32, dim)
		for d := range centres[c] {
			centres[c][d] = float32(rng.NormFloat64() * 4)
		}
	}
	out := make([][]float32, n)
	for i := range out {
		c := centres[rng.Intn(k)]
		v := make([]float32, dim)
		for d := range v {
			v[d] = c[d] + float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// bruteKNN returns the exact top-k ids by cosine similarity, ties broken
// by ascending id.
func bruteKNN(vecs [][]float32, q []float32, k int) []int {
	type sc struct {
		id  int
		sim float64
	}
	all := make([]sc, len(vecs))
	for i, v := range vecs {
		all[i] = sc{i, vector.Cosine(q, v)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = all[i].id
	}
	return ids
}

// TestExhaustiveProbeMatchesBruteForce: with NProbe == NLists every list
// is scanned, so Search must equal the exact top-k.
func TestExhaustiveProbeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vecs := clusteredVecs(rng, 200, 6, 16)
	cfg := Config{NLists: 8, NProbe: 8, TrainSize: 200, Iters: 10, Workers: 1}
	ix := Build(vecs, cfg, xrand.New(7).Stream("ivf"))
	for _, q := range []int{0, 57, 199} {
		got := ix.Search(vecs[q], 10)
		want := bruteKNN(vecs, vecs[q], 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("query %d: result %d = %d, want %d", q, i, got[i].ID, want[i])
			}
		}
	}
}

// TestProbedRecall pins the recall floor of the default probe budget on
// clustered vectors.
func TestProbedRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vecs := clusteredVecs(rng, 600, 10, 16)
	cfg := Config{NLists: 0, NProbe: 6, TrainSize: 512, Iters: 10, Workers: 0}
	ix := Build(vecs, cfg, xrand.New(3).Stream("ivf"))
	const k = 8
	hits, want := 0, 0
	for q := 0; q < len(vecs); q += 7 {
		exact := bruteKNN(vecs, vecs[q], k)
		set := map[int]bool{}
		for _, r := range ix.Search(vecs[q], k) {
			set[r.ID] = true
		}
		for _, id := range exact {
			want++
			if set[id] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(want)
	t.Logf("ivf recall@%d vs brute force: %.3f (nlists=%d)", k, recall, ix.NLists())
	if recall < 0.85 {
		t.Fatalf("recall = %.3f, want >= 0.85", recall)
	}
}

// TestDeterministicAndWorkerInvariant: identical seeds must give identical
// indexes at any worker count.
func TestDeterministicAndWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vecs := clusteredVecs(rng, 300, 5, 12)
	mk := func(workers int) *Index {
		cfg := Config{NLists: 9, NProbe: 3, TrainSize: 256, Iters: 8, Workers: workers}
		return Build(vecs, cfg, xrand.New(5).Stream("ivf"))
	}
	a, b := mk(1), mk(8)
	la, lb := a.ListSizes(), b.ListSizes()
	for c := range la {
		if la[c] != lb[c] {
			t.Fatalf("list %d sized %d vs %d across worker counts", c, la[c], lb[c])
		}
	}
	for q := 0; q < len(vecs); q += 31 {
		if !slices.Equal(a.Search(vecs[q], 6), b.Search(vecs[q], 6)) {
			t.Fatalf("query %d differs across worker counts", q)
		}
	}
}

// TestAddMatchesBuild: Build over a prefix covering the training set plus
// Add of each remaining vector must equal one Build over the full input —
// centroids never move after Build, so assignment is per-vector.
func TestAddMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vecs := clusteredVecs(rng, 240, 6, 12)
	cfg := Config{NLists: 0, NProbe: 4, TrainSize: 64, Iters: 10, Workers: 1}
	full := Build(vecs, cfg, xrand.New(2).Stream("ivf"))
	for _, cut := range []int{64, 100, 239} {
		grown := Build(vecs[:cut], cfg, xrand.New(2).Stream("ivf"))
		for _, v := range vecs[cut:] {
			grown.Add(v)
		}
		if grown.Len() != full.Len() || grown.NLists() != full.NLists() {
			t.Fatalf("cut %d: len/nlists %d/%d, want %d/%d",
				cut, grown.Len(), grown.NLists(), full.Len(), full.NLists())
		}
		ga, fa := grown.ListSizes(), full.ListSizes()
		for c := range ga {
			if ga[c] != fa[c] {
				t.Fatalf("cut %d: list %d sized %d vs %d", cut, c, ga[c], fa[c])
			}
		}
		for q := 0; q < len(vecs); q += 17 {
			if !slices.Equal(grown.Search(vecs[q], 7), full.Search(vecs[q], 7)) {
				t.Fatalf("cut %d: query %d differs between grown and built index", cut, q)
			}
		}
	}
}

// TestEdgeCases covers the empty index, degenerate k, and the Add guards.
func TestEdgeCases(t *testing.T) {
	empty := Build(nil, DefaultConfig(), xrand.New(1).Stream("ivf"))
	if empty.Len() != 0 || empty.Search(nil, 3) != nil {
		t.Fatal("empty index not empty")
	}
	// Adding to an empty-built index bootstraps a single-list quantizer;
	// searches degrade to exhaustive scans but stay correct.
	rngBoot := rand.New(rand.NewSource(6))
	boot := clusteredVecs(rngBoot, 25, 3, 8)
	for _, v := range boot {
		empty.Add(v)
	}
	if empty.Len() != len(boot) || empty.NLists() != 1 {
		t.Fatalf("bootstrapped index: len %d, nlists %d", empty.Len(), empty.NLists())
	}
	got := empty.Search(boot[3], 5)
	want := bruteKNN(boot, boot[3], 5)
	for i := range got {
		if got[i].ID != want[i] {
			t.Fatalf("bootstrapped search result %d = %d, want %d", i, got[i].ID, want[i])
		}
	}

	rng := rand.New(rand.NewSource(2))
	vecs := clusteredVecs(rng, 30, 3, 8)
	ix := Build(vecs, Config{NLists: 4, NProbe: 2, TrainSize: 30, Iters: 5, Workers: 1},
		xrand.New(9).Stream("ivf"))
	if got := ix.Search(vecs[0], 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	sum := 0
	for _, s := range ix.ListSizes() {
		sum += s
	}
	if sum != ix.Len() {
		t.Fatalf("list sizes sum to %d, want %d", sum, ix.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dimension mismatch did not panic")
			}
		}()
		ix.Add(make([]float32, 5))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("query dimension mismatch did not panic")
			}
		}()
		ix.Search(make([]float32, 3), 2)
	}()
}

// TestAutoNLists: the automatic list count follows the square root of the
// training-set size, not the corpus size, so incremental growth cannot
// change it.
func TestAutoNLists(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs := clusteredVecs(rng, 400, 4, 8)
	ix := Build(vecs, Config{NLists: 0, NProbe: 2, TrainSize: 100, Iters: 3, Workers: 1},
		xrand.New(4).Stream("ivf"))
	if ix.NLists() != 10 { // ceil(sqrt(100))
		t.Fatalf("auto nlists = %d, want 10", ix.NLists())
	}
}
