package lsh

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wdcproducts/internal/xrand"
)

// randomSet draws a sorted unique token-ID set of the given size from a
// universe of u tokens.
func randomSet(rng *rand.Rand, size, u int) []int32 {
	seen := map[int32]struct{}{}
	for len(seen) < size {
		seen[int32(rng.Intn(u))] = struct{}{}
	}
	out := make([]int32, 0, size)
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// jaccard is the exact Jaccard similarity of two sorted sets.
func jaccard(a, b []int32) float64 {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func TestSignatureDeterministic(t *testing.T) {
	set := []int32{3, 17, 99, 512}
	s1 := NewSigner(64, xrand.New(7).Stream("lsh"))
	s2 := NewSigner(64, xrand.New(7).Stream("lsh"))
	a := s1.Signature(set, nil)
	b := s2.Signature(set, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signatures differ at position %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSignatureEstimatesJaccard(t *testing.T) {
	// MinHash collision probability per position equals Jaccard; with 256
	// hashes the estimate should land within ±0.12 of the exact value.
	rng := rand.New(rand.NewSource(5))
	signer := NewSigner(256, xrand.New(5).Stream("lsh"))
	for trial := 0; trial < 20; trial++ {
		a := randomSet(rng, 30, 200)
		b := randomSet(rng, 30, 200)
		est := EstimateJaccard(signer.Signature(a, nil), signer.Signature(b, nil))
		exact := jaccard(a, b)
		if d := est - exact; d < -0.12 || d > 0.12 {
			t.Fatalf("trial %d: estimate %.3f vs exact %.3f", trial, est, exact)
		}
	}
}

func TestIdenticalSetsAlwaysCandidates(t *testing.T) {
	set := []int32{1, 2, 3, 4, 5}
	ix := NewIndex(Config{Bands: 16, Rows: 4}, xrand.New(1).Stream("lsh"))
	ix.Build([][]int32{set, {100, 200, 300}, append([]int32(nil), set...)})
	pairs := ix.CandidatePairsAmong(nil)
	found := false
	for _, p := range pairs {
		if p == [2]int{0, 2} {
			found = true
		}
		if p[0] >= p[1] {
			t.Fatalf("unordered pair %v", p)
		}
	}
	if !found {
		t.Fatal("identical sets were not proposed as a candidate pair")
	}
}

func TestBuildWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := make([][]int32, 120)
	for i := range sets {
		sets[i] = randomSet(rng, 5+rng.Intn(10), 300)
	}
	candidates := func(workers int) [][2]int {
		cfg := Config{Bands: 16, Rows: 4}
		cfg.Workers = workers
		ix := NewIndex(cfg, xrand.New(3).Stream("lsh"))
		ix.Build(sets)
		return ix.CandidatePairsAmong(nil)
	}
	serial, par := candidates(1), candidates(8)
	if len(serial) != len(par) {
		t.Fatalf("worker count changed candidate count: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, serial[i], par[i])
		}
	}
}

func TestHighSimilarityPairsRecalled(t *testing.T) {
	// Pairs well above the band threshold must be proposed with near
	// certainty: build 40 base sets plus a 90%-overlapping twin for each.
	rng := rand.New(rand.NewSource(23))
	var sets [][]int32
	for i := 0; i < 40; i++ {
		base := randomSet(rng, 20, 4000)
		twin := append([]int32(nil), base[:18]...)
		twin = append(twin, int32(4000+2*i), int32(4001+2*i))
		sort.Slice(twin, func(a, b int) bool { return twin[a] < twin[b] })
		sets = append(sets, base, twin)
	}
	ix := NewIndex(Config{Bands: 16, Rows: 4}, xrand.New(9).Stream("lsh"))
	ix.Build(sets)
	got := map[[2]int]bool{}
	for _, p := range ix.CandidatePairsAmong(nil) {
		got[p] = true
	}
	recalled := 0
	for i := 0; i < 40; i++ {
		if got[[2]int{2 * i, 2*i + 1}] {
			recalled++
		}
	}
	if recalled < 38 {
		t.Fatalf("only %d/40 high-similarity twins recalled", recalled)
	}
}

// TestQueryMatchesCandidatePairs: the per-set query — the union of
// Bucket(band, BandKey(i, band)) over every band — must name exactly the
// partners of set i among the swept candidate pairs, plus i itself.
func TestQueryMatchesCandidatePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sets := make([][]int32, 60)
	for i := range sets {
		sets[i] = randomSet(rng, 8, 100)
	}
	ix := NewIndex(Config{Bands: 16, Rows: 4}, xrand.New(13).Stream("lsh"))
	ix.Build(sets)
	pairsOf := make([]map[int]bool, len(sets))
	for i := range pairsOf {
		pairsOf[i] = map[int]bool{i: true}
	}
	for _, p := range ix.CandidatePairsAmong(nil) {
		pairsOf[p[0]][p[1]] = true
		pairsOf[p[1]][p[0]] = true
	}
	for i := range sets {
		got := bucketQuery(ix, i)
		if len(got) != len(pairsOf[i]) {
			t.Fatalf("query of set %d found %d sets, candidate pairs name %d", i, len(got), len(pairsOf[i]))
		}
		for j := range got {
			if !pairsOf[i][j] {
				t.Fatalf("query of set %d returned %d but CandidatePairsAmong does not contain the pair", i, j)
			}
		}
	}
}

// bucketQuery collects the indexed sets sharing a band bucket with set i,
// i included.
func bucketQuery(ix *Index, i int) map[int]bool {
	out := map[int]bool{}
	for band := 0; band < ix.Config().Bands; band++ {
		for _, m := range ix.Bucket(band, ix.BandKey(i, band)) {
			out[int(m)] = true
		}
	}
	return out
}

func TestEmptySets(t *testing.T) {
	ix := NewIndex(Config{Bands: 16, Rows: 4}, xrand.New(2).Stream("lsh"))
	ix.Build([][]int32{{}, {1, 2}, {}})
	got := map[[2]int]bool{}
	for _, p := range ix.CandidatePairsAmong(nil) {
		got[p] = true
	}
	if !got[[2]int{0, 2}] {
		t.Fatal("two empty sets should collide (identical all-max signatures)")
	}
	if got[[2]int{0, 1}] || got[[2]int{1, 2}] {
		t.Fatal("empty set collided with a non-empty set")
	}
}

func TestThreshold(t *testing.T) {
	cfg := Config{Bands: 16, Rows: 4}
	th := cfg.Threshold()
	if th < 0.49 || th > 0.51 {
		t.Fatalf("16x4 threshold = %.3f, want ~0.5", th)
	}
}

// TestAddMatchesBuild: an index grown one set at a time — from empty or
// from a Build over a prefix — must be indistinguishable from one Build
// over the full collection, signature by signature and pair by pair.
func TestAddMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sets := make([][]int32, 60)
	for i := range sets {
		sets[i] = randomSet(rng, 4+rng.Intn(8), 120)
	}
	cfg := Config{Bands: 12, Rows: 2, Workers: 1}
	full := NewIndex(cfg, xrand.New(9).Stream("minhash-lsh"))
	full.Build(sets)
	for _, cut := range []int{0, 1, 17, len(sets)} {
		grown := NewIndex(cfg, xrand.New(9).Stream("minhash-lsh"))
		grown.Build(sets[:cut])
		for _, s := range sets[cut:] {
			grown.Add(s)
		}
		if grown.Len() != full.Len() {
			t.Fatalf("cut %d: Len = %d, want %d", cut, grown.Len(), full.Len())
		}
		for i := 0; i < full.Len(); i++ {
			a, b := grown.Signature(i), full.Signature(i)
			for p := range a {
				if a[p] != b[p] {
					t.Fatalf("cut %d: signature %d differs at position %d", cut, i, p)
				}
			}
		}
		gp, fp := grown.CandidatePairsAmong(nil), full.CandidatePairsAmong(nil)
		if len(gp) != len(fp) {
			t.Fatalf("cut %d: %d pairs grown vs %d built", cut, len(gp), len(fp))
		}
		for i := range gp {
			if gp[i] != fp[i] {
				t.Fatalf("cut %d: pair %d differs: %v vs %v", cut, i, gp[i], fp[i])
			}
		}
	}
}

// TestCandidatePairsAmongRestriction: restricting the pair scan to a
// subset must equal filtering the full pair set — a band collision is a
// pairwise property, independent of what else is indexed.
func TestCandidatePairsAmongRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sets := make([][]int32, 80)
	for i := range sets {
		sets[i] = randomSet(rng, 5, 60)
	}
	ix := NewIndex(Config{Bands: 16, Rows: 2, Workers: 1}, xrand.New(3).Stream("minhash-lsh"))
	ix.Build(sets)
	member := func(i int) bool { return i%3 != 0 }
	var want [][2]int
	for _, p := range ix.CandidatePairsAmong(nil) {
		if member(p[0]) && member(p[1]) {
			want = append(want, p)
		}
	}
	got := ix.CandidatePairsAmong(member)
	if len(got) != len(want) {
		t.Fatalf("restricted scan found %d pairs, filtered full scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// bruteCandidatePairs is the reference CandidatePairsAmong: every i<j
// pair of included sets that agrees on at least one BandKey, enumerated
// in lexicographic order, so the result is sorted and unique by
// construction.
func bruteCandidatePairs(ix *Index, include func(i int) bool) [][2]int {
	var out [][2]int
	for i := 0; i < ix.Len(); i++ {
		for j := i + 1; j < ix.Len(); j++ {
			if include != nil && (!include(i) || !include(j)) {
				continue
			}
			for band := 0; band < ix.Config().Bands; band++ {
				if ix.BandKey(i, band) == ix.BandKey(j, band) {
					out = append(out, [2]int{i, j})
					break
				}
			}
		}
	}
	return out
}

// TestCandidatePairsAmongBruteForce pins the bucket sweep's exact output
// — pairs, order and uniqueness — against the quadratic reference, with
// no filter and with random include filters, over empty, singleton,
// all-identical and random collections.
func TestCandidatePairsAmongBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	same := make([][]int32, 12)
	for i := range same {
		same[i] = []int32{4, 8, 15, 16, 23, 42}
	}
	random := make([][]int32, 90)
	for i := range random {
		random[i] = randomSet(rng, 4, 30)
	}
	for _, c := range []struct {
		name string
		sets [][]int32
	}{{"empty", nil}, {"singleton", [][]int32{{1, 2, 3}}}, {"identical", same}, {"random", random}} {
		name, sets := c.name, c.sets
		for _, workers := range []int{1, 4} {
			ix := NewIndex(Config{Bands: 8, Rows: 2, Workers: workers}, xrand.New(5).Stream("minhash-lsh"))
			ix.Build(sets)
			filters := []func(int) bool{nil}
			for f := 0; f < 4; f++ {
				keep := make([]bool, len(sets))
				for i := range keep {
					keep[i] = rng.Intn(3) > 0
				}
				filters = append(filters, func(i int) bool { return keep[i] })
			}
			for f, include := range filters {
				got, want := ix.CandidatePairsAmong(include), bruteCandidatePairs(ix, include)
				for k := 1; k < len(got); k++ {
					if p, q := got[k-1], got[k]; p[0] > q[0] || (p[0] == q[0] && p[1] >= q[1]) {
						t.Fatalf("%s/workers=%d/filter %d: pairs %v, %v not strictly increasing", name, workers, f, p, q)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/workers=%d/filter %d: sweep found %v, brute force %v", name, workers, f, got, want)
				}
			}
			if name == "identical" && len(bruteCandidatePairs(ix, nil)) != len(sets)*(len(sets)-1)/2 {
				t.Fatalf("identical sets must all pair up")
			}
		}
	}
}

// TestAppendBandPairsAcrossAdds pins the property a band-at-a-time query
// rests on: a sweep of bands [0, k), then Adds, then a sweep of bands
// [k, Bands), with the filter capped at the n sets indexed before the
// Adds, yields exactly the pairs one CandidatePairsAmong took before
// them. The Adds repeat included sets' tokens (colliding in every
// band), perturb them by one token (colliding in some bands) and add
// novel sets. Every cut k is checked, with no filter and with random
// ones.
func TestAppendBandPairsAcrossAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := make([][]int32, 70)
	for i := range sets {
		sets[i] = randomSet(rng, 4, 40)
	}
	n := len(sets)
	var added [][]int32
	for i := 0; i < 30; i++ {
		src := sets[rng.Intn(n)]
		switch i % 3 {
		case 0: // equal to an indexed set
			added = append(added, slices.Clone(src))
		case 1: // one token off an indexed set
			s := slices.Clone(src)
			s[rng.Intn(len(s))] = int32(40 + rng.Intn(20))
			slices.Sort(s)
			added = append(added, slices.Compact(s))
		default: // novel tokens
			added = append(added, randomSet(rng, 4, 40+rng.Intn(60)))
		}
	}
	cfg := Config{Bands: 8, Rows: 2, Workers: 1}
	grown := NewIndex(cfg, xrand.New(5).Stream("minhash-lsh"))
	grown.Build(append(slices.Clone(sets), added...))
	cross := 0
	for _, p := range grown.CandidatePairsAmong(nil) {
		if p[0] < n && p[1] >= n {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no added set collides with an indexed one; the test checks nothing")
	}
	filters := []func(int) bool{nil}
	for f := 0; f < 4; f++ {
		keep := make([]bool, n)
		for i := range keep {
			keep[i] = rng.Intn(3) > 0
		}
		filters = append(filters, func(i int) bool { return keep[i] })
	}
	for f, filter := range filters {
		include := func(i int) bool { return i < n && (filter == nil || filter(i)) }
		for k := 0; k <= cfg.Bands; k++ {
			ix := NewIndex(cfg, xrand.New(5).Stream("minhash-lsh"))
			ix.Build(sets)
			want := ix.CandidatePairsAmong(filter)
			var keys []uint64
			for band := 0; band < k; band++ {
				keys = ix.AppendBandPairs(keys, band, include)
			}
			for _, s := range added {
				ix.Add(s)
			}
			for band := k; band < cfg.Bands; band++ {
				keys = ix.AppendBandPairs(keys, band, include)
			}
			if got := SortedPairs(keys, 1); !slices.Equal(got, want) {
				t.Fatalf("filter %d, k=%d: split sweep found %v, one sweep before the Adds %v", f, k, got, want)
			}
		}
	}
}
