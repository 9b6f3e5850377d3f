package lsh

import (
	"fmt"
	"testing"

	"wdcproducts/internal/persist"
	"wdcproducts/internal/xrand"
)

// testSets builds a deterministic collection of token sets.
func testSets(n int) [][]int32 {
	sets := make([][]int32, n)
	rng := xrand.New(9).Stream("lsh-snapshot-sets")
	for i := range sets {
		m := 3 + rng.Intn(8)
		set := make([]int32, 0, m)
		for j := 0; j < m; j++ {
			set = append(set, int32(rng.Intn(200)))
		}
		sets[i] = set
	}
	return sets
}

func sameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len: %d vs %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		ws, gs := want.Signature(i), got.Signature(i)
		if fmt.Sprint(ws) != fmt.Sprint(gs) {
			t.Fatalf("signature %d differs", i)
		}
	}
	wp, gp := want.CandidatePairsAmong(nil), got.CandidatePairsAmong(nil)
	if fmt.Sprint(wp) != fmt.Sprint(gp) {
		t.Fatalf("candidate pairs differ:\n%v\nvs\n%v", wp, gp)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Bands: 8, Rows: 2, Workers: 1}
	sets := testSets(60)
	orig := NewIndex(cfg, xrand.New(3).Stream("lsh"))
	orig.Build(sets[:40])

	var b persist.Buffer
	orig.AppendSnapshot(&b)
	restored, err := RestoreIndex(cfg, xrand.New(3).Stream("lsh"), persist.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("RestoreIndex: %v", err)
	}
	sameIndex(t, orig, restored)

	// A restored index must continue the identical Add sequence.
	for _, s := range sets[40:] {
		orig.Add(s)
		restored.Add(s)
	}
	sameIndex(t, orig, restored)

	// And answer the per-set bucket lookup identically.
	for band := 0; band < cfg.Bands; band++ {
		want := orig.Bucket(band, orig.BandKey(5, band))
		if got := restored.Bucket(band, restored.BandKey(5, band)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("band %d bucket of set 5 diverged after restore: %v vs %v", band, got, want)
		}
	}
}

func TestRestoreIndexRejectsDamage(t *testing.T) {
	cfg := Config{Bands: 4, Rows: 2, Workers: 1}
	orig := NewIndex(cfg, xrand.New(3).Stream("lsh"))
	orig.Build(testSets(10))
	var b persist.Buffer
	orig.AppendSnapshot(&b)
	snap := b.Bytes()

	for n := 0; n < len(snap); n += 3 {
		if _, err := RestoreIndex(cfg, xrand.New(3).Stream("lsh"), persist.NewReader(snap[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// A config with a different signature length must be rejected.
	other := Config{Bands: 8, Rows: 2, Workers: 1}
	if _, err := RestoreIndex(other, xrand.New(3).Stream("lsh"), persist.NewReader(snap)); err == nil {
		t.Fatal("wrong-config restore accepted")
	}
	if _, err := RestoreIndex(Config{}, xrand.New(3).Stream("lsh"), persist.NewReader(snap)); err == nil {
		t.Fatal("zero-config restore accepted")
	}
}

func TestBandKeyMatchesBuckets(t *testing.T) {
	cfg := Config{Bands: 6, Rows: 3, Workers: 1}
	sets := testSets(30)
	ix := NewIndex(cfg, xrand.New(4).Stream("lsh"))
	ix.Build(sets)
	// Two sets share a band bucket iff their BandKeys agree in that band;
	// cross-check against the pairs the bucket scan reports.
	pairSet := map[[2]int]bool{}
	for _, p := range ix.CandidatePairsAmong(nil) {
		pairSet[p] = true
	}
	for a := 0; a < ix.Len(); a++ {
		for b := a + 1; b < ix.Len(); b++ {
			collide := false
			for band := 0; band < cfg.Bands; band++ {
				if ix.BandKey(a, band) == ix.BandKey(b, band) {
					collide = true
					break
				}
			}
			if collide != pairSet[[2]int{a, b}] {
				t.Fatalf("pair (%d,%d): BandKey collision %v, bucket pair %v", a, b, collide, pairSet[[2]int{a, b}])
			}
		}
	}
}
