package vector

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestTopKKeepsSortedPrefix: whatever the offer order, TopK keeps exactly
// the first k neighbours of the full (Sim descending, ID ascending) sort,
// and Sorted returns that prefix in order. Sims are drawn from a handful
// of values so most comparisons fall through to the ID tie-break.
func TestTopKKeepsSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		levels := 1 + rng.Intn(4) // 1 level: every Sim ties
		all := make([]Neighbor, n)
		for i, id := range rng.Perm(n) {
			all[i] = Neighbor{ID: id * 3, Sim: float64(rng.Intn(levels)) / 2}
		}
		want := slices.Clone(all)
		sort.Slice(want, func(a, b int) bool {
			if want[a].Sim != want[b].Sim {
				return want[a].Sim > want[b].Sim
			}
			return want[a].ID < want[b].ID
		})
		for _, k := range []int{0, 1, n / 2, n, n + 3} {
			var top TopK
			for _, nb := range all {
				top.Offer(nb, k)
			}
			prefix := want[:min(k, n)]
			kept := slices.Clone(top)
			slices.SortFunc(kept, func(a, b Neighbor) int { return a.ID - b.ID })
			byID := slices.Clone(prefix)
			slices.SortFunc(byID, func(a, b Neighbor) int { return a.ID - b.ID })
			if !slices.Equal(kept, byID) {
				t.Fatalf("trial %d n=%d k=%d: kept %v, want the set %v", trial, n, k, top, prefix)
			}
			if got := top.Sorted(); !slices.Equal(got, prefix) {
				t.Fatalf("trial %d n=%d k=%d: Sorted = %v, want %v", trial, n, k, got, prefix)
			}
		}
	}
}

// TestTopKRootIsWorstKept: a full TopK's root is its worst kept element,
// the bound a scan loop may reject candidates against before Offer.
func TestTopKRootIsWorstKept(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var top TopK
	for id := 0; id < 200; id++ {
		top.Offer(Neighbor{ID: id, Sim: float64(rng.Intn(20))}, 8)
		for _, nb := range top[1:] {
			if worse(nb, top[0]) {
				t.Fatalf("after id %d: root %v ranks above kept %v", id, top[0], nb)
			}
		}
	}
}

func TestUnit(t *testing.T) {
	v := []float32{3, 4, 0}
	u := Unit(v)
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("Unit modified its input: %v", v)
	}
	if math.Abs(Norm(u)-1) > 1e-6 || math.Abs(float64(u[0])-0.6) > 1e-7 {
		t.Fatalf("Unit(%v) = %v", v, u)
	}
	if z := Unit(make([]float32, 3)); !slices.Equal(z, []float32{0, 0, 0}) {
		t.Fatalf("Unit of a zero vector = %v, want zeros", z)
	}
}
