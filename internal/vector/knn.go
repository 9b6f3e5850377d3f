package vector

import (
	"math"
	"slices"
)

// Neighbor is one nearest-neighbour result of a kNN engine: the id of an
// indexed vector and its cosine similarity to the query.
type Neighbor struct {
	ID  int
	Sim float64
}

// worse reports whether a ranks strictly below b in the neighbour order
// (Sim descending, ID ascending).
func worse(a, b Neighbor) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// TopK is a bounded top-k selection over neighbours: a binary heap of the
// k best offered so far, with the worst kept element at the root (t[0]) so
// it can be evicted in O(log k). The kept set is exactly the first k of
// the full (Sim descending, ID ascending) sort of everything offered,
// whatever the offer order, so a scan can use it in place of a sort. A hot
// loop may read t[0].Sim to reject a candidate before calling Offer.
type TopK []Neighbor

// Offer inserts n if t holds fewer than k elements or n beats the current
// worst element.
func (t *TopK) Offer(n Neighbor, k int) {
	if k <= 0 {
		return
	}
	h := *t
	if len(h) < k {
		h = append(h, n)
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		*t = h
		return
	}
	if !worse(h[0], n) {
		return
	}
	h[0] = n
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && worse(h[l], h[min]) {
			min = l
		}
		if r < len(h) && worse(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Sorted sorts the kept neighbours in place, best first, and returns
// them. t is no longer a heap afterwards.
func (t TopK) Sorted() []Neighbor {
	slices.SortFunc(t, func(a, b Neighbor) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return t
}

// Unit returns a unit-length copy of v (a zero vector stays zero). It
// scales in float64, so it can round differently from Normalize, which
// scales in place in float32; the kNN engines index and query Unit copies.
func Unit(v []float32) []float32 {
	out := make([]float32, len(v))
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return out
	}
	inv := 1 / math.Sqrt(sum)
	for i, x := range v {
		out[i] = float32(float64(x) * inv)
	}
	return out
}
