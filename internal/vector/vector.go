// Package vector provides the sparse and dense vector primitives shared by
// DBSCAN grouping, the embedding model, and the learned matchers, and the
// neighbour type, bounded top-K and unit copy the kNN engines share.
package vector

import (
	"math"
	"sort"
)

// Sparse is a sparse vector stored as sorted (index, value) pairs. Indices
// are vocabulary ids; the representation matches the binary word-occurrence
// features used by the grouping step and the word co-occurrence matcher.
type Sparse struct {
	Idx []int32
	Val []float32
}

// NewSparseFromMap builds a Sparse vector from an index->value map.
func NewSparseFromMap(m map[int32]float32) Sparse {
	s := Sparse{Idx: make([]int32, 0, len(m)), Val: make([]float32, 0, len(m))}
	for i := range m {
		s.Idx = append(s.Idx, i)
	}
	sort.Slice(s.Idx, func(a, b int) bool { return s.Idx[a] < s.Idx[b] })
	for _, i := range s.Idx {
		s.Val = append(s.Val, m[i])
	}
	return s
}

// NewBinarySparse builds a binary (all-ones) sparse vector from a set of
// vocabulary ids.
func NewBinarySparse(ids []int32) Sparse {
	sorted := make([]int32, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	// Dedupe.
	out := sorted[:0]
	var prev int32 = -1
	for _, id := range sorted {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	s := Sparse{Idx: out, Val: make([]float32, len(out))}
	for i := range s.Val {
		s.Val[i] = 1
	}
	return s
}

// NNZ returns the number of stored (non-zero) entries.
func (s Sparse) NNZ() int { return len(s.Idx) }

// Dot computes the sparse dot product of two sorted sparse vectors.
func (s Sparse) Dot(t Sparse) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(s.Idx) && j < len(t.Idx) {
		switch {
		case s.Idx[i] == t.Idx[j]:
			sum += float64(s.Val[i]) * float64(t.Val[j])
			i++
			j++
		case s.Idx[i] < t.Idx[j]:
			i++
		default:
			j++
		}
	}
	return sum
}

// Norm returns the Euclidean norm.
func (s Sparse) Norm() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// Cosine returns the cosine similarity of two sparse vectors, 0 when either
// is empty.
func (s Sparse) Cosine(t Sparse) float64 {
	ns, nt := s.Norm(), t.Norm()
	if ns == 0 || nt == 0 {
		return 0
	}
	return s.Dot(t) / (ns * nt)
}

// Overlap returns the number of shared indices (binary intersection size).
func (s Sparse) Overlap(t Sparse) int {
	n, i, j := 0, 0, 0
	for i < len(s.Idx) && j < len(t.Idx) {
		switch {
		case s.Idx[i] == t.Idx[j]:
			n++
			i++
			j++
		case s.Idx[i] < t.Idx[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Dense vector helpers. These operate on []float32 to keep the matcher
// training memory-frugal on a single machine.

// Dot computes the dense dot product. The slices must have equal length.
func Dot(a, b []float32) float64 {
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
	}
	return sum
}

// Norm returns the Euclidean norm of a dense vector.
func Norm(a []float32) float64 {
	var sum float64
	for _, v := range a {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// Cosine returns the dense cosine similarity, 0 for zero vectors.
func Cosine(a, b []float32) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add returns a+b as a new slice.
func Add(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a new slice.
func Sub(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// AbsDiff returns |a-b| element-wise as a new slice.
func AbsDiff(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		out[i] = d
	}
	return out
}

// Hadamard returns a*b element-wise as a new slice.
func Hadamard(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Normalize scales x to unit norm in place; zero vectors are left unchanged.
func Normalize(x []float32) {
	n := Norm(x)
	if n == 0 {
		return
	}
	Scale(float32(1/n), x)
}

// Mean returns the element-wise mean of the given vectors. All vectors must
// share the same dimension; an empty input yields a nil slice.
func Mean(vs [][]float32) []float32 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float32, len(vs[0]))
	for _, v := range vs {
		Axpy(1, v, out)
	}
	Scale(1/float32(len(vs)), out)
	return out
}
