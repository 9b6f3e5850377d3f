// Package ivf implements an inverted-file (IVF) index over dense title
// embeddings — the partition-based alternative to the HNSW graph for the §6
// blocking extension, in the spirit of Kirsten et al.'s data partitioning
// for parallel entity matching.
//
// A coarse quantizer (spherical k-means with a kmeans++-style seeding) maps
// every vector to its nearest centroid's inverted list; a query scores the
// centroids, probes the NProbe nearest lists exhaustively, and returns the
// best k members by cosine similarity. Build cost is one k-means fit plus a
// linear assignment pass (batch-parallel over internal/parallel), query
// cost is NLists centroid scores plus the probed fraction of the corpus —
// no graph construction at all, which is what makes IVF attractive when
// indexes are built often or memory for link lists is tight.
//
// Determinism: the quantizer is seeded from a caller-provided random
// stream, the training set is the fixed prefix of the first
// min(TrainSize, n) vectors handed to Build, and every assignment and
// search breaks ties by ascending id. Centroids never move after Build, so
// Build(prefix) followed by Add of each remaining vector yields an index
// identical to Build over the concatenation whenever the prefix covers the
// training set (len(prefix) >= TrainSize) — the property the incremental
// blocking indexes rely on.
package ivf

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/vector"
)

// Config sizes an IVF index.
type Config struct {
	// NLists is the number of coarse clusters (inverted lists). 0 selects
	// ceil(sqrt(train set size)) — the usual starting point, balancing the
	// centroid scan against list lengths.
	NLists int
	// NProbe is the number of nearest lists a query scans exhaustively.
	// Larger values raise recall at linear cost; NProbe == NLists is an
	// exhaustive scan. Values are clamped to [1, NLists].
	NProbe int
	// TrainSize bounds the k-means training set to the first TrainSize
	// vectors given to Build (0 selects 4096). Keeping the training set a
	// fixed prefix — rather than the whole input — is what makes incremental
	// Add exact: vectors added later can never have moved the centroids.
	// It also caps the automatic NLists at ceil(sqrt(TrainSize)), so size
	// it for the corpus the index is expected to grow into: query cost is
	// roughly NLists + NProbe*n/NLists vector comparisons, minimized when
	// NLists tracks sqrt(n).
	TrainSize int
	// Iters bounds the Lloyd iterations of the k-means fit (0 selects 10;
	// training stops early once assignments are stable).
	Iters int
	// Workers bounds the goroutines of the batch-parallel assignment passes
	// (<= 0 selects runtime.NumCPU(); results are identical at any value).
	Workers int
	// Precision selects the representation the probed inverted lists are
	// scanned in: PrecisionF32 (the default, exact dot products),
	// PrecisionInt8 (symmetric int8 rows, ~4x smaller), or PrecisionPQ
	// (per-cell residual product quantization, M bytes per row, scanned
	// through per-query lookup tables). The quantized tiers score
	// approximately and re-rank the best RerankK candidates with exact f32
	// dots; see quant.go for the accuracy contract.
	Precision Precision
	// M is the number of product-quantizer sub-spaces (PrecisionPQ only).
	// 0 selects 16; values are clamped to the vector dimension. Each
	// sub-space gets its own codebook of up to 256 entries, so a PQ row
	// costs M bytes. More sub-spaces mean finer reconstruction (higher
	// recall) and a proportionally slower list scan.
	M int
	// RerankK bounds the exact f32 re-rank of the quantized search paths:
	// the RerankK best candidates by approximate score are re-scored with
	// exact dot products before the top k are returned. 0 selects 32k+32 at
	// query time — deep enough that near-duplicate-heavy corpora (where
	// many rows sit inside one quantization-error band of the true top k)
	// keep >99% of the exact neighbour sets; values below k are raised to
	// k. Smaller values trade recall for scan speed. Ignored by
	// PrecisionF32.
	RerankK int
}

// DefaultConfig returns the standard blocking configuration: automatic
// list count, 6 probes, up to 4096 training vectors, 10 Lloyd iterations.
func DefaultConfig() Config {
	return Config{NLists: 0, NProbe: 6, TrainSize: 4096, Iters: 10, Workers: 0}
}

// withDefaults resolves the zero values of c.
func (c Config) withDefaults(trainN int) Config {
	if c.TrainSize <= 0 {
		c.TrainSize = 4096
	}
	if c.Iters <= 0 {
		c.Iters = 10
	}
	if c.NLists <= 0 {
		c.NLists = int(math.Ceil(math.Sqrt(float64(trainN))))
	}
	if c.NLists < 1 {
		c.NLists = 1
	}
	if trainN > 0 && c.NLists > trainN {
		c.NLists = trainN
	}
	if c.NProbe < 1 {
		c.NProbe = 1
	}
	if c.NProbe > c.NLists {
		c.NProbe = c.NLists
	}
	if c.Precision == "" {
		c.Precision = PrecisionF32
	}
	switch c.Precision {
	case PrecisionF32, PrecisionInt8, PrecisionPQ:
	default:
		panic("ivf: unknown precision " + string(c.Precision) + " (valid: f32, int8, pq)")
	}
	return c
}

// Index is a built IVF index. It can be grown incrementally with Add;
// between mutations Search is read-only and safe for concurrent use by
// multiple goroutines.
type Index struct {
	cfg       Config
	dim       int
	centroids [][]float32 // normalized cluster centres, fixed after Build
	lists     [][]int32   // centroid -> member vector ids, insertion order
	vecs      [][]float32 // normalized copies of the indexed vectors

	// Quantized row tiers (see quant.go): exactly one is non-nil when
	// cfg.Precision is int8 or pq, both nil for f32. Like the centroids,
	// the PQ codebooks are trained once at Build and never move, which is
	// what keeps incremental Add exact.
	i8 *int8Rows
	pq *pqRows

	// scratch pools the per-query search buffers (probe order, lookup
	// tables, candidate heaps) so concurrent searches reuse their
	// allocations; pooled state never influences results.
	scratch sync.Pool
}

// Build trains the coarse quantizer on the first min(TrainSize, len(vecs))
// vectors and indexes every vector. The rng drives only the quantizer
// seeding and is consumed a fixed number of times, so identically seeded
// streams produce identical indexes. The input vectors are not retained;
// normalized copies are.
func Build(vecs [][]float32, cfg Config, rng *rand.Rand) *Index {
	ts := cfg.TrainSize
	if ts <= 0 {
		ts = 4096
	}
	trainN := len(vecs)
	if trainN > ts {
		trainN = ts
	}
	cfg = cfg.withDefaults(trainN)
	ix := &Index{cfg: cfg}
	if len(vecs) == 0 {
		return ix
	}
	ix.dim = len(vecs[0])
	ix.vecs = make([][]float32, len(vecs))
	parallel.Run(len(vecs), cfg.Workers, func(i int) error {
		ix.vecs[i] = vector.Unit(vecs[i])
		return nil
	}, nil)
	ix.train(ix.vecs[:trainN], rng)
	ix.lists = make([][]int32, len(ix.centroids))
	assign := make([]int32, len(vecs))
	parallel.Run(len(vecs), cfg.Workers, func(i int) error {
		assign[i] = int32(ix.nearestCentroid(ix.vecs[i]))
		return nil
	}, nil)
	for i, c := range assign {
		ix.lists[c] = append(ix.lists[c], int32(i))
	}
	ix.quantizeBuild(assign, trainN, rng)
	return ix
}

// train fits the spherical k-means quantizer: kmeans++-style seeding drawn
// from rng, then Lloyd iterations with batch-parallel assignment. Empty
// clusters keep their previous centroid.
func (ix *Index) train(train [][]float32, rng *rand.Rand) {
	k := ix.cfg.NLists
	ix.centroids = make([][]float32, 0, k)
	// Seeding: first centre uniform, the rest weighted by squared cosine
	// distance to the nearest chosen centre.
	first := rng.Intn(len(train))
	ix.centroids = append(ix.centroids, append([]float32(nil), train[first]...))
	minDist := make([]float64, len(train))
	for i := range train {
		minDist[i] = cosDist(train[i], ix.centroids[0])
	}
	for len(ix.centroids) < k {
		var sum float64
		for _, d := range minDist {
			sum += d * d
		}
		pick := 0
		if sum > 0 {
			r := rng.Float64() * sum
			for i, d := range minDist {
				r -= d * d
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			// All remaining vectors coincide with a centre; fall back to a
			// uniform draw so the rng consumption stays fixed per centre.
			pick = int(rng.Float64() * float64(len(train)))
			if pick >= len(train) {
				pick = len(train) - 1
			}
		}
		c := append([]float32(nil), train[pick]...)
		ix.centroids = append(ix.centroids, c)
		for i := range train {
			if d := cosDist(train[i], c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	// Lloyd: parallel assignment, serial centroid update (normalized mean).
	assign := make([]int32, len(train))
	for it := 0; it < ix.cfg.Iters; it++ {
		changed := false
		parallel.Run(len(train), ix.cfg.Workers, func(i int) error {
			assign[i] = int32(ix.nearestCentroid(train[i]))
			return nil
		}, nil)
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, ix.dim)
		}
		for i, c := range assign {
			counts[c]++
			for d, x := range train[i] {
				sums[c][d] += float64(x)
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			nc := make([]float32, ix.dim)
			for d := range nc {
				nc[d] = float32(sums[c][d] / float64(counts[c]))
			}
			nc = vector.Unit(nc)
			if !equalVec(nc, ix.centroids[c]) {
				ix.centroids[c] = nc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// Add indexes one more vector incrementally and returns its id. Centroids
// are fixed at Build, so an Add is one centroid scan plus a list append —
// and an index grown by Adds is identical to one built over the full input
// in a single Build, as long as the original Build saw the whole training
// prefix. An index built over an empty corpus bootstraps a single-list
// quantizer from the first added vector: searches degrade to exhaustive
// scans (correct, just unpartitioned), so build over a representative
// prefix when partitioning matters. Add is not safe for concurrent use
// with itself or with Search.
func (ix *Index) Add(vec []float32) int {
	if len(ix.centroids) == 0 {
		ix.dim = len(vec)
		ix.centroids = [][]float32{vector.Unit(vec)}
		ix.lists = make([][]int32, 1)
		ix.cfg = ix.cfg.withDefaults(1)
		ix.cfg.NLists = 1
		ix.cfg.NProbe = 1
		ix.bootstrapQuant()
	}
	if len(vec) != ix.dim {
		panic("ivf: added vector dimension does not match the indexed vectors")
	}
	i := len(ix.vecs)
	nv := vector.Unit(vec)
	ix.vecs = append(ix.vecs, nv)
	c := ix.nearestCentroid(nv)
	ix.lists[c] = append(ix.lists[c], int32(i))
	ix.quantizeAdd(nv, c)
	return i
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vecs) }

// NLists returns the number of inverted lists (coarse clusters).
func (ix *Index) NLists() int { return len(ix.centroids) }

// ListSizes returns the member count of every inverted list.
func (ix *Index) ListSizes() []int {
	out := make([]int, len(ix.lists))
	for c, l := range ix.lists {
		out[c] = len(l)
	}
	return out
}

// Search returns the k best members of the NProbe nearest inverted lists
// by cosine similarity, best first (ties by ascending id). The query is
// normalized internally; a dimension mismatch panics rather than silently
// truncating the dot products. Under a quantized precision the probed
// members are scored approximately and the best RerankK re-ranked with
// exact dots (see Config.Precision).
func (ix *Index) Search(q []float32, k int) []vector.Neighbor {
	if k <= 0 || len(ix.vecs) == 0 {
		return nil
	}
	if len(q) != ix.dim {
		panic("ivf: query dimension does not match the indexed vectors")
	}
	nq := vector.Unit(q)
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)
	probes := ix.probeOrder(nq, sc)
	if ix.i8 != nil || ix.pq != nil {
		return ix.searchQuant(nq, k, probes, sc)
	}
	top := make(vector.TopK, 0, k)
	for _, c := range probes {
		for _, id := range ix.lists[c] {
			top.Offer(vector.Neighbor{ID: int(id), Sim: vector.Dot(nq, ix.vecs[id])}, k)
		}
	}
	return top.Sorted()
}

// probeOrder scores every centroid against the normalized query into
// sc.dots and returns the NProbe nearest centroid ids by (dot descending,
// id ascending): the one probe order of every search path.
func (ix *Index) probeOrder(nq []float32, sc *searchScratch) []int {
	sc.dots = growF64(sc.dots, len(ix.centroids))
	for c, cent := range ix.centroids {
		sc.dots[c] = vector.Dot(nq, cent)
	}
	if cap(sc.order) < len(ix.centroids) {
		sc.order = make([]int, len(ix.centroids))
	}
	order := sc.order[:len(ix.centroids)]
	for c := range order {
		order[c] = c
	}
	sort.Slice(order, func(a, b int) bool {
		if sc.dots[order[a]] != sc.dots[order[b]] {
			return sc.dots[order[a]] > sc.dots[order[b]]
		}
		return order[a] < order[b]
	})
	p := ix.cfg.NProbe
	if p > len(order) {
		p = len(order)
	}
	sc.order = order
	return order[:p]
}

// searchScratch pools the per-query buffers of Search.
type searchScratch struct {
	dots  []float64   // centroid -> query dot
	order []int       // probe-order scratch
	lut   []float64   // ADC lookup table (m*ks)
	qlut  []lutRow    // int16-quantized ADC table the scan reads
	q8    []int8      // quantized query (int8 tier)
	heap  vector.TopK // approximate candidates (quantized tiers)
}

// getScratch takes a scratch from the pool (or allocates the first one).
func (ix *Index) getScratch() *searchScratch {
	sc, _ := ix.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	return sc
}

// growF64 returns s resized to n, reusing capacity.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// nearestCentroid returns the centroid with the smallest cosine distance to
// v, ties broken by ascending centroid id.
func (ix *Index) nearestCentroid(v []float32) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range ix.centroids {
		if d := cosDist(v, cent); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// cosDist is the cosine distance of two normalized vectors: 1 - dot.
func cosDist(a, b []float32) float64 { return 1 - vector.Dot(a, b) }

// equalVec reports whether two vectors are element-wise identical.
func equalVec(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
