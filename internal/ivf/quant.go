// Quantized row tiers for the IVF index: int8 symmetric rows and per-cell
// residual product quantization (PQ), plus the shared approximate-scan /
// exact-re-rank search path.
//
// Both tiers follow the same contract. The scan over the probed inverted
// lists scores members approximately — int8 through a symmetric quantized
// dot, PQ through asymmetric distance computation (ADC): the query stays
// full-precision and each member's residual decomposes into M sub-space
// codebook entries whose dots with the query are precomputed once into a
// per-query lookup table, so scoring a member costs M table adds instead
// of a dim-wide dot. The RerankK best candidates by approximate score are
// then re-scored with exact f32 dots, which restores exact ordering among
// everything the approximation ranked highly; recall is lost only when the
// approximation pushes a true top-k member below rank RerankK.
//
// Determinism mirrors the coarse quantizer: PQ codebooks are trained on
// the residuals of the same fixed TrainSize prefix Build's k-means saw,
// the rng is consumed a fixed number of times per codebook entry, and
// codebooks never move after Build — so Add encodes against frozen
// codebooks and an index grown by Adds is identical to one built over the
// union, the same property the incremental blocking indexes rely on.

package ivf

import (
	"fmt"
	"math"
	"math/rand"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/vector"
)

// Precision names the representation the probed inverted lists are
// scanned in; see Config.Precision.
type Precision string

// The three precision tiers: exact f32 rows (the default), symmetric int8
// rows re-ranked exactly, and per-cell residual product quantization
// re-ranked exactly.
const (
	PrecisionF32  Precision = "f32"
	PrecisionInt8 Precision = "int8"
	PrecisionPQ   Precision = "pq"
)

// ParsePrecision validates a precision name from user input (CLI flags);
// the empty string selects PrecisionF32.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionF32:
		return PrecisionF32, nil
	case PrecisionInt8:
		return PrecisionInt8, nil
	case PrecisionPQ:
		return PrecisionPQ, nil
	}
	return "", fmt.Errorf("ivf: unknown precision %q (valid: f32, int8, pq)", s)
}

// Ordinal returns the stable numeric id of the precision tier (0 f32,
// 1 int8, 2 pq) used in snapshot payloads and fingerprint words; unknown
// values panic, mirroring Build's validation.
func (p Precision) Ordinal() int {
	switch p {
	case "", PrecisionF32:
		return 0
	case PrecisionInt8:
		return 1
	case PrecisionPQ:
		return 2
	}
	panic("ivf: unknown precision " + string(p) + " (valid: f32, int8, pq)")
}

// precisionFromOrdinal inverts Ordinal for snapshot decoding.
func precisionFromOrdinal(ord int) (Precision, bool) {
	switch ord {
	case 0:
		return PrecisionF32, true
	case 1:
		return PrecisionInt8, true
	case 2:
		return PrecisionPQ, true
	}
	return "", false
}

// rerankDepth resolves the exact re-rank budget for a top-k query: the
// configured RerankK, defaulting to 32k+32 and never below k.
func (c Config) rerankDepth(k int) int {
	rr := c.RerankK
	if rr <= 0 {
		rr = 32*k + 32
	}
	if rr < k {
		rr = k
	}
	return rr
}

// int8Rows stores the indexed vectors as symmetric int8 codes: one
// per-row scale (maxabs/127) and dim codes per row, contiguous row-major
// — a quarter of the f32 footprint, scanned with integer multiply-adds.
type int8Rows struct {
	dim   int
	codes []int8    // row-major, id*dim
	scale []float32 // id -> quantization step
}

// quantizeInt8 writes v's symmetric int8 codes into dst (len(v) entries)
// and returns the scale; a zero vector gets scale 0 and all-zero codes.
func quantizeInt8(v []float32, dst []int8) float32 {
	var maxAbs float64
	for _, x := range v {
		if a := math.Abs(float64(x)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	s := maxAbs / 127
	inv := 1 / s
	for i, x := range v {
		dst[i] = int8(math.Round(float64(x) * inv))
	}
	return float32(s)
}

// grow appends one quantized row for v.
func (r *int8Rows) grow(v []float32) {
	start := len(r.codes)
	r.codes = append(r.codes, make([]int8, r.dim)...)
	r.scale = append(r.scale, quantizeInt8(v, r.codes[start:start+r.dim]))
}

// dot is the symmetric approximate dot of a quantized query (codes q8,
// scale qs) with row id: qs * scale[id] * Σ q8·row, accumulated in int32
// (dim·127² fits comfortably for any realistic embedding width).
func (r *int8Rows) dot(q8 []int8, qs float32, id int) float64 {
	row := r.codes[id*r.dim : (id+1)*r.dim]
	var acc int32
	for i, x := range row {
		acc += int32(x) * int32(q8[i])
	}
	return float64(qs) * float64(r.scale[id]) * float64(acc)
}

// pqRows stores the indexed vectors as per-cell residual PQ codes: m
// sub-space codebooks of ks entries each (trained once at Build, frozen
// after), and m bytes per row addressing the nearest entry per sub-space.
// A row decodes to centroid[cell] + Σ cents[sub-space][code], and its
// approximate dot with a query is the centroid dot plus m lookup-table
// adds.
type pqRows struct {
	m    int // sub-spaces
	ks   int // codebook entries per sub-space (≤ 256)
	dsub int // dims per sub-space; the last sub-space may be shorter
	dim  int
	// cents holds the sub-centroids, indexed [sub*ks + entry]; entry
	// vectors carry their sub-space's width.
	cents [][]float32
	// flat caches every codebook entry contiguously in cents order. The
	// per-query LUT build touches all m*ks entries; reading them from one
	// packed array instead of chasing m*ks small heap slices is the
	// difference between a streaming pass and a cache miss per entry.
	// Derived from cents by refreshFlat at every construction site
	// (training, bootstrap, snapshot restore).
	flat  []float32
	codes []byte // row-major, id*m
}

// refreshFlat rebuilds the packed codebook cache from cents; call after
// any step that (re)writes codebook entries.
func (p *pqRows) refreshFlat() {
	total := 0
	for _, c := range p.cents {
		total += len(c)
	}
	p.flat = make([]float32, 0, total)
	for _, c := range p.cents {
		p.flat = append(p.flat, c...)
	}
}

// subRange returns sub-space mi's dimension interval [lo, hi).
func (p *pqRows) subRange(mi int) (int, int) {
	lo := mi * p.dsub
	hi := lo + p.dsub
	if hi > p.dim {
		hi = p.dim
	}
	return lo, hi
}

// nearestSub returns the codebook entry of sub-space mi nearest to v by
// squared L2 distance, ties by ascending entry id.
func (p *pqRows) nearestSub(mi int, v []float32) int {
	cents := p.cents[mi*p.ks : (mi+1)*p.ks]
	best, bestD := 0, math.Inf(1)
	for j, c := range cents {
		if d := sqDist(v, c); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

// encodeInto writes vec's residual codes against centroid into dst (m
// bytes), using res (dim floats) as residual scratch.
func (p *pqRows) encodeInto(vec, centroid []float32, res []float32, dst []byte) {
	for d := range res {
		res[d] = vec[d] - centroid[d]
	}
	for mi := 0; mi < p.m; mi++ {
		lo, hi := p.subRange(mi)
		dst[mi] = byte(p.nearestSub(mi, res[lo:hi]))
	}
}

// buildLUT precomputes the query's dot with every codebook entry into lut
// (m*ks float64s): the ADC table a probed member's approximate score sums
// m entries of. It streams the packed flat cache (one pass over m*ks
// entries) with a dedicated two-dim kernel for the default geometry
// (dim 32 / m 16 → every sub-space is 2-wide), where per-entry loop
// overhead would otherwise dominate the two multiplies.
func (p *pqRows) buildLUT(nq []float32, lut []float64) {
	pos := 0
	for mi := 0; mi < p.m; mi++ {
		lo, hi := p.subRange(mi)
		qs := nq[lo:hi]
		base := mi * p.ks
		if len(qs) == 2 {
			q0, q1 := float64(qs[0]), float64(qs[1])
			row := p.flat[pos : pos+2*p.ks]
			for j := 0; j < p.ks; j++ {
				lut[base+j] = q0*float64(row[2*j]) + q1*float64(row[2*j+1])
			}
			pos += 2 * p.ks
			continue
		}
		w := hi - lo
		for j := 0; j < p.ks; j++ {
			c := p.flat[pos : pos+w]
			pos += w
			var s float64
			for d, x := range qs {
				s += float64(x) * float64(c[d])
			}
			lut[base+j] = s
		}
	}
}

// adc is row id's approximate dot: its cell centroid's dot plus the m
// lookup-table entries its codes address. This is the inner loop of the
// PQ scan — one call per probed row — so the sum runs in two independent
// accumulator chains; a single chain of dependent float64 adds would
// serialize on FP-add latency and cost as much as the exact dot it
// replaces.
func (p *pqRows) adc(centDot float64, lut []float64, id int) float64 {
	code := p.codes[id*p.m : (id+1)*p.m]
	s0, s1 := centDot, 0.0
	mi := 0
	for ; mi+1 < len(code); mi += 2 {
		s0 += lut[mi*p.ks+int(code[mi])]
		s1 += lut[(mi+1)*p.ks+int(code[mi+1])]
	}
	if mi < len(code) {
		s0 += lut[mi*p.ks+int(code[mi])]
	}
	return s0 + s1
}

// lutRow is one sub-space's int16-quantized ADC table. A fixed 256-wide
// array (the code byte's full range) rather than a ks-sized slice: the
// scan indexes it with a byte, so the compiler drops the inner bounds
// check entirely — the difference between a gather+add and a
// gather+check+add in the hottest loop of the package. Entries at or
// past ks are never addressed (codes are always < ks) and stay zero.
type lutRow [256]int16

// quantizeLUT scales the float64 ADC table into symmetric int16 rows
// (step = maxabs/32767, 0 for an all-zero table) so the list scan can
// accumulate in fully pipelined int32 adds instead of a float64 FP-add
// dependency chain. The rounding error is at most step/2 per entry — m
// entries per score — orders of magnitude below the codebook
// reconstruction error the exact re-rank already absorbs.
func quantizeLUT(lut []float64, ks int, rows []lutRow) float64 {
	var maxAbs float64
	for _, v := range lut {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for mi := range rows {
			for j := 0; j < ks; j++ {
				rows[mi][j] = 0
			}
		}
		return 0
	}
	step := maxAbs / 32767
	inv := 1 / step
	for mi := range rows {
		for j := 0; j < ks; j++ {
			rows[mi][j] = int16(math.Round(lut[mi*ks+j] * inv))
		}
	}
	return step
}

// adcQuant is the scan-path ADC: row id's approximate dot through the
// int16-quantized lookup table, accumulated in int32 (1-cycle adds, no
// FP dependency chain) and scaled back once. This is what the hot loop
// of searchQuant calls; adc above is the float64 reference the
// error-bound tests compare against.
func (p *pqRows) adcQuant(centDot float64, qlut []lutRow, step float64, id int) float64 {
	code := p.codes[id*p.m : (id+1)*p.m]
	var acc int32
	for mi, cj := range code {
		acc += int32(qlut[mi][cj])
	}
	return centDot + float64(acc)*step
}

// sqDist is the squared L2 distance of two equal-length vectors.
func sqDist(a, b []float32) float64 {
	var s float64
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return s
}

// trainPQ fits the m sub-space codebooks over the residual set (the
// TrainSize prefix's vectors minus their assigned centroids) with
// kmeans++-seeded Lloyd iterations per sub-space. The rng is consumed a
// fixed number of times per codebook entry — exactly like the coarse
// quantizer's seeding — so identically seeded streams produce identical
// codebooks, and Build(prefix)+Add reproduces Build(union).
func trainPQ(residuals [][]float32, dim, m, iters, workers int, rng *rand.Rand) *pqRows {
	p := &pqRows{m: m, dim: dim, dsub: (dim + m - 1) / m}
	p.ks = len(residuals)
	if p.ks > 256 {
		p.ks = 256
	}
	p.cents = make([][]float32, m*p.ks)
	for mi := 0; mi < m; mi++ {
		p.trainSub(mi, residuals, iters, workers, rng)
	}
	p.refreshFlat()
	return p
}

// trainSub fits sub-space mi's codebook: kmeans++-style seeding weighted
// by squared-L2 distance to the nearest chosen entry, then Lloyd
// iterations with batch-parallel assignment and plain-mean updates
// (residuals are not unit vectors, so no normalization). Empty clusters
// keep their previous entry.
func (p *pqRows) trainSub(mi int, residuals [][]float32, iters, workers int, rng *rand.Rand) {
	lo, hi := p.subRange(mi)
	n := len(residuals)
	sub := func(i int) []float32 { return residuals[i][lo:hi] }
	cents := p.cents[mi*p.ks : (mi+1)*p.ks]
	first := rng.Intn(n)
	cents[0] = append([]float32(nil), sub(first)...)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(sub(i), cents[0])
	}
	for c := 1; c < p.ks; c++ {
		var sum float64
		for _, d := range minDist {
			sum += d
		}
		pick := 0
		if sum > 0 {
			r := rng.Float64() * sum
			for i, d := range minDist {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			// All residuals coincide with an entry; fall back to a uniform
			// draw so the rng consumption stays fixed per entry.
			pick = int(rng.Float64() * float64(n))
			if pick >= n {
				pick = n - 1
			}
		}
		cent := append([]float32(nil), sub(pick)...)
		cents[c] = cent
		for i := range minDist {
			if d := sqDist(sub(i), cent); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	width := hi - lo
	assign := make([]int32, n)
	for it := 0; it < iters; it++ {
		changed := false
		parallel.Run(n, workers, func(i int) error {
			assign[i] = int32(p.nearestSub(mi, sub(i)))
			return nil
		}, nil)
		sums := make([][]float64, p.ks)
		counts := make([]int, p.ks)
		for c := range sums {
			sums[c] = make([]float64, width)
		}
		for i, c := range assign {
			counts[c]++
			for d, x := range sub(i) {
				sums[c][d] += float64(x)
			}
		}
		for c := 0; c < p.ks; c++ {
			if counts[c] == 0 {
				continue
			}
			nc := make([]float32, width)
			for d := range nc {
				nc[d] = float32(sums[c][d] / float64(counts[c]))
			}
			if !equalVec(nc, cents[c]) {
				cents[c] = nc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// resolveM clamps the configured sub-space count to the vector dimension
// (0 selects 16 — at the default 32-dim embeddings that is 2 dims per
// codebook, fine enough that near-duplicate corpora keep their exact
// neighbour ordering through the re-rank window).
func resolveM(m, dim int) int {
	if m <= 0 {
		m = 16
	}
	if m > dim {
		m = dim
	}
	if m < 1 {
		m = 1
	}
	return m
}

// quantizeBuild derives the quantized row tier after Build assigned the
// inverted lists: int8 rows are quantized batch-parallel; PQ trains its
// codebooks on the TrainSize prefix's residuals (consuming rng after the
// coarse fit, in a fixed order) and then encodes every row against its
// assigned centroid. A no-op under PrecisionF32.
func (ix *Index) quantizeBuild(assign []int32, trainN int, rng *rand.Rand) {
	switch ix.cfg.Precision {
	case PrecisionInt8:
		n := len(ix.vecs)
		ix.i8 = &int8Rows{dim: ix.dim, codes: make([]int8, n*ix.dim), scale: make([]float32, n)}
		parallel.Run(n, ix.cfg.Workers, func(i int) error {
			ix.i8.scale[i] = quantizeInt8(ix.vecs[i], ix.i8.codes[i*ix.dim:(i+1)*ix.dim])
			return nil
		}, nil)
	case PrecisionPQ:
		ix.cfg.M = resolveM(ix.cfg.M, ix.dim)
		residuals := make([][]float32, trainN)
		parallel.Run(trainN, ix.cfg.Workers, func(i int) error {
			cent := ix.centroids[assign[i]]
			res := make([]float32, ix.dim)
			for d := range res {
				res[d] = ix.vecs[i][d] - cent[d]
			}
			residuals[i] = res
			return nil
		}, nil)
		ix.pq = trainPQ(residuals, ix.dim, ix.cfg.M, ix.cfg.Iters, ix.cfg.Workers, rng)
		n := len(ix.vecs)
		ix.pq.codes = make([]byte, n*ix.pq.m)
		parallel.Run(n, ix.cfg.Workers, func(i int) error {
			res := make([]float32, ix.dim)
			ix.pq.encodeInto(ix.vecs[i], ix.centroids[assign[i]], res, ix.pq.codes[i*ix.pq.m:(i+1)*ix.pq.m])
			return nil
		}, nil)
	}
}

// bootstrapQuant initializes the quantized tier of an index built over an
// empty corpus when its first Add bootstraps the single-list quantizer.
// No training data (and no rng) exists at that point, so PQ gets a
// degenerate single-entry zero codebook: every residual encodes to zero,
// ADC degrades to the centroid dot, and the exact re-rank restores the
// ordering — correct, just unpartitioned, matching the coarse bootstrap's
// own degradation. Build over a representative prefix when quantization
// quality matters.
func (ix *Index) bootstrapQuant() {
	switch ix.cfg.Precision {
	case PrecisionInt8:
		ix.i8 = &int8Rows{dim: ix.dim}
	case PrecisionPQ:
		ix.cfg.M = resolveM(ix.cfg.M, ix.dim)
		p := &pqRows{m: ix.cfg.M, ks: 1, dim: ix.dim}
		p.dsub = (ix.dim + p.m - 1) / p.m
		p.cents = make([][]float32, p.m)
		for mi := range p.cents {
			lo, hi := p.subRange(mi)
			p.cents[mi] = make([]float32, hi-lo)
		}
		p.refreshFlat()
		ix.pq = p
	}
}

// quantizeAdd appends the quantized row of a freshly added vector (cell c
// is its assigned centroid). Codebooks are frozen, so the encoding is the
// one Build over the union would have produced.
func (ix *Index) quantizeAdd(nv []float32, c int) {
	switch {
	case ix.i8 != nil:
		ix.i8.grow(nv)
	case ix.pq != nil:
		res := make([]float32, ix.dim)
		start := len(ix.pq.codes)
		ix.pq.codes = append(ix.pq.codes, make([]byte, ix.pq.m)...)
		ix.pq.encodeInto(nv, ix.centroids[c], res, ix.pq.codes[start:start+ix.pq.m])
	}
}

// growLUT is growF64 for the quantized-table scratch.
func growLUT(s []lutRow, n int) []lutRow {
	if cap(s) < n {
		return make([]lutRow, n)
	}
	return s[:n]
}

// searchQuant is the quantized search path shared by the int8 and PQ
// tiers: scan the probed lists (probeOrder left their centroid dots in
// sc) with the approximate scores, keep the rerankDepth best
// approximately, then re-rank those with exact f32 dots and return the
// top k. Every step is a pure function of the (normalized) query, so
// searches agree bit for bit at any worker count and whatever the pooled
// scratch held before.
func (ix *Index) searchQuant(nq []float32, k int, probes []int, sc *searchScratch) []vector.Neighbor {
	rr := ix.cfg.rerankDepth(k)
	h := sc.heap[:0]
	if ix.pq != nil {
		sc.lut = growF64(sc.lut, ix.pq.m*ix.pq.ks)
		ix.pq.buildLUT(nq, sc.lut)
		sc.qlut = growLUT(sc.qlut, ix.pq.m)
		step := quantizeLUT(sc.lut, ix.pq.ks, sc.qlut)
		for _, c := range probes {
			ix.scanPQList(&h, ix.lists[c], sc.dots[c], sc.qlut, step, rr)
		}
	} else {
		if cap(sc.q8) < ix.dim {
			sc.q8 = make([]int8, ix.dim)
		}
		q8 := sc.q8[:ix.dim]
		qs := quantizeInt8(nq, q8)
		for _, c := range probes {
			for _, id := range ix.lists[c] {
				sim := ix.i8.dot(q8, qs, int(id))
				if len(h) == rr && sim < h[0].Sim {
					continue
				}
				h.Offer(vector.Neighbor{ID: int(id), Sim: sim}, rr)
			}
		}
	}
	sc.heap = h[:0]
	// Exact re-rank through a second bounded top-k selection over the
	// re-ranked scores, at O(rr log k) instead of sorting all rr survivors.
	top := make(vector.TopK, 0, k)
	for _, r := range h {
		top.Offer(vector.Neighbor{ID: r.ID, Sim: vector.Dot(nq, ix.vecs[r.ID])}, k)
	}
	return top.Sorted()
}

// scanPQList scores every member of one inverted list through the
// int16 ADC table and offers the survivors to the heap. This is the
// hottest loop of the package, and every line is shaped for it: the
// table rows are byte-indexed 256-wide arrays (no inner bounds checks),
// the sum runs 4-way unrolled in two int32 accumulators, and a row
// strictly below a full heap's root is rejected on one comparison
// without the offer call. Scores exactly match adcQuant — the
// equivalence the ADC error-bound property test pins.
func (ix *Index) scanPQList(h *vector.TopK, list []int32, base float64, qlut []lutRow, step float64, rr int) {
	m := ix.pq.m
	codes := ix.pq.codes
	if m == 16 && len(qlut) >= 16 {
		// The default geometry (dim 32 / m 16) gets a dedicated kernel:
		// converting the table and each row to array pointers makes every
		// index a compile-time-bounded constant offset, so the 16 adds
		// unroll with no slice-header or bounds work per row.
		lut := (*[16]lutRow)(qlut)
		for _, id := range list {
			code := (*[16]byte)(codes[int(id)*16:])
			a0 := int32(lut[0][code[0]]) + int32(lut[1][code[1]]) + int32(lut[2][code[2]]) + int32(lut[3][code[3]])
			a1 := int32(lut[4][code[4]]) + int32(lut[5][code[5]]) + int32(lut[6][code[6]]) + int32(lut[7][code[7]])
			a2 := int32(lut[8][code[8]]) + int32(lut[9][code[9]]) + int32(lut[10][code[10]]) + int32(lut[11][code[11]])
			a3 := int32(lut[12][code[12]]) + int32(lut[13][code[13]]) + int32(lut[14][code[14]]) + int32(lut[15][code[15]])
			sim := base + float64(a0+a1+a2+a3)*step
			if len(*h) == rr && sim < (*h)[0].Sim {
				continue
			}
			h.Offer(vector.Neighbor{ID: int(id), Sim: sim}, rr)
		}
		return
	}
	for _, id := range list {
		off := int(id) * m
		code := codes[off : off+m]
		lut := qlut[:len(code)]
		var a0, a1 int32
		mi := 0
		for ; mi+4 <= len(code); mi += 4 {
			a0 += int32(lut[mi][code[mi]]) + int32(lut[mi+1][code[mi+1]])
			a1 += int32(lut[mi+2][code[mi+2]]) + int32(lut[mi+3][code[mi+3]])
		}
		for ; mi < len(code); mi++ {
			a0 += int32(lut[mi][code[mi]])
		}
		sim := base + float64(a0+a1)*step
		if len(*h) == rr && sim < (*h)[0].Sim {
			continue
		}
		h.Offer(vector.Neighbor{ID: int(id), Sim: sim}, rr)
	}
}
