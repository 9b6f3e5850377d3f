package ivf

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wdcproducts/internal/persist"
	"wdcproducts/internal/vector"
	"wdcproducts/internal/xrand"
)

// allPrecisions is the full tier list the property tests sweep.
var allPrecisions = []Precision{PrecisionF32, PrecisionInt8, PrecisionPQ}

// quantCfg is the shared small-corpus configuration of the quantization
// tests: a real multi-list layout with a training prefix shorter than the
// corpus, so both the trained and the assigned-after-training paths run.
func quantCfg(p Precision, workers int) Config {
	return Config{NLists: 6, NProbe: 3, TrainSize: 64, Iters: 6, Workers: workers, Precision: p, M: 4}
}

// dupVecs appends exact duplicates of a few vectors, exercising the
// tie-break paths (equal scores must resolve by ascending id on every
// tier).
func dupVecs(vecs [][]float32) [][]float32 {
	out := append([][]float32{}, vecs...)
	for _, i := range []int{0, 3, len(vecs) / 2} {
		out = append(out, append([]float32(nil), vecs[i]...))
	}
	return out
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{{"", PrecisionF32}, {"f32", PrecisionF32}, {"int8", PrecisionInt8}, {"pq", PrecisionPQ}} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("ParsePrecision accepted an unknown precision")
	}
	for _, p := range allPrecisions {
		got, ok := precisionFromOrdinal(p.Ordinal())
		if !ok || got != p {
			t.Fatalf("ordinal round-trip of %q: %v, %v", p, got, ok)
		}
	}
	if _, ok := precisionFromOrdinal(3); ok {
		t.Fatal("precisionFromOrdinal accepted 3")
	}
}

// TestQuantizedWorkerInvariant: quantized indexes and their searches are
// byte-identical at any worker count — the PQ training, encoding, and
// assignment passes all dispatch over internal/parallel.
func TestQuantizedWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs := clusteredVecs(rng, 120, 5, 12)
	for _, p := range []Precision{PrecisionInt8, PrecisionPQ} {
		one := Build(vecs, quantCfg(p, 1), xrand.New(9).Stream("ivf"))
		eight := Build(vecs, quantCfg(p, 8), xrand.New(9).Stream("ivf"))
		for i, q := range vecs {
			if !slices.Equal(one.Search(q, 4), eight.Search(q, 4)) {
				t.Fatalf("%s: query %d differs between workers=1 and workers=8", p, i)
			}
		}
	}
}

// TestQuantizedAddMatchesBuild extends the incremental-determinism
// contract to the quantized tiers: with the training prefix inside the
// initial build, Build(prefix)+Add equals Build(union) — codebooks are
// frozen at Build, so later Adds encode identically.
func TestQuantizedAddMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vecs := clusteredVecs(rng, 140, 6, 12)
	for _, p := range []Precision{PrecisionInt8, PrecisionPQ} {
		cfg := quantCfg(p, 2)
		cfg.TrainSize = 80
		grown := Build(vecs[:100], cfg, xrand.New(4).Stream("ivf"))
		for _, v := range vecs[100:] {
			grown.Add(v)
		}
		union := Build(vecs, cfg, xrand.New(4).Stream("ivf"))
		for i, q := range vecs {
			if !slices.Equal(grown.Search(q, 5), union.Search(q, 5)) {
				t.Fatalf("%s: query %d differs between grown and union index", p, i)
			}
		}
	}
}

// TestQuantizedExhaustiveRecall: with every list probed and the re-rank
// depth covering the whole corpus, the exact f32 re-rank must make both
// quantized tiers reproduce the exhaustive top-k exactly — the
// approximation then only orders the candidate stream, never drops one.
func TestQuantizedExhaustiveRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vecs := dupVecs(clusteredVecs(rng, 100, 4, 10))
	for _, p := range []Precision{PrecisionInt8, PrecisionPQ} {
		cfg := quantCfg(p, 1)
		cfg.NLists, cfg.NProbe = 4, 4
		cfg.TrainSize = len(vecs)
		cfg.RerankK = len(vecs)
		ix := Build(vecs, cfg, xrand.New(6).Stream("ivf"))
		for qi := 0; qi < len(vecs); qi += 7 {
			got := ix.Search(vecs[qi], 5)
			want := bruteKNN(vecs, vecs[qi], 5)
			for r := range want {
				if got[r].ID != want[r] {
					t.Fatalf("%s: query %d rank %d: got id %d, want %d", p, qi, r, got[r].ID, want[r])
				}
			}
		}
	}
}

// reconstruction returns the PQ decode of row id: its cell centroid plus
// the addressed codebook entries.
func reconstruction(ix *Index, id int) []float32 {
	var cell int
	for c, l := range ix.lists {
		for _, m := range l {
			if int(m) == id {
				cell = c
			}
		}
	}
	rec := append([]float32(nil), ix.centroids[cell]...)
	code := ix.pq.codes[id*ix.pq.m : (id+1)*ix.pq.m]
	for mi, cj := range code {
		lo, _ := ix.pq.subRange(mi)
		for d, x := range ix.pq.cents[mi*ix.pq.ks+int(cj)] {
			rec[lo+d] += x
		}
	}
	return rec
}

// l2 is the Euclidean norm of a float32 vector.
func l2(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// sub returns a−b.
func sub(a, b []float32) []float32 {
	out := make([]float32, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// TestADCErrorBound is the quantization-error property test: for random
// unit queries, the ADC score of every row differs from the exact dot by
// at most the row's reconstruction-error norm (Cauchy–Schwarz — the ADC
// score IS the exact dot with the reconstructed row), and the int8 score
// by at most the sum of the two quantization-error norms. Small epsilons
// absorb float accumulation.
func TestADCErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vecs := clusteredVecs(rng, 90, 4, 12)
	queries := make([][]float32, 25)
	for i := range queries {
		q := make([]float32, 12)
		for d := range q {
			q[d] = float32(rng.NormFloat64())
		}
		queries[i] = vector.Unit(q)
	}
	const eps = 1e-5

	cfg := quantCfg(PrecisionPQ, 1)
	cfg.TrainSize = len(vecs)
	pqIx := Build(vecs, cfg, xrand.New(2).Stream("ivf"))
	lut := make([]float64, pqIx.pq.m*pqIx.pq.ks)
	cellOf := make([]int, len(vecs))
	for c, l := range pqIx.lists {
		for _, m := range l {
			cellOf[m] = c
		}
	}
	qlut := make([]lutRow, pqIx.pq.m)
	for _, q := range queries {
		pqIx.pq.buildLUT(q, lut)
		step := quantizeLUT(lut, pqIx.pq.ks, qlut)
		for id := range vecs {
			base := vector.Dot(q, pqIx.centroids[cellOf[id]])
			approx := pqIx.pq.adc(base, lut, id)
			exact := vector.Dot(q, pqIx.vecs[id])
			bound := l2(sub(pqIx.vecs[id], reconstruction(pqIx, id))) + eps
			if d := math.Abs(approx - exact); d > bound {
				t.Fatalf("pq row %d: |adc−exact| = %g exceeds reconstruction bound %g", id, d, bound)
			}
			// The scan-path score adds only LUT rounding on top: at most
			// step/2 per sub-space entry.
			scan := pqIx.pq.adcQuant(base, qlut, step, id)
			qBound := float64(pqIx.pq.m)*step/2 + eps
			if d := math.Abs(scan - approx); d > qBound {
				t.Fatalf("pq row %d: |quantized-LUT − f64 ADC| = %g exceeds rounding bound %g", id, d, qBound)
			}
		}
	}

	cfg = quantCfg(PrecisionInt8, 1)
	i8Ix := Build(vecs, cfg, xrand.New(2).Stream("ivf"))
	q8 := make([]int8, 12)
	for _, q := range queries {
		qs := quantizeInt8(q, q8)
		qDec := make([]float32, len(q))
		for d, c := range q8 {
			qDec[d] = float32(c) * qs
		}
		for id := range vecs {
			approx := i8Ix.i8.dot(q8, qs, id)
			exact := vector.Dot(q, i8Ix.vecs[id])
			row := i8Ix.i8.codes[id*12 : (id+1)*12]
			vDec := make([]float32, 12)
			for d, c := range row {
				vDec[d] = float32(c) * i8Ix.i8.scale[id]
			}
			// |dot(q̂,v̂) − dot(q,v)| ≤ ‖q̂−q‖·‖v̂‖ + ‖v̂−v‖ for unit q.
			bound := l2(sub(qDec, q))*l2(vDec) + l2(sub(vDec, i8Ix.vecs[id])) + eps
			if d := math.Abs(approx - exact); d > bound {
				t.Fatalf("int8 row %d: |approx−exact| = %g exceeds bound %g", id, d, bound)
			}
			// And the absolute scale of the error stays tiny at dim 12.
			if d := math.Abs(approx - exact); d > 0.05 {
				t.Fatalf("int8 row %d: error %g implausibly large", id, d)
			}
		}
	}
}

// TestScanPQListMatchesADCQuant pins both scanPQList kernels — the
// fully unrolled m=16 fast path and the generic loop — to the adcQuant
// reference: offering every probed row through the kernel must keep
// exactly the rows a reference top-rr selection over adcQuant scores
// keeps, score for score. This is the equivalence the unrolled
// array-pointer kernel's correctness rests on.
func TestScanPQListMatchesADCQuant(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dim := range []int{32, 12} { // m resolves to 16 (fast path) and 4 (generic)
		vecs := clusteredVecs(rng, 120, 5, dim)
		cfg := quantCfg(PrecisionPQ, 1)
		if dim == 32 {
			cfg.M = 0 // default: resolves to 16, the unrolled geometry
		}
		ix := Build(vecs, cfg, xrand.New(7).Stream("ivf"))
		lut := make([]float64, ix.pq.m*ix.pq.ks)
		qlut := make([]lutRow, ix.pq.m)
		for qi := 0; qi < 15; qi++ {
			q := vector.Unit(vecs[rng.Intn(len(vecs))])
			ix.pq.buildLUT(q, lut)
			step := quantizeLUT(lut, ix.pq.ks, qlut)
			for c, list := range ix.lists {
				if len(list) == 0 {
					continue
				}
				base := vector.Dot(q, ix.centroids[c])
				for _, rr := range []int{3, len(list)} {
					var got vector.TopK
					ix.scanPQList(&got, list, base, qlut, step, rr)
					var want vector.TopK
					for _, id := range list {
						want.Offer(vector.Neighbor{ID: int(id), Sim: ix.pq.adcQuant(base, qlut, step, int(id))}, rr)
					}
					if !slices.Equal(got.Sorted(), want.Sorted()) {
						t.Fatalf("dim=%d list %d rr=%d: scanPQList diverged from adcQuant reference", dim, c, rr)
					}
				}
			}
		}
	}
}

// TestQuantizedEmptyBootstrap: an index built over an empty corpus and
// grown by Adds stays correct on every tier — the PQ bootstrap's
// single-entry zero codebook degrades ADC to the centroid dot and the
// exact re-rank restores the ordering.
func TestQuantizedEmptyBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	vecs := clusteredVecs(rng, 30, 2, 8)
	for _, p := range allPrecisions {
		cfg := DefaultConfig()
		cfg.Precision = p
		// The PQ bootstrap scores every member identically (zero
		// codebook), so exactness requires the re-rank to cover the
		// whole corpus — the documented degradation of quantizing an
		// index that had no training data.
		cfg.RerankK = 64
		ix := Build(nil, cfg, xrand.New(1).Stream("ivf"))
		for _, v := range vecs {
			ix.Add(v)
		}
		for qi, q := range vecs {
			got := ix.Search(q, 3)
			want := bruteKNN(vecs, q, 3)
			for r := range want {
				if got[r].ID != want[r] {
					t.Fatalf("%s: bootstrap query %d rank %d: got %d, want %d", p, qi, r, got[r].ID, want[r])
				}
			}
		}
	}
}

// TestQuantizedSnapshotRoundTrip: a quantized index survives
// AppendSnapshot/Restore — the restored index searches identically,
// continues the identical Add sequence, and re-encodes to byte-identical
// snapshot bytes (the acceptance-criterion round-trip).
func TestQuantizedSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vecs := clusteredVecs(rng, 110, 5, 12)
	for _, p := range []Precision{PrecisionInt8, PrecisionPQ} {
		cfg := quantCfg(p, 1)
		cfg.TrainSize = 64
		cut := 90
		orig := Build(vecs[:cut], cfg, xrand.New(8).Stream("ivf"))
		var b persist.Buffer
		orig.AppendSnapshot(&b)
		restored, err := Restore(vecs[:cut], cfg, persist.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("%s: Restore: %v", p, err)
		}
		var b2 persist.Buffer
		restored.AppendSnapshot(&b2)
		if string(b.Bytes()) != string(b2.Bytes()) {
			t.Fatalf("%s: re-encoded snapshot differs from the original bytes", p)
		}
		sameSearchIVF(t, orig, restored, vecs, 5)
		for _, v := range vecs[cut:] {
			orig.Add(v)
			restored.Add(v)
		}
		sameSearchIVF(t, Build(vecs, cfg, xrand.New(8).Stream("ivf")), restored, vecs, 5)
	}
}

// TestRestoreRejectsPQDamage: structurally damaged PQ sections yield
// errors, never panics — the white-box complement of the blocking-layer
// FuzzPQSnapshotDecode.
func TestRestoreRejectsPQDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	vecs := clusteredVecs(rng, 60, 3, 8)
	cfg := quantCfg(PrecisionPQ, 1)
	cfg.TrainSize = len(vecs)
	ix := Build(vecs, cfg, xrand.New(5).Stream("ivf"))
	var b persist.Buffer
	ix.AppendSnapshot(&b)
	good := b.Bytes()

	if _, err := Restore(vecs, cfg, persist.NewReader(good[:len(good)-3])); err == nil {
		t.Fatal("truncated PQ payload restored without error")
	}
	for i := 0; i < len(good); i += 5 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x5b
		ixr, err := Restore(vecs, cfg, persist.NewReader(bad))
		if err != nil || ixr == nil {
			continue
		}
		// A surviving flip must still yield a usable index (codes in
		// range, searches answer) — the decoder's structural checks make
		// anything else an error above.
		ixr.Search(vecs[0], 3)
	}
}
