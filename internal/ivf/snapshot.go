// Snapshot support: an Index round-trips through internal/persist by
// storing the trained quantizer (centroids plus the resolved NLists and
// NProbe) and the inverted-list assignments. Vectors are NOT stored: the
// caller owns them — they are derived from the corpus the snapshot is
// content-addressed to — and passes them back to Restore, which
// re-normalizes exactly as Build did. No rng state is needed: Build
// consumes randomness only while training, and centroids never move
// afterwards, so a restored index continues the identical deterministic
// Add sequence with no stream to fast-forward.

package ivf

import (
	"fmt"

	"wdcproducts/internal/parallel"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/vector"
)

// AppendSnapshot writes the quantizer and list assignments into b:
// resolved NLists/NProbe, every centroid, every inverted list, and the
// quantized row tier — the precision ordinal, then for PrecisionPQ the
// trained codebooks and per-row codes (the only quantized state that
// cannot be re-derived: its training consumed the Build rng). int8 rows
// are recomputed from the vectors at Restore instead of being stored.
// Vectors and the raw configuration are the caller's to persist (or
// re-derive).
func (ix *Index) AppendSnapshot(b *persist.Buffer) {
	b.Int(ix.Len())
	b.Int(ix.dim)
	b.Int(ix.cfg.NProbe)
	b.Int(len(ix.centroids))
	for _, c := range ix.centroids {
		b.Float32s(c)
	}
	for _, l := range ix.lists {
		b.Int32s(l)
	}
	b.Int(ix.cfg.Precision.Ordinal())
	if ix.cfg.Precision.Ordinal() == PrecisionPQ.Ordinal() {
		if ix.pq == nil {
			// An empty index built under PrecisionPQ has no trained
			// codebooks yet; the presence flag lets Restore tell that
			// apart from a truncated payload.
			b.Int(0)
			return
		}
		b.Int(1)
		b.Int(ix.pq.m)
		b.Int(ix.pq.ks)
		for _, c := range ix.pq.cents {
			b.Float32s(c)
		}
		b.Blob(ix.pq.codes)
	}
}

// Restore rebuilds an index from a snapshot written by AppendSnapshot.
// vecs and cfg must match the Build-time inputs: vectors are
// re-normalized across the configured worker pool exactly as Build does,
// while NLists, NProbe, Precision and (for PQ) M take the persisted
// resolved values (the snapshot was written after withDefaults ran).
// Every persisted list member is bounds-checked and must appear exactly
// once, PQ codebooks and codes are structurally validated, and int8 rows
// are recomputed from the supplied vectors; damaged input yields an
// error, never a panic.
func Restore(vecs [][]float32, cfg Config, r *persist.Reader) (*Index, error) {
	n := r.Int()
	dim := r.Int()
	nprobe := r.Int()
	nlists := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != len(vecs) {
		return nil, fmt.Errorf("ivf: snapshot holds %d vectors, caller supplied %d", n, len(vecs))
	}
	if n > 0 && dim != len(vecs[0]) {
		return nil, fmt.Errorf("ivf: snapshot dimension %d, vectors have %d", dim, len(vecs[0]))
	}
	if nlists < 0 || nlists > r.Remaining()/8 {
		return nil, fmt.Errorf("ivf: implausible list count %d", nlists)
	}
	if n > 0 && nlists < 1 {
		return nil, fmt.Errorf("ivf: no centroids for %d vectors", n)
	}
	if nprobe < 0 || (nlists > 0 && nprobe > nlists) || (nlists > 0 && nprobe < 1) {
		return nil, fmt.Errorf("ivf: NProbe %d out of range [1,%d]", nprobe, nlists)
	}
	ix := &Index{cfg: cfg, dim: dim}
	ix.cfg.NLists = nlists
	ix.cfg.NProbe = nprobe
	ix.centroids = make([][]float32, 0, nlists)
	for c := 0; c < nlists; c++ {
		cent := r.Float32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(cent) != dim {
			return nil, fmt.Errorf("ivf: centroid %d has dimension %d, want %d", c, len(cent), dim)
		}
		ix.centroids = append(ix.centroids, cent)
	}
	seen := make([]bool, n)
	total := 0
	ix.lists = make([][]int32, nlists)
	for c := 0; c < nlists; c++ {
		l := r.Int32s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		for _, id := range l {
			if int(id) < 0 || int(id) >= n {
				return nil, fmt.Errorf("ivf: list member %d out of range [0,%d)", id, n)
			}
			if seen[id] {
				return nil, fmt.Errorf("ivf: vector %d assigned to multiple lists", id)
			}
			seen[id] = true
			total++
		}
		ix.lists[c] = l
	}
	if total != n {
		return nil, fmt.Errorf("ivf: lists hold %d of %d vectors", total, n)
	}
	ord := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	prec, ok := precisionFromOrdinal(ord)
	if !ok {
		return nil, fmt.Errorf("ivf: unknown precision ordinal %d", ord)
	}
	ix.cfg.Precision = prec
	if prec == PrecisionPQ {
		if err := ix.restorePQ(n, dim, r); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return ix, nil
	}
	ix.vecs = make([][]float32, n)
	parallel.Run(n, cfg.Workers, func(i int) error {
		ix.vecs[i] = vector.Unit(vecs[i])
		return nil
	}, nil)
	if prec == PrecisionInt8 {
		// int8 rows are a pure function of the normalized vectors, so they
		// are recomputed rather than persisted — cheaper than codebooks and
		// impossible to corrupt independently of the vectors.
		ix.i8 = &int8Rows{dim: dim, codes: make([]int8, n*dim), scale: make([]float32, n)}
		parallel.Run(n, cfg.Workers, func(i int) error {
			ix.i8.scale[i] = quantizeInt8(ix.vecs[i], ix.i8.codes[i*dim:(i+1)*dim])
			return nil
		}, nil)
	}
	return ix, nil
}

// restorePQ reads and validates the PQ codebooks and row codes written by
// AppendSnapshot. Every structural invariant is checked — sub-space
// geometry, codebook entry widths, one m-byte code per vector, every code
// addressing an existing entry — so damaged bytes yield an error, never a
// panic or an index that panics later.
func (ix *Index) restorePQ(n, dim int, r *persist.Reader) error {
	present := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	switch present {
	case 0:
		if n > 0 {
			return fmt.Errorf("ivf: quantized snapshot of %d vectors is missing its PQ codebooks", n)
		}
		return nil
	case 1:
	default:
		return fmt.Errorf("ivf: PQ presence flag %d is not 0 or 1", present)
	}
	m := r.Int()
	ks := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if m < 1 || m > dim {
		return fmt.Errorf("ivf: PQ sub-space count %d out of range [1,%d]", m, dim)
	}
	if ks < 1 || ks > 256 {
		return fmt.Errorf("ivf: PQ codebook size %d out of range [1,256]", ks)
	}
	if m*ks > r.Remaining()/4 {
		return fmt.Errorf("ivf: implausible PQ codebook shape %dx%d", m, ks)
	}
	p := &pqRows{m: m, ks: ks, dim: dim, dsub: (dim + m - 1) / m}
	p.cents = make([][]float32, m*ks)
	for mi := 0; mi < m; mi++ {
		lo, hi := p.subRange(mi)
		for j := 0; j < ks; j++ {
			c := r.Float32s()
			if err := r.Err(); err != nil {
				return err
			}
			if len(c) != hi-lo {
				return fmt.Errorf("ivf: PQ entry %d of sub-space %d has width %d, want %d", j, mi, len(c), hi-lo)
			}
			p.cents[mi*ks+j] = c
		}
	}
	codes := r.Blob()
	if err := r.Err(); err != nil {
		return err
	}
	if len(codes) != n*m {
		return fmt.Errorf("ivf: PQ codes hold %d bytes, want %d", len(codes), n*m)
	}
	for i, c := range codes {
		if int(c) >= ks {
			return fmt.Errorf("ivf: PQ code %d of row %d addresses entry %d of a %d-entry codebook", i%m, i/m, c, ks)
		}
	}
	p.codes = codes
	p.refreshFlat()
	ix.pq = p
	ix.cfg.M = m
	return nil
}
