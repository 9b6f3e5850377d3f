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
// resolved NLists/NProbe, every centroid and every inverted list. Vectors
// and the raw configuration are the caller's to persist (or re-derive).
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
}

// Restore rebuilds an index from a snapshot written by AppendSnapshot.
// vecs and cfg must match the Build-time inputs: vectors are
// re-normalized across the configured worker pool exactly as Build does,
// while NLists and NProbe take the persisted resolved values (the
// snapshot was written after withDefaults ran). Every persisted list
// member is bounds-checked and must appear exactly once; damaged input
// yields an error, never a panic.
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
	if n == 0 {
		return ix, nil
	}
	ix.vecs = make([][]float32, n)
	parallel.Run(n, cfg.Workers, func(i int) error {
		ix.vecs[i] = vector.Unit(vecs[i])
		return nil
	}, nil)
	return ix, nil
}
