// Snapshot support: an Index round-trips through internal/persist by
// storing only its MinHash signatures, concatenated into one flat blob
// (fixed-width rows, so one length prefix covers the whole matrix). The
// hash family is a pure function of the seed stream the caller owns
// (NewSigner draws it deterministically), and the band buckets are a pure
// function of the signatures, so both are reconstructed on restore rather
// than stored — the snapshot stays small and there is no way for the
// persisted buckets to disagree with the persisted signatures.

package lsh

import (
	"fmt"
	"math/rand"
	"sync"

	"wdcproducts/internal/persist"
)

// AppendSnapshot writes the index's signatures into b as one flat
// row-major blob. Everything else — signer parameters and band buckets —
// is derived state that RestoreIndex recomputes.
func (ix *Index) AppendSnapshot(b *persist.Buffer) {
	nh := ix.cfg.NumHashes()
	flat := make([]uint64, 0, len(ix.sigs)*nh)
	for _, sig := range ix.sigs {
		flat = append(flat, sig...)
	}
	b.Int(len(ix.sigs))
	b.Uint64s(flat)
}

// RestoreIndex rebuilds an index from a snapshot written by
// AppendSnapshot. cfg and rng must match the Build-time configuration and
// seed stream: the signer is re-drawn from rng exactly as NewIndex would,
// and the signatures become subslice views into the single persisted
// blob. The band buckets are left for lazy materialization on first read
// (they are re-bucketed exactly as Build would bucket them), so the
// restored index behaves byte-identically to the original and subsequent
// Adds continue the same deterministic sequence — while a restore that is
// never queried pays only the cost of reading the signature blob.
func RestoreIndex(cfg Config, rng *rand.Rand, r *persist.Reader) (*Index, error) {
	if cfg.Bands <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("lsh: non-positive Bands/Rows")
	}
	ix := NewIndex(cfg, rng)
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("lsh: implausible signature count %d", n)
	}
	flat := r.Uint64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	nh := cfg.NumHashes()
	if len(flat) != n*nh {
		return nil, fmt.Errorf("lsh: signature blob holds %d hashes, want %d x %d", len(flat), n, nh)
	}
	ix.sigs = make([][]uint64, n)
	for i := 0; i < n; i++ {
		ix.sigs[i] = flat[i*nh : (i+1)*nh : (i+1)*nh]
	}
	ix.bucketsOnce = new(sync.Once)
	ix.buckets = nil
	return ix, nil
}

// BandKey returns the bucket key of indexed set i in the given band. Two
// sets — even ones held by different Index instances, as long as both
// indexes share the same hash family — collide in a band iff their
// BandKeys are equal. With Bucket it names every set colliding with set
// i, the incremental-delta query path. Keys are derived state, never
// persisted: a snapshot holds signatures, so the band mix may change
// between releases without invalidating one.
func (ix *Index) BandKey(i, band int) uint64 {
	return bandKey(ix.sigs[i], band, ix.cfg.Rows)
}
