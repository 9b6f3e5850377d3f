// Package lsh implements MinHash signatures and banded locality-sensitive
// hashing over the interned sorted token sets of a simlib.Prepared corpus.
//
// It is the first of the two sublinear candidate-generation engines behind
// the §6 blocking extension: instead of scoring every offer against every
// other offer, each title's token set is condensed into a short MinHash
// signature whose per-position collision probability equals the Jaccard
// similarity of the underlying sets. Cutting the signature into bands and
// bucketing titles by band value then surfaces exactly the pairs whose
// estimated Jaccard clears the band threshold (1/Bands)^(1/Rows), without
// ever enumerating the quadratic pair space.
//
// All hash parameters are drawn from a caller-provided random stream
// (internal/xrand), so index contents — and therefore candidate sets — are
// byte-stable across runs and worker counts and can be golden-tested.
package lsh

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"wdcproducts/internal/parallel"
)

// mersennePrime61 is the modulus of the universal hash family: 2^61 - 1,
// large enough that distinct 32-bit token IDs never collide before the
// multiply-add step.
const mersennePrime61 = (1 << 61) - 1

// Config sizes a MinHash-LSH index. The candidate threshold — the Jaccard
// similarity at which a pair has a 50% chance of sharing at least one band
// bucket — is approximately (1/Bands)^(1/Rows); more bands with fewer rows
// lowers the threshold (higher recall, more candidates) and vice versa.
type Config struct {
	// Bands is the number of signature bands; each band is bucketed
	// independently and any shared bucket makes a pair a candidate.
	Bands int
	// Rows is the number of MinHash values per band. The full signature
	// holds Bands*Rows values.
	Rows int
	// Workers bounds the goroutines that compute signatures and fill the
	// band buckets during Build, and that sort the pair keys of a large
	// query (SortPairKeys); <= 0 selects runtime.NumCPU(). Results are
	// identical at any value.
	Workers int
}

// NumHashes returns the signature length Bands*Rows.
func (c Config) NumHashes() int { return c.Bands * c.Rows }

// Threshold returns the approximate Jaccard similarity at which a pair
// becomes more likely than not to be proposed: (1/Bands)^(1/Rows).
func (c Config) Threshold() float64 {
	if c.Bands <= 0 || c.Rows <= 0 {
		return 1
	}
	return math.Pow(1/float64(c.Bands), 1/float64(c.Rows))
}

// Signer computes MinHash signatures with a fixed family of universal hash
// functions h_i(x) = (a_i*x + b_i) mod (2^61-1). The parameters are drawn
// once from the provided stream, so two Signers built from identically
// seeded streams produce identical signatures.
type Signer struct {
	a, b []uint64
}

// NewSigner draws a deterministic family of numHashes universal hash
// functions from rng.
func NewSigner(numHashes int, rng *rand.Rand) *Signer {
	s := &Signer{a: make([]uint64, numHashes), b: make([]uint64, numHashes)}
	for i := 0; i < numHashes; i++ {
		// a must be non-zero for the family to be universal.
		s.a[i] = uint64(rng.Int63n(mersennePrime61-1)) + 1
		s.b[i] = uint64(rng.Int63n(mersennePrime61))
	}
	return s
}

// NumHashes returns the signature length this signer produces.
func (s *Signer) NumHashes() int { return len(s.a) }

// Signature computes the MinHash signature of a token-ID set into dst
// (allocating when dst is too small) and returns it. The empty set hashes
// to an all-max signature that collides only with other empty sets.
//
// Token ids enter the hash as their 32-bit patterns (uint32(tok)), so
// every value is the exact (a_i*x + b_i) mod (2^61-1) over a 32-bit
// domain; mulmod61 relies on that bound. The loop is hash-major: each
// hash function's a_i and b_i stay in registers while it runs over the
// (short) set.
func (s *Signer) Signature(set []int32, dst []uint64) []uint64 {
	n := len(s.a)
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst, a, b := dst[:n], s.a[:n], s.b[:n]
	for i := range dst {
		ai, bi := a[i], b[i]
		m := ^uint64(0)
		for _, tok := range set {
			h := mulmod61(ai, uint64(uint32(tok))) + bi
			if h >= mersennePrime61 {
				h -= mersennePrime61
			}
			m = min(m, h)
		}
		dst[i] = m
	}
	return dst
}

// mulmod61 returns a*x mod 2^61-1 for a < 2^61 and x < 2^32, using the
// Mersenne reduction on the 128-bit product: 2^64 = 8 * 2^61, so the
// product hi*2^64 + lo is (hi*8 + lo>>61)*2^61 + (lo & mask), and
// 2^61 = 1 modulo the prime. The product is below 2^93, so the folded
// multiple hi<<3 | lo>>61 is below 2^32 and needs no reduction of its
// own; one conditional subtraction corrects the sum.
func mulmod61(a, x uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	r := (lo & mersennePrime61) + (hi<<3 | lo>>61)
	if r >= mersennePrime61 {
		r -= mersennePrime61
	}
	return r
}

// EstimateJaccard returns the fraction of positions on which two
// signatures agree — an unbiased estimate of the Jaccard similarity of the
// underlying sets.
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// Index is a banded LSH index over a collection of token sets. Build it
// once with Build (or grow it one set at a time with Add), then read
// candidate pairs with CandidatePairsAmong (or one band at a time with
// AppendBandPairs) or look up the sets colliding with one indexed set
// through Bucket and BandKey. Reads are safe for concurrent use as long
// as no Build or Add is in flight.
type Index struct {
	cfg    Config
	signer *Signer
	sigs   [][]uint64
	// buckets[band] maps a band hash to the member set indices that share
	// it, in ascending index order (workers write signatures into
	// index-addressed slots; each band is bucketed by a serial pass). The maps
	// are a pure function of the signatures and are materialized lazily by
	// ensureBuckets — an index restored from a snapshot serves no reads
	// before its first query, so the load path skips the rebucketing cost
	// entirely.
	bucketsOnce *sync.Once
	buckets     []map[uint64][]int32
}

// NewIndex returns an empty index whose hash family is drawn from rng.
func NewIndex(cfg Config, rng *rand.Rand) *Index {
	if cfg.Bands <= 0 || cfg.Rows <= 0 {
		panic("lsh: Config.Bands and Config.Rows must be positive")
	}
	return &Index{cfg: cfg, signer: NewSigner(cfg.NumHashes(), rng), bucketsOnce: new(sync.Once)}
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Len returns the number of indexed sets.
func (ix *Index) Len() int { return len(ix.sigs) }

// Build indexes the given token-ID sets. Signature computation — the only
// superlinear-cost step — fans out across the configured worker pool;
// workers write into per-set slots so the result is identical at any
// worker count. Build replaces any previously indexed sets.
func (ix *Index) Build(sets [][]int32) {
	ix.sigs = make([][]uint64, len(sets))
	parallel.Run(len(sets), ix.cfg.Workers, func(i int) error {
		ix.sigs[i] = ix.signer.Signature(sets[i], nil)
		return nil
	}, nil)
	ix.bucketsOnce = new(sync.Once)
	ix.buckets = nil
	ix.ensureBuckets()
}

// ensureBuckets materializes the band buckets from the signatures, at
// most once per Build/restore generation. Concurrent readers racing for
// the first query are serialized by the sync.Once. The bands fill in
// parallel, one band per task; each band is still filled serially in
// index order, so member lists are the same at any worker count.
func (ix *Index) ensureBuckets() {
	ix.bucketsOnce.Do(func() {
		buckets := make([]map[uint64][]int32, ix.cfg.Bands)
		parallel.Run(ix.cfg.Bands, ix.cfg.Workers, func(band int) error {
			m := make(map[uint64][]int32, len(ix.sigs))
			for i, sig := range ix.sigs {
				key := bandKey(sig, band, ix.cfg.Rows)
				m[key] = append(m[key], int32(i))
			}
			buckets[band] = m
			return nil
		}, nil)
		ix.buckets = buckets
	})
}

// Add indexes one more token set incrementally and returns its index.
// Because bucket member lists are append-only and ordered by index, a
// sequence of Adds produces an index byte-identical to one Build over the
// concatenated sets.
func (ix *Index) Add(set []int32) int {
	ix.ensureBuckets()
	i := len(ix.sigs)
	sig := ix.signer.Signature(set, nil)
	ix.sigs = append(ix.sigs, sig)
	for band := 0; band < ix.cfg.Bands; band++ {
		key := bandKey(sig, band, ix.cfg.Rows)
		ix.buckets[band][key] = append(ix.buckets[band][key], int32(i))
	}
	return i
}

// bandKey hashes one band of a signature into its bucket key. Each of
// the Rows 64-bit row values is mixed in as one word: xor, multiply by
// an odd constant, rotate. Every step is a bijection of the row value
// it takes in, so two bands that differ only in their last row never
// share a key; keys of bands that differ earlier coincide only by a
// 64-bit accident. Band keys are never persisted (a snapshot holds the
// signatures and RestoreIndex rebuckets them), and bucket membership
// depends only on which bands are equal, so the mix can change without
// changing any candidate set.
func bandKey(sig []uint64, band, rows int) uint64 {
	const mix = 0x9e3779b97f4a7c15 // odd: multiplying by it is a bijection
	h := uint64(band)
	for _, v := range sig[band*rows : (band+1)*rows] {
		h = bits.RotateLeft64((h^v)*mix, 31)
	}
	return h
}

// Signature returns the stored signature of set i. The slice is shared
// storage; callers must not modify it.
func (ix *Index) Signature(i int) []uint64 { return ix.sigs[i] }

// Bucket returns the indexed sets whose given band hashes to key, in
// ascending index order (nil when no indexed set does). Combined with
// BandKey it answers "who collides with set i in this band" without a
// full CandidatePairsAmong sweep — the incremental-delta query path. The
// slice is shared storage; callers must not modify it.
func (ix *Index) Bucket(band int, key uint64) []int32 {
	ix.ensureBuckets()
	return ix.buckets[band][key]
}

// CandidatePairsAmong returns every unordered pair of indexed sets that
// shares at least one band bucket, restricted to the member sets for which
// include returns true (nil includes every set), sorted lexicographically
// and deduplicated. The cost is proportional to the number of colliding
// pairs, not to the full quadratic pair space. Because a band collision is
// a pairwise property — independent of what else is indexed — the result
// equals the unrestricted pairs filtered to the included sets, which is
// what makes one corpus-wide index queryable per split. It is one
// AppendBandPairs sweep per band followed by SortedPairs at the
// configured worker count.
func (ix *Index) CandidatePairsAmong(include func(i int) bool) [][2]int {
	var keys []uint64
	for band := range ix.cfg.Bands {
		keys = ix.AppendBandPairs(keys, band, include)
	}
	return SortedPairs(keys, ix.cfg.Workers)
}

// AppendBandPairs appends to keys every unordered pair of included sets
// (nil include: every set) that shares a bucket of one band, packed as
// lo<<32|hi with lo < hi, and returns the extended slice. Keys come out
// in bucket order, not sorted, and a pair sharing buckets of several
// bands repeats across calls; SortPairKeys (or SortedPairs) orders and
// dedups the union.
//
// The band sweep is the unit of a query's read lock: Add only appends a
// set with a larger index than every set already indexed to the end of
// bucket member lists, and never removes or reorders a member. So a band
// yields the same pairs among the first n sets before or after any Add,
// and a caller whose include filter admits only sets below n may let
// Adds land between bands and still get exactly the answer of one sweep
// over the index as it stood with n sets.
func (ix *Index) AppendBandPairs(keys []uint64, band int, include func(i int) bool) []uint64 {
	ix.ensureBuckets()
	var kept []int32
	for _, members := range ix.buckets[band] {
		if len(members) < 2 {
			continue
		}
		kept = kept[:0]
		for _, m := range members {
			if include == nil || include(int(m)) {
				kept = append(kept, m)
			}
		}
		// Members ascend, so the lower index packs high.
		for x, a := range kept {
			for _, b := range kept[x+1:] {
				keys = append(keys, uint64(a)<<32|uint64(b))
			}
		}
	}
	return keys
}

// SortedPairs sorts and deduplicates packed pair keys (as AppendBandPairs
// emits them) in place with SortPairKeys, across at most workers
// goroutines, and unpacks them into lexicographically sorted pairs.
func SortedPairs(keys []uint64, workers int) [][2]int {
	keys = SortPairKeys(keys, true, workers)
	out := make([][2]int, len(keys))
	for i, k := range keys {
		out[i] = [2]int{int(k >> 32), int(uint32(k))}
	}
	return out
}
