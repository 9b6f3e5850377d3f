package lsh

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"wdcproducts/internal/xrand"
)

// decodeTokenSet turns fuzz bytes into a token-ID set: every 4-byte window
// becomes one int32 token (duplicates and arbitrary sign patterns are the
// point — the signer must tolerate any set shape).
func decodeTokenSet(data []byte) []int32 {
	out := make([]int32, 0, len(data)/4)
	for i := 0; i+4 <= len(data); i += 4 {
		out = append(out, int32(uint32(data[i])|uint32(data[i+1])<<8|
			uint32(data[i+2])<<16|uint32(data[i+3])<<24))
	}
	return out
}

// referenceSignature is the MinHash signature by definition, in math/big:
// position i holds min over the set of (a_i*uint32(tok) + b_i) mod
// (2^61-1), and the empty set holds the all-max sentinel.
func referenceSignature(s *Signer, set []int32) []uint64 {
	p := new(big.Int).SetUint64(mersennePrime61)
	out := make([]uint64, s.NumHashes())
	var h big.Int
	for i := range out {
		out[i] = ^uint64(0)
		for _, tok := range set {
			h.SetUint64(uint64(uint32(tok)))
			h.Mul(&h, new(big.Int).SetUint64(s.a[i]))
			h.Add(&h, new(big.Int).SetUint64(s.b[i]))
			h.Mod(&h, p)
			out[i] = min(out[i], h.Uint64())
		}
	}
	return out
}

// checkSignature fails t unless s signs set to referenceSignature at
// every position.
func checkSignature(t *testing.T, s *Signer, set []int32) {
	t.Helper()
	got, want := s.Signature(set, nil), referenceSignature(s, set)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("set %v, hash %d (a=%d, b=%d): signed %d, want %d", set, i, s.a[i], s.b[i], got[i], want[i])
		}
	}
}

// TestSignatureExact pins Signature bit for bit to its definition at the
// edges of the hash arithmetic: tokens with the sign bit set (they hash
// as their 32-bit patterns), uint32 max, and multipliers and offsets at
// both ends of their ranges, a = 2^61-2 included, as well as a family
// drawn by NewSigner. The last edge hash needs mulmod61's own final
// correction: (2^32+1)*(2^32-1) = 2^64-1 folds to 2^61-1 + 7.
func TestSignatureExact(t *testing.T) {
	const p = mersennePrime61
	edges := &Signer{
		a: []uint64{1, 2, p - 2, p - 1, p - 1, 1 << 60, p / 3, 0x1234_5678_9abc_def, 1<<32 + 1},
		b: []uint64{0, p - 1, p - 1, 0, p - 1, p / 2, 1, 0x0fed_cba9_8765_4321, p - 1},
	}
	drawn := NewSigner(64, xrand.New(7).Stream("lsh"))
	sets := [][]int32{
		nil,
		{0},
		{-1},                      // uint32 max
		{math.MinInt32},           // only the sign bit
		{math.MaxInt32},           // all bits but the sign bit
		{-1, 0, 1, math.MinInt32}, // both ends of the 32-bit domain
		{3, 17, 99, 512, -2, -512, 1 << 30},
	}
	for _, s := range []*Signer{edges, drawn} {
		for _, set := range sets {
			checkSignature(t, s, set)
		}
	}
}

// FuzzSignature drives MinHash signature computation with arbitrary token
// sets and hash-family seeds, pinning the invariants no input may break:
// no panics, the signature length always equals the family size, every
// position equals the math/big reference (a_i*x + b_i) mod (2^61-1), the
// computation is deterministic and independent of element order, and the
// empty set signs to the all-max sentinel.
func FuzzSignature(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, int64(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80}, int64(-3))
	f.Add([]byte("minhash signatures over product titles"), int64(42))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		set := decodeTokenSet(data)
		const numHashes = 24
		signer := NewSigner(numHashes, rand.New(rand.NewSource(seed)))
		sig := signer.Signature(set, nil)
		if len(sig) != numHashes {
			t.Fatalf("signature length %d, want %d", len(sig), numHashes)
		}
		if len(set) == 0 {
			for i, v := range sig {
				if v != ^uint64(0) {
					t.Fatalf("empty set signed %d at position %d, want all-max", v, i)
				}
			}
		}
		for _, v := range sig {
			if v != ^uint64(0) && v >= mersennePrime61 {
				t.Fatalf("signature value %d escapes the 2^61-1 hash range", v)
			}
		}
		checkSignature(t, signer, set)
		// Determinism, including through a reused destination buffer.
		reuse := signer.Signature(set, make([]uint64, numHashes))
		for i := range sig {
			if sig[i] != reuse[i] {
				t.Fatalf("signature not deterministic at position %d", i)
			}
		}
		// Order invariance: MinHash is a set operation.
		shuffled := append([]int32(nil), set...)
		sort.Slice(shuffled, func(a, b int) bool { return shuffled[a] > shuffled[b] })
		resigned := signer.Signature(shuffled, nil)
		for i := range sig {
			if sig[i] != resigned[i] {
				t.Fatalf("signature depends on element order at position %d", i)
			}
		}
	})
}

// FuzzIndexQuery drives the banded index with arbitrary sets: Build + Add
// must not panic, and the per-band Bucket/BandKey lookup of the added set
// must name only indexed sets, in ascending order, the added set among
// them.
func FuzzIndexQuery(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, []byte{1, 0, 0, 0})
	f.Add([]byte{}, []byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, corpus []byte, query []byte) {
		// Cut the corpus bytes into up to 8 small sets.
		var sets [][]int32
		for len(corpus) > 0 && len(sets) < 8 {
			n := 4 * (1 + int(corpus[0])%4)
			if n > len(corpus) {
				n = len(corpus)
			}
			sets = append(sets, decodeTokenSet(corpus[:n]))
			corpus = corpus[n:]
		}
		ix := NewIndex(Config{Bands: 6, Rows: 2, Workers: 1}, xrand.New(5).Stream("fuzz"))
		ix.Build(sets)
		q := ix.Add(decodeTokenSet(query))
		for band := 0; band < ix.Config().Bands; band++ {
			got := ix.Bucket(band, ix.BandKey(q, band))
			self := false
			for i, m := range got {
				if m < 0 || int(m) >= ix.Len() {
					t.Fatalf("band %d bucket holds out-of-range member %d", band, m)
				}
				if i > 0 && got[i-1] >= m {
					t.Fatalf("band %d bucket not ascending: %v", band, got)
				}
				self = self || int(m) == q
			}
			if !self {
				t.Fatalf("band %d bucket %v misses the added set %d", band, got, q)
			}
		}
	})
}
