package lsh

import (
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

// FuzzSignature drives MinHash signature computation with arbitrary token
// sets and hash-family seeds, pinning the invariants no input may break:
// no panics, the signature length always equals the family size, the
// computation is deterministic and independent of element order, and the
// empty set signs to the all-max sentinel.
func FuzzSignature(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, int64(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80}, int64(-3))
	f.Add([]byte("minhash signatures over product titles"), int64(42))
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
