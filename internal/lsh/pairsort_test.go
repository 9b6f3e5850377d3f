package lsh

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// pairKeys draws n packed keys lo<<32|hi, lo from row(rng) and hi above
// it from [lo+1, lo+1+span), in random order.
func pairKeys(rng *rand.Rand, n, span int, row func(*rand.Rand) uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		lo := row(rng)
		keys[i] = lo<<32 | (lo + 1 + uint64(rng.Intn(span)))
	}
	return keys
}

// TestSortPairKeys compares the row kernel with slices.Sort (plus
// slices.Compact when deduplicating) on both sides of its fallback (a key
// set smaller than its row range), on skewed and duplicate-heavy rows
// and on lower endpoints up to 2^20, at workers 1 and 8.
func TestSortPairKeys(t *testing.T) {
	const rows = 100 // the row range of the cut-off cases: lo spans [0, 99]
	spanRows := func(n int) func(*rand.Rand) []uint64 {
		return func(rng *rand.Rand) []uint64 {
			keys := pairKeys(rng, n-2, 50, func(r *rand.Rand) uint64 { return uint64(r.Intn(rows)) })
			// Pin both ends of the row range.
			return append(keys, 0<<32|7, (rows-1)<<32|rows)
		}
	}
	cases := []struct {
		name string
		keys func(*rand.Rand) []uint64
	}{
		{"empty", func(*rand.Rand) []uint64 { return nil }},
		{"single", func(*rand.Rand) []uint64 { return []uint64{3<<32 | 9} }},
		{"below cut-off", spanRows(rows - 1)},
		{"at cut-off", spanRows(rows)},
		{"above cut-off", spanRows(rows + 1)},
		{"heavy duplicates", func(rng *rand.Rand) []uint64 {
			// 300 distinct pairs over 40 rows, each emitted by up to 48
			// bands, as a cross-band sweep repeats them.
			distinct := pairKeys(rng, 300, 30, func(r *rand.Rand) uint64 { return uint64(r.Intn(40)) })
			var keys []uint64
			for _, k := range distinct {
				for range 1 + rng.Intn(48) {
					keys = append(keys, k)
				}
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			return keys
		}},
		{"one giant row", func(rng *rand.Rand) []uint64 {
			return pairKeys(rng, 5000, 2000, func(*rand.Rand) uint64 { return 17 })
		}},
		{"giant row among small ones", func(rng *rand.Rand) []uint64 {
			keys := pairKeys(rng, 4000, 500, func(*rand.Rand) uint64 { return 250 })
			keys = append(keys, pairKeys(rng, 1000, 40, func(r *rand.Rand) uint64 { return uint64(r.Intn(500)) })...)
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			return keys
		}},
		{"all singleton rows", func(rng *rand.Rand) []uint64 {
			keys := make([]uint64, 3000)
			for lo := range keys {
				keys[lo] = uint64(lo)<<32 | uint64(lo+1+rng.Intn(100))
			}
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			return keys
		}},
		{"lo up to 2^20", func(rng *rand.Rand) []uint64 {
			keys := pairKeys(rng, 1<<20, 1000, func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 20)) })
			return append(keys, keys[:1<<16]...) // and some repeats
		}},
		{"lo up to 2^20, sparse", func(rng *rand.Rand) []uint64 {
			return pairKeys(rng, 5000, 1000, func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 20)) })
		}},
	}
	for _, c := range cases {
		for _, dedupe := range []bool{false, true} {
			input := c.keys(rand.New(rand.NewSource(int64(len(c.name)))))
			want := slices.Clone(input)
			slices.Sort(want)
			if dedupe {
				want = slices.Compact(want)
			}
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/dedupe=%v/workers=%d", c.name, dedupe, workers), func(t *testing.T) {
					got := SortPairKeys(slices.Clone(input), dedupe, workers)
					if !slices.Equal(got, want) {
						t.Fatalf("%d keys in, got %d keys, want %d; first difference at %d",
							len(input), len(got), len(want), firstDiff(got, want))
					}
				})
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
