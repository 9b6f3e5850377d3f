package lsh

import (
	"math/bits"
	"slices"

	"wdcproducts/internal/parallel"
)

// radixBits is how many bits of the row number the layout pass splits
// on. Its 64 buckets keep the pass's write positions on few enough
// memory pages that swapping keys between them stays cheap: on the 1.4M
// title keys of a 30k-offer query, one pass over 256 buckets took about
// 2.5 times as long as one over 64 (2-vCPU Xeon).
const radixBits = 6

// SortPairKeys sorts packed pair keys (lo<<32|hi, as AppendBandPairs
// emits them) ascending in place and returns them; with dedupe it also
// drops repeated keys and returns the distinct prefix. The result is the
// one slices.Sort (plus slices.Compact) gives, at any worker count.
//
// The keys of one lower endpoint form a row. One in-place counting pass
// on the top radixBits bits of the row number (an American-flag radix
// pass on the high word) splits the keys into 64 buckets of consecutive
// rows, and each bucket is then sorted, and compacted, on its own: one
// O(P log P) sort becomes 64 shorter independent ones, spread over at
// most workers goroutines (<= 0 selects runtime.NumCPU()). No second key
// buffer is allocated. A key set smaller than its row range (a subset or
// delta query over a few titles) keeps one slices.Sort: counting would
// cost more than it saves.
func SortPairKeys(keys []uint64, dedupe bool, workers int) []uint64 {
	if len(keys) == 0 {
		return keys
	}
	first, last := keys[0]>>32, keys[0]>>32
	for _, k := range keys[1:] {
		first, last = min(first, k>>32), max(last, k>>32)
	}
	rows := int(last-first) + 1
	if len(keys) < rows {
		return keys[:sortRun(keys, dedupe)]
	}
	span := uint(bits.Len(uint(rows - 1)))
	start := layOut(keys, first, span-min(span, radixBits))
	var kept [1 << radixBits]int
	parallel.Run(len(kept), workers, func(b int) error {
		kept[b] = sortRun(keys[start[b]:start[b+1]], dedupe)
		return nil
	}, nil)
	// Move each bucket's kept keys together at the front.
	n := 0
	for b, m := range kept {
		n += copy(keys[n:], keys[start[b]:start[b]+m])
	}
	return keys[:n]
}

// sortRun sorts keys and, with dedupe, moves the distinct ones to the
// front; it returns how many it kept.
func sortRun(keys []uint64, dedupe bool) int {
	slices.Sort(keys)
	if dedupe {
		return len(slices.Compact(keys))
	}
	return len(keys)
}

// layOut permutes keys in place so that bucket b, the keys whose row r
// has (r-base)>>shift == b, fills keys[start[b]:start[b+1]]. It counts
// the buckets, then carries each misplaced key to the next free slot of
// its bucket and picks up the key it displaces, until the key in hand
// belongs to the bucket being filled. Buckets below that one are
// complete, so every key left belongs at or past it.
func layOut(keys []uint64, base uint64, shift uint) (start [1<<radixBits + 1]int) {
	for _, k := range keys {
		start[int(k>>32-base)>>shift+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	next := start
	for b := range 1 << radixBits {
		for next[b] < start[b+1] {
			k := keys[next[b]]
			for home := int(k>>32-base) >> shift; home != b; home = int(k>>32-base) >> shift {
				j := next[home]
				next[home]++
				k, keys[j] = keys[j], k
			}
			keys[next[b]] = k
			next[b]++
		}
	}
	return start
}
