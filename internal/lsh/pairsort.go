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

// radixRun is the shortest bucket sortRun sorts by radix; a shorter one
// is left to slices.Sort, since each radix pass costs a counter table
// besides its two sweeps over the keys. On the 1.4M title keys of a
// 30k-offer query (BenchmarkSortPairKeys, 2-vCPU Xeon), cut-overs of 64
// and 1024 keys sorted no faster than 256.
const radixRun = 256

// radixDigit is the widest digit a radix pass sorts on: its 2048
// counters (16 KB) fit in L1 beside the keys being scattered. On the
// same keys, 8-bit digits took about 42 ms against 33 ms for 11-bit
// ones, and 12- and 16-bit digits were no faster.
const radixDigit = 11

// SortPairKeys sorts packed pair keys (lo<<32|hi, as AppendBandPairs
// emits them) ascending in place and returns them; with dedupe it also
// drops repeated keys and returns the distinct prefix. The result is the
// one slices.Sort (plus slices.Compact) gives, at any worker count.
//
// The keys of one lower endpoint form a row. One in-place counting pass
// on the top radixBits bits of the row number (an American-flag radix
// pass on the high word) splits the keys into 64 buckets of consecutive
// rows, and each bucket is then sorted, and compacted, on its own
// (sortRun): one O(P log P) sort becomes 64 short least-significant-digit
// radix sorts over only the bits in which a bucket's rows and partners
// vary, spread over at most workers goroutines (<= 0 selects
// runtime.NumCPU()), each with one scratch buffer it reuses from bucket
// to bucket. A key set smaller than its row range (a subset or delta
// query over a few titles) keeps one slices.Sort: counting would cost
// more than it saves.
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
		slices.Sort(keys)
		if dedupe {
			keys = slices.Compact(keys)
		}
		return keys
	}
	span := uint(bits.Len(uint(rows - 1)))
	start := layOut(keys, first, span-min(span, radixBits))
	var kept [1 << radixBits]int
	largest := 0
	for b := range kept {
		largest = max(largest, start[b+1]-start[b])
	}
	// At most one scratch buffer per worker, sized for the largest
	// bucket: a task takes one (or makes one) and hands it back when its
	// bucket is sorted.
	scratch := make(chan []uint64, parallel.Workers(workers))
	parallel.Run(len(kept), workers, func(b int) error {
		var buf []uint64
		select {
		case buf = <-scratch:
		default:
			buf = make([]uint64, largest)
		}
		kept[b] = sortRun(keys[start[b]:start[b+1]], buf, dedupe)
		scratch <- buf
		return nil
	}, nil)
	// Move each bucket's kept keys together at the front.
	n := 0
	for b, m := range kept {
		n += copy(keys[n:], keys[start[b]:start[b]+m])
	}
	return keys[:n]
}

// sortRun sorts keys, by radixSort with buf as its scratch once there
// are radixRun of them, and, with dedupe, moves the distinct ones to the
// front; it returns how many it kept.
func sortRun(keys, buf []uint64, dedupe bool) int {
	if len(keys) < radixRun {
		slices.Sort(keys)
	} else {
		radixSort(keys, buf[:len(keys)])
	}
	if dedupe {
		return len(slices.Compact(keys))
	}
	return len(keys)
}

// radixSort sorts keys ascending by stable counting passes, least
// significant digit first, over the bits in which the keys differ: the
// varying low bits of the partner word, then those of the row word. The
// bits above them are the same in every key, so ordering by the varying
// bits alone orders the keys. A field of w varying bits takes
// ceil(w/radixDigit) passes of even width. The passes alternate between
// keys and buf, which is as long as keys; an odd pass count ends with one
// copy back.
func radixSort(keys, buf []uint64) {
	var diff uint64
	for _, k := range keys {
		diff |= k ^ keys[0]
	}
	src, dst := keys, buf
	for _, field := range [2]uint{0, 32} {
		width := uint(bits.Len32(uint32(diff >> field)))
		passes := (width + radixDigit - 1) / radixDigit
		for p := range passes {
			lo, hi := width*p/passes, width*(p+1)/passes
			radixPass(src, dst, field+lo, 1<<(hi-lo)-1)
			src, dst = dst, src
		}
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// radixPass scatters src into dst ordered by the digit (k>>shift)&mask,
// keeping keys of one digit in their src order.
func radixPass(src, dst []uint64, shift uint, mask uint64) {
	var next [1 << radixDigit]int
	for _, k := range src {
		next[(k>>shift)&mask]++
	}
	sum := 0
	for d, c := range next[:mask+1] {
		next[d], sum = sum, sum+c
	}
	for _, k := range src {
		d := (k >> shift) & mask
		dst[next[d]] = k
		next[d]++
	}
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
