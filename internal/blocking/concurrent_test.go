// The concurrent Add+Candidates hammer: the serve layer streams offers
// into a live index while queries are in flight, so every index must
// honour the reader/writer contract documented on Index. The hammer
// interleaves a canonical writer (tail batches applied in a fixed order,
// so the quiesced state is deterministic), duplicate writers (re-adding
// already-indexed offers — no-ops that still take the write lock), and
// reader goroutines asserting structural validity on every mid-stream
// result — all under -race in CI.

package blocking

import (
	"fmt"
	"sync"
	"testing"

	"wdcproducts/internal/schemaorg"
)

// checkPairsValid asserts the structural invariants every candidate set
// must satisfy no matter when the query ran relative to concurrent Adds:
// pairs are ordered (A < B), both endpoints lie inside the query set, and
// the list is sorted and duplicate-free. A torn read would break one of
// these long before -race reports it.
func checkPairsValid(t *testing.T, name string, cands []CandidatePair, query []int) {
	t.Helper()
	in := make(map[int]bool, len(query))
	for _, i := range query {
		in[i] = true
	}
	for i, p := range cands {
		if p.A >= p.B {
			t.Errorf("%s: pair %d = %+v is not ordered", name, i, p)
			return
		}
		if !in[p.A] || !in[p.B] {
			t.Errorf("%s: pair %d = %+v has an endpoint outside the query", name, i, p)
			return
		}
		if i > 0 {
			prev := cands[i-1]
			if p.A < prev.A || (p.A == prev.A && p.B <= prev.B) {
				t.Errorf("%s: pairs %d/%d = %+v, %+v out of order or duplicated", name, i-1, i, prev, p)
				return
			}
		}
	}
}

// hammerIndex drives one index through the interleaving: ix was built
// over prefix, the canonical writer adds the tail batches in order while
// duplicate writers re-add prefix offers and readers query the prefix
// throughout. When exact is true (MinHash: a band collision is a pairwise
// property, so pairs among prefix titles are invariant under adds) every
// mid-stream prefix read must equal the pre-stream result byte for byte;
// the kNN engines may legitimately drop prefix pairs as new titles
// consume neighbour budgets, so their mid-stream reads are
// validity-checked only.
func hammerIndex(t *testing.T, name string, ix Index, offers []schemaorg.Offer, prefix, tail []int, exact bool) {
	t.Helper()
	base := ix.Candidates(prefix)
	checkPairsValid(t, name+" base", base, prefix)

	const batch = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // canonical writer: the tail lands in deterministic order
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(tail); lo += batch {
			hi := lo + batch
			if hi > len(tail) {
				hi = len(tail)
			}
			ix.Add(offers, tail[lo:hi])
		}
	}()
	for w := 0; w < 2; w++ { // duplicate writers: no-op re-adds under the write lock
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					ix.Add(offers, prefix[:len(prefix)/2])
				}
			}
		}()
	}
	half := prefix[:len(prefix)/2]
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				query := prefix
				if i%2 == 1 {
					query = half
				}
				got := ix.Candidates(query)
				checkPairsValid(t, fmt.Sprintf("%s reader %d iter %d", name, r, i), got, query)
				if exact && i%2 == 0 {
					samePairs(t, fmt.Sprintf("%s reader %d iter %d (exact prefix)", name, r, i), got, base)
				}
				_ = ix.Len()
			}
		}(r)
	}
	wg.Wait()
}

// TestConcurrentAddCandidatesHammer interleaves writers and readers on
// all four engine indexes and asserts the quiesced grown index answers
// byte-identically to a fresh build over the union — the Add/Build
// equivalence the reuse layer already guarantees serially, now exercised
// under concurrent load (run with -race; the CI race job includes this
// package).
func TestConcurrentAddCandidatesHammer(t *testing.T) {
	offers, idxs, _ := fixture(t)
	cut := 2 * len(idxs) / 3
	prefix, tail := idxs[:cut], idxs[cut:]
	mh := NewMinHashBlocker()
	mh.Config.Workers = 2
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = 2
	eb := NewEmbeddingBlocker(model, 6)
	eb.Workers = 2
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = 2
	// The quantizer trains on a prefix; the initial build must cover it
	// for grown == fresh to hold (the documented IVF Add contract).
	ib.Config.TrainSize = 32
	for _, bl := range []IndexedBlocker{mh, hb, eb, ib} {
		bl := bl
		t.Run(bl.Name(), func(t *testing.T) {
			t.Parallel()
			ix := bl.BuildIndex(offers, prefix)
			hammerIndex(t, bl.Name(), ix, offers, prefix, tail, bl.Name() == "minhash-lsh")
			fresh := bl.BuildIndex(offers, idxs)
			samePairs(t, bl.Name()+" quiesced union", ix.Candidates(idxs), fresh.Candidates(idxs))
			samePairs(t, bl.Name()+" quiesced prefix", ix.Candidates(prefix), fresh.Candidates(prefix))
		})
	}
}
