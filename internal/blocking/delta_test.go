// The delta-candidates contract suite: for the MinHash index, adjacency
// is monotone under Add and DeltaCandidates over
// an applied batch equals the full-universe query filtered to pairs
// touching the batch — the two properties the serving daemon's
// incremental view publication rests on. Every kNN index must stay out
// of the contract (ErrNoDelta). The token blocker is the one BlockerNames
// entry absent here: it has no reusable Index form.

package blocking

import (
	"errors"
	"fmt"
	"testing"

	"wdcproducts/internal/schemaorg"
)

// deltaWant filters a full candidate set down to the pairs with at least
// one endpoint in batch — the reference the contract compares against.
func deltaWant(full []CandidatePair, batch []int) []CandidatePair {
	in := map[int]bool{}
	for _, i := range batch {
		in[i] = true
	}
	out := []CandidatePair{}
	for _, p := range full {
		if in[p.A] || in[p.B] {
			out = append(out, p)
		}
	}
	return out
}

// checkDelta asserts the contract for one (index, universe, batch)
// triple, including a batch with a repeated entry (harmless by contract).
func checkDelta(t *testing.T, ix Index, all, batch []int) {
	t.Helper()
	full := ix.Candidates(all)
	got, err := QueryDeltaCandidates(ix, batch)
	if err != nil {
		t.Fatalf("QueryDeltaCandidates: %v", err)
	}
	samePairs(t, "delta", got, deltaWant(full, batch))
	if len(batch) > 0 {
		rep, err := QueryDeltaCandidates(ix, append(append([]int(nil), batch...), batch[0]))
		if err != nil {
			t.Fatalf("QueryDeltaCandidates (repeated entry): %v", err)
		}
		samePairs(t, "delta with repeated batch entry", rep, got)
	}
}

// checkMonotone asserts that every pair of before — the full candidate
// set ahead of an Add — survives in the full candidate set after it.
func checkMonotone(t *testing.T, before, after []CandidatePair) {
	t.Helper()
	kept := pairSet(after)
	for _, p := range before {
		if !kept[p] {
			t.Fatalf("pair %+v vanished after Add: adjacency is not monotone", p)
		}
	}
}

// TestDeltaCandidatesContract covers every indexed engine (minhash,
// hnsw, embedding, ivf) at several worker counts plus the OpenIndex
// builds of the persisted engines (row names keep their "sharded/" form
// so test IDs stay stable), across two Add-after-Build rounds whose
// batches carry duplicate titles (one duplicating a build-set title, one
// duplicating a fellow batch member's title). MinHash rows check
// monotonicity across each Add, the delta against the filtered
// full query, a full-universe "batch" (the filter is the identity), and
// the unindexed-query error path. kNN rows check that the index is not a
// DeltaIndex and that delta queries report ErrNoDelta.
func TestDeltaCandidatesContract(t *testing.T) {
	offers, idxs, _ := fixture(t)
	// Two extra offers whose titles duplicate indexed ones, so the delta
	// expansion's identical-title handling is exercised on both sides.
	ext := append([]schemaorg.Offer(nil), offers...)
	dupBuild := len(ext)
	ext = append(ext, schemaorg.Offer{ID: 1 << 40, Title: offers[idxs[0]].Title})
	dupBatch := len(ext)
	ext = append(ext, schemaorg.Offer{ID: 1<<40 + 1, Title: offers[idxs[len(idxs)-1]].Title})

	cut := len(idxs) - 24
	buildSet := idxs[:cut]
	batch1 := append(append([]int(nil), idxs[cut:cut+12]...), dupBuild)
	batch2 := append(append([]int(nil), idxs[cut+12:]...), dupBatch)

	type tcase struct {
		name  string
		delta bool
		build func() Index
	}
	var cases []tcase
	for _, workers := range []int{1, 8} {
		workers := workers
		for _, bl := range indexedBlockers(workers) {
			bl := bl
			cases = append(cases, tcase{
				name:  fmt.Sprintf("%s/workers=%d", bl.Name(), workers),
				delta: bl.Name() == "minhash-lsh",
				build: func() Index { return bl.BuildIndex(ext, buildSet) },
			})
		}
	}
	for _, bl := range indexedBlockers(4) {
		bl := bl
		if bl.Name() == "embedding-knn" {
			continue // covered above: OpenIndex builds it exactly as BuildIndex does
		}
		cases = append(cases, tcase{
			name:  fmt.Sprintf("sharded/%s/shards=1", bl.Name()),
			delta: bl.Name() == "minhash-lsh",
			build: func() Index {
				ix, _ := OpenIndex(bl, ext, buildSet, IndexOptions{})
				return ix
			},
		})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ix := c.build()
			all := append([]int(nil), buildSet...)
			if !c.delta {
				if _, ok := ix.(DeltaIndex); ok {
					t.Fatalf("%T implements DeltaIndex, but kNN adjacency is not monotone under Add", ix)
				}
				ix.Add(ext, batch1)
				if _, err := QueryDeltaCandidates(ix, batch1); !errors.Is(err, ErrNoDelta) {
					t.Fatalf("delta query on a kNN index: got %v, want ErrNoDelta", err)
				}
				return
			}

			before := ix.Candidates(all)
			ix.Add(ext, batch1)
			all = append(all, batch1...)
			checkMonotone(t, before, ix.Candidates(all))
			checkDelta(t, ix, all, batch1)

			before = ix.Candidates(all)
			ix.Add(ext, batch2)
			all = append(all, batch2...)
			checkMonotone(t, before, ix.Candidates(all))
			checkDelta(t, ix, all, batch2)
			checkDelta(t, ix, all, all)

			var qe *UnindexedQueryError
			if _, err := QueryDeltaCandidates(ix, []int{len(ext)}); !errors.As(err, &qe) {
				t.Fatalf("unindexed delta query: got %v, want *UnindexedQueryError", err)
			}
		})
	}
}

// TestQueryDeltaCandidatesNoDelta pins the fallback signal: an Index
// without a delta path yields ErrNoDelta, which the serving layer maps
// to a full-adjacency rebuild.
func TestQueryDeltaCandidatesNoDelta(t *testing.T) {
	if _, err := QueryDeltaCandidates(plainIndex{}, []int{0}); !errors.Is(err, ErrNoDelta) {
		t.Fatalf("got %v, want ErrNoDelta", err)
	}
}

// plainIndex is a minimal Index with no DeltaCandidates method.
type plainIndex struct{}

func (plainIndex) Name() string                               { return "plain" }
func (plainIndex) Len() int                                   { return 0 }
func (plainIndex) Add(offers []schemaorg.Offer, idxs []int)   {}
func (plainIndex) Candidates(queryIdxs []int) []CandidatePair { return nil }
