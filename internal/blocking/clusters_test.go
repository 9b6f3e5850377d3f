package blocking

import (
	"math/rand"
	"testing"
)

// Evaluate is the exact reference scorer the tests compare
// EvaluateClusters and the blockers against: it walks every pair of the
// universe, so it takes any pairwise truth (whether two offer indices
// refer to the same product) but costs quadratic time. Candidates must be
// ordered and unique, as blockers emit them.
func Evaluate(cands []CandidatePair, idxs []int, truth func(a, b int) bool) Metrics {
	m := Metrics{Candidates: len(cands)}
	candSet := make(map[CandidatePair]bool, len(cands))
	for _, p := range cands {
		candSet[p] = true
	}
	for x := 0; x < len(idxs); x++ {
		for y := x + 1; y < len(idxs); y++ {
			if truth(idxs[x], idxs[y]) {
				m.TrueMatches++
				if candSet[orderedPair(idxs[x], idxs[y])] {
					m.CoveredMatches++
				}
			}
		}
	}
	if m.TrueMatches > 0 {
		m.PairCompleteness = float64(m.CoveredMatches) / float64(m.TrueMatches)
	}
	total := len(idxs) * (len(idxs) - 1) / 2
	if total > 0 {
		m.ReductionRatio = 1 - float64(len(cands))/float64(total)
	}
	return m
}

// TestEvaluateClustersMatchesEvaluate property-tests the linear-time
// cluster scorer against the exact quadratic Evaluate on random inputs:
// with cluster-membership truth, the two must agree bit for bit.
func TestEvaluateClustersMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(60)
		clusterOf := make([]int64, n)
		for i := range clusterOf {
			clusterOf[i] = int64(rng.Intn(1 + n/3))
		}
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		var cands []CandidatePair
		for k := 0; k < rng.Intn(4*n); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			// Mix of ordered, reversed and duplicate pairs: the cluster
			// scorer must dedup exactly as the candidate-set semantics do.
			if rng.Intn(2) == 0 {
				cands = append(cands, orderedPair(a, b))
			} else {
				cands = append(cands, CandidatePair{A: b, B: a})
			}
		}
		truth := func(a, b int) bool { return clusterOf[a] == clusterOf[b] }
		slow := Evaluate(dedupOrdered(cands), idxs, truth)
		fast := EvaluateClusters(cands, idxs, func(i int) int64 { return clusterOf[i] })
		if fast.TrueMatches != slow.TrueMatches {
			t.Fatalf("trial %d: true matches %d != %d", trial, fast.TrueMatches, slow.TrueMatches)
		}
		if fast.CoveredMatches != slow.CoveredMatches {
			t.Fatalf("trial %d: covered %d != %d", trial, fast.CoveredMatches, slow.CoveredMatches)
		}
		if fast.PairCompleteness != slow.PairCompleteness {
			t.Fatalf("trial %d: completeness %v != %v", trial, fast.PairCompleteness, slow.PairCompleteness)
		}
	}
}

// dedupOrdered normalizes candidates the way blockers emit them (ordered,
// unique), which is the input contract Evaluate counts Candidates by.
func dedupOrdered(cands []CandidatePair) []CandidatePair {
	seen := map[CandidatePair]bool{}
	var out []CandidatePair
	for _, p := range cands {
		q := orderedPair(p.A, p.B)
		if seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
	}
	return out
}

// TestEvaluateClustersEmpty covers the degenerate inputs.
func TestEvaluateClustersEmpty(t *testing.T) {
	m := EvaluateClusters(nil, nil, func(i int) int64 { return 0 })
	if m.TrueMatches != 0 || m.CoveredMatches != 0 || m.PairCompleteness != 0 {
		t.Fatalf("empty input produced %+v", m)
	}
	m = EvaluateClusters(nil, []int{1, 2, 3}, func(i int) int64 { return 7 })
	if m.TrueMatches != 3 || m.CoveredMatches != 0 {
		t.Fatalf("universe-only input produced %+v", m)
	}
}

// TestEvaluateClustersIgnoresOutsiders asserts candidates touching
// offers outside the universe never count as covered matches.
func TestEvaluateClustersIgnoresOutsiders(t *testing.T) {
	clusterOf := func(i int) int64 { return 1 }
	m := EvaluateClusters(
		[]CandidatePair{{A: 0, B: 1}, {A: 0, B: 99}},
		[]int{0, 1},
		clusterOf,
	)
	if m.CoveredMatches != 1 || m.TrueMatches != 1 {
		t.Fatalf("outsider pair counted: %+v", m)
	}
}
