package blocking

// EvaluateClusters scores a candidate set against cluster-membership
// ground truth — clusterOf names the cluster (product) of each offer
// index — in O(|candidates| + |universe|) time: the true-match count is
// the sum of within-cluster pair counts and coverage is counted from the
// candidate list itself, deduplicated, ignoring pairs that leave the
// universe. The tests hold it to Evaluate, a quadratic walk over every
// pair of the universe kept in the test files as the exact reference; on
// cluster truth the two agree (property-tested).
func EvaluateClusters(cands []CandidatePair, idxs []int, clusterOf func(i int) int64) Metrics {
	m := Metrics{Candidates: len(cands)}
	inUniverse := make(map[int]bool, len(idxs))
	clusterSize := map[int64]int{}
	for _, i := range idxs {
		inUniverse[i] = true
		clusterSize[clusterOf(i)]++
	}
	for _, n := range clusterSize {
		m.TrueMatches += n * (n - 1) / 2
	}
	seen := make(map[CandidatePair]bool, len(cands))
	for _, p := range cands {
		q := orderedPair(p.A, p.B)
		if seen[q] {
			continue
		}
		seen[q] = true
		if inUniverse[q.A] && inUniverse[q.B] && clusterOf(q.A) == clusterOf(q.B) {
			m.CoveredMatches++
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
