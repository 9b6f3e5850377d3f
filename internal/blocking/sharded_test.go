package blocking

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedKNNRecall bounds the cost of partitioning the approximate
// engines: at every shard count the sharded index must keep at least 0.99
// of the unsharded index's recall of the exhaustive (exact-kNN) pair set.
// The merge gives each query title shards*(K+1) scored neighbours before
// truncation, so recall typically matches or exceeds the single index;
// the floor guards the contract.
func TestShardedKNNRecall(t *testing.T) {
	offers, idxs, _ := fixture(t)
	const k = 6
	exhaustive := NewEmbeddingBlocker(model, k).Candidates(offers, idxs)
	hb := NewHNSWBlocker(model, k)
	hb.Config.Workers = 2
	ib := NewIVFBlocker(model, k)
	ib.Config.Workers = 2
	for _, bl := range []ShardedIndexBuilder{hb, ib} {
		base := overlapRecall(pairSet(bl.BuildIndex(offers, idxs).Candidates(idxs)), exhaustive)
		for _, shards := range []int{2, 3, 4} {
			si := bl.BuildShardedIndex(offers, idxs, shards)
			got := overlapRecall(pairSet(si.Candidates(idxs)), exhaustive)
			t.Logf("%s shards=%d: exhaustive recall %.4f (unsharded %.4f)", bl.Name(), shards, got, base)
			if got < 0.99*base {
				t.Fatalf("%s shards=%d: recall %.4f < 0.99 x unsharded %.4f", bl.Name(), shards, got, base)
			}
		}
	}
}

// TestShardedDeterministic: sharded candidate sets are byte-identical at
// any worker count — shard assignment, per-shard build, and the fan-out
// merge are all pure functions of corpus and seed.
func TestShardedDeterministic(t *testing.T) {
	offers, idxs, _ := fixture(t)
	build := func(workers int) []Index {
		hb := NewHNSWBlocker(model, 6)
		hb.Config.Workers = workers
		ib := NewIVFBlocker(model, 6)
		ib.Config.Workers = workers
		return []Index{
			BuildShardedHNSWIndex(offers, idxs, 3, hb.Model, hb.K, hb.Config, hb.Seed),
			BuildShardedIVFIndex(offers, idxs, 3, ib.Model, ib.K, ib.Config, ib.Seed),
		}
	}
	serial, wide := build(1), build(8)
	for j := range serial {
		samePairs(t, serial[j].Name(), wide[j].Candidates(idxs), serial[j].Candidates(idxs))
	}
}

// TestShardedIncrementalAdd: a sharded index grown offer by offer equals
// a fresh sharded build over the union — per-shard insertion order is the
// global interning order restricted to the shard, so the engines' own
// grown-equals-fresh guarantees carry over.
func TestShardedIncrementalAdd(t *testing.T) {
	offers, idxs, _ := fixture(t)
	cut := len(idxs) * 2 / 3
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = 1
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = 1
	// Each shard trains its own quantizer on its first TrainSize titles;
	// keep that prefix inside the initial two-thirds build on every shard.
	ib.Config.TrainSize = 8
	for _, bl := range []ShardedIndexBuilder{hb, ib} {
		grown := bl.BuildShardedIndex(offers, idxs[:cut], 3)
		for _, i := range idxs[cut:] {
			grown.Add(offers, []int{i})
		}
		fresh := bl.BuildShardedIndex(offers, idxs, 3)
		if grown.Len() != fresh.Len() {
			t.Fatalf("%s: grown index holds %d offers, fresh %d", bl.Name(), grown.Len(), fresh.Len())
		}
		samePairs(t, bl.Name(), grown.Candidates(idxs), fresh.Candidates(idxs))
	}
}

// TestShardedQueryUnindexedOfferPanics: the sharded index honours the
// same contract as the unsharded ones — unknown query offers panic
// (recovered into a typed error by QueryCandidates) instead of silently
// under-reporting.
func TestShardedQueryUnindexedOfferPanics(t *testing.T) {
	offers, idxs, _ := fixture(t)
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = 1
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = 1
	for _, bl := range []ShardedIndexBuilder{hb, ib} {
		si := bl.BuildShardedIndex(offers, idxs[:len(idxs)-1], 2)
		var qe *UnindexedQueryError
		if _, err := QueryCandidates(si, idxs); !errors.As(err, &qe) {
			t.Fatalf("%s: unindexed query offer: got %v, want *UnindexedQueryError", bl.Name(), err)
		}
	}
}

// TestGoldenShardedCandidates pins the exact sharded candidate sets on
// the tiny-benchmark fixture, alongside the other golden files: the kNN
// rows pin the distributed merge byte for byte (per platform, like every
// embedding-space golden: encoder float accumulation order is
// architecture-sensitive).
func TestGoldenShardedCandidates(t *testing.T) {
	offers, idxs, _ := fixture(t)
	var sb strings.Builder
	dump := func(name string, cands []CandidatePair) {
		fmt.Fprintf(&sb, "%s %d\n", name, len(cands))
		for _, p := range cands {
			fmt.Fprintf(&sb, "%d %d\n", p.A, p.B)
		}
	}
	hb := NewHNSWBlocker(model, 6)
	dump("hnsw-k6-s2", BuildShardedHNSWIndex(offers, idxs, 2, hb.Model, hb.K, hb.Config, hb.Seed).Candidates(idxs))
	ib := NewIVFBlocker(model, 6)
	dump("ivf-k6-s2", BuildShardedIVFIndex(offers, idxs, 2, ib.Model, ib.K, ib.Config, ib.Seed).Candidates(idxs))
	path := filepath.Join("testdata", "sharded_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("candidates differ from golden %s", path)
	}
}
