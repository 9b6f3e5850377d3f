package blocking

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current blocker output")

// TestGoldenCandidates pins the exact candidate sets both blockers propose
// on the tiny-benchmark fixture. Recorded before the prepared-corpus
// rewrite of the token blocker and the top-K heap rewrite of the embedding
// blocker; both must reproduce it byte for byte.
func TestGoldenCandidates(t *testing.T) {
	offers, idxs, _ := fixture(t)
	var sb strings.Builder
	dump := func(name string, cands []CandidatePair) {
		fmt.Fprintf(&sb, "%s %d\n", name, len(cands))
		for _, p := range cands {
			fmt.Fprintf(&sb, "%d %d\n", p.A, p.B)
		}
	}
	dump("token", NewTokenBlocker().Candidates(offers, idxs))
	for _, k := range []int{2, 8, 16} {
		dump(fmt.Sprintf("embedding-k%d", k), NewEmbeddingBlocker(model, k).Candidates(offers, idxs))
	}
	path := filepath.Join("testdata", "candidates_golden.txt")
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

// TestGoldenIVFCandidates pins the exact candidate sets of the IVF blocker
// on the same fixture, alongside sublinear_golden.txt. The quantizer
// seeding is drawn from internal/xrand, so the sets are byte-stable across
// runs and worker counts (like the other embedding-space rows, pinned per
// platform: the encoder's float accumulation order is architecture-
// sensitive).
func TestGoldenIVFCandidates(t *testing.T) {
	offers, idxs, _ := fixture(t)
	var sb strings.Builder
	for _, k := range []int{2, 8} {
		cands := NewIVFBlocker(model, k).Candidates(offers, idxs)
		fmt.Fprintf(&sb, "ivf-k%d %d\n", k, len(cands))
		for _, p := range cands {
			fmt.Fprintf(&sb, "%d %d\n", p.A, p.B)
		}
	}
	path := filepath.Join("testdata", "ivf_golden.txt")
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

// TestGoldenSublinearCandidates pins the exact candidate sets of the
// MinHash-LSH and HNSW blockers on the same fixture. Their indexes are
// randomized but seeded through internal/xrand, so the sets must be
// byte-stable across runs and worker counts. (Like the embedding rows of
// the existing golden, the HNSW set depends on float accumulation order
// in the encoder, so the fixture is pinned per platform, not across
// architectures that fuse multiply-adds.)
func TestGoldenSublinearCandidates(t *testing.T) {
	offers, idxs, _ := fixture(t)
	var sb strings.Builder
	dump := func(name string, cands []CandidatePair) {
		fmt.Fprintf(&sb, "%s %d\n", name, len(cands))
		for _, p := range cands {
			fmt.Fprintf(&sb, "%d %d\n", p.A, p.B)
		}
	}
	dump("minhash", NewMinHashBlocker().Candidates(offers, idxs))
	for _, k := range []int{2, 8} {
		dump(fmt.Sprintf("hnsw-k%d", k), NewHNSWBlocker(model, k).Candidates(offers, idxs))
	}
	path := filepath.Join("testdata", "sublinear_golden.txt")
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

// TestGoldenSnapshots pins the snapshot format on the tiny-benchmark
// fixture: for each persisted engine, the file name OpenIndex writes and
// the SHA-256 of the index's EncodeSnapshot bytes, once for the freshly
// built index and once for the index OpenIndex loads back from that
// file. A refactor of the index or envelope code that changes a single
// byte, a fingerprint or a file name fails here, so snapshot directories
// written by earlier builds keep loading. The kNN rows are pinned per
// platform, like every embedding-space golden.
func TestGoldenSnapshots(t *testing.T) {
	offers, idxs, _ := fixture(t)
	var sb strings.Builder
	for _, bl := range persistableBlockers(2) {
		opts := IndexOptions{SnapshotDir: t.TempDir()}
		built, bstats := OpenIndex(bl, offers, idxs, opts)
		loaded, lstats := OpenIndex(bl, offers, idxs, opts)
		if !bstats.Saved || !lstats.Loaded {
			t.Fatalf("%s: open stats %+v then %+v, want a save then a load", bl.Name(), bstats, lstats)
		}
		fmt.Fprintf(&sb, "%s %s\nbuilt %x\nloaded %x\n", bl.Name(), filepath.Base(bstats.Path),
			sha256.Sum256(built.(SnapshotIndex).EncodeSnapshot()),
			sha256.Sum256(loaded.(SnapshotIndex).EncodeSnapshot()))
	}
	path := filepath.Join("testdata", "snapshot_golden.txt")
	if *updateGolden {
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
		t.Errorf("snapshots differ from golden %s:\n%s", path, sb.String())
	}
}
