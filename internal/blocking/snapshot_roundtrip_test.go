package blocking

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wdcproducts/internal/persist"
)

// Compile-time checks: every sublinear index persists, and the MinHash
// indexes report deltas.
var (
	_ SnapshotIndex = (*MinHashIndex)(nil)
	_ DeltaIndex    = (*MinHashIndex)(nil)
	_ SnapshotIndex = (*KNNIndex)(nil)

	_ snapshotBlocker = (*MinHashBlocker)(nil)
	_ snapshotBlocker = (*HNSWBlocker)(nil)
	_ snapshotBlocker = (*IVFBlocker)(nil)
)

// persistableBlockers returns the three snapshot-capable blockers at the
// given worker count.
func persistableBlockers(workers int) []snapshotBlocker {
	mh := NewMinHashBlocker()
	mh.Config.Workers = workers
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = workers
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = workers
	return []snapshotBlocker{mh, hb, ib}
}

// TestSnapshotRoundTrip is the central persistence property: encoding an
// index and loading it back must answer every query byte-identically to
// the index that was saved — full universe and subsets, at any worker
// count, for every engine.
func TestSnapshotRoundTrip(t *testing.T) {
	offers, idxs, _ := fixture(t)
	subset := idxs[:len(idxs)/2]
	for _, workers := range []int{1, 2, 8} {
		for _, bl := range persistableBlockers(workers) {
			name := fmt.Sprintf("%s/workers=%d", bl.Name(), workers)
			ix := bl.BuildIndex(offers, idxs)
			snap, ok := ix.(SnapshotIndex)
			if !ok {
				t.Fatalf("%s: index does not persist", name)
			}
			// SaveIndex refuses an index whose own address differs from
			// the one OpenIndex derives for the blocker.
			if got, want := snap.SnapshotFingerprint(), bl.snapshotFingerprint(offers, idxs); got != want {
				t.Fatalf("%s: index fingerprint %016x, blocker addresses %016x", name, got, want)
			}
			data := snap.EncodeSnapshot()
			loaded, err := bl.loadSnapshot(data, offers, idxs)
			if err != nil {
				t.Fatalf("%s: load failed: %v", name, err)
			}
			if loaded.Len() != ix.Len() {
				t.Fatalf("%s: loaded index holds %d offers, want %d", name, loaded.Len(), ix.Len())
			}
			samePairs(t, name+" full", loaded.Candidates(idxs), ix.Candidates(idxs))
			samePairs(t, name+" subset", loaded.Candidates(subset), ix.Candidates(subset))
		}
	}
}

// TestSnapshotRoundTripThenAdd: a loaded index must stay growable — Adds
// after a load land exactly where they would have landed on the original
// index, so the grown loaded index equals a fresh build over the union.
// This exercises the deferred tokenization and rng-restoration paths.
func TestSnapshotRoundTripThenAdd(t *testing.T) {
	offers, idxs, _ := fixture(t)
	cut := len(idxs) * 2 / 3
	mh := NewMinHashBlocker()
	mh.Config.Workers = 1
	hb := NewHNSWBlocker(model, 6)
	hb.Config.Workers = 1
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = 1
	ib.Config.TrainSize = 32 // covered by the initial two-thirds build
	for _, bl := range []snapshotBlocker{mh, hb, ib} {
		name := bl.Name()
		data := bl.BuildIndex(offers, idxs[:cut]).(SnapshotIndex).EncodeSnapshot()
		grown, err := bl.loadSnapshot(data, offers, idxs[:cut])
		if err != nil {
			t.Fatalf("%s: load failed: %v", name, err)
		}
		for _, i := range idxs[cut:] {
			grown.Add(offers, []int{i})
		}
		fresh := bl.BuildIndex(offers, idxs)
		if grown.Len() != fresh.Len() {
			t.Fatalf("%s: grown index holds %d offers, fresh %d", name, grown.Len(), fresh.Len())
		}
		samePairs(t, name, grown.Candidates(idxs), fresh.Candidates(idxs))
	}
}

// TestSnapshotFingerprintMismatch is the trust-rule regression: snapshot
// bytes from one corpus or configuration must never load under another —
// the loader reports a typed *persist.FingerprintMismatchError, and the
// caller path (OpenIndex) falls back to a rebuild.
func TestSnapshotFingerprintMismatch(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, bl := range persistableBlockers(1) {
		data := bl.BuildIndex(offers, idxs).(SnapshotIndex).EncodeSnapshot()
		var fp *persist.FingerprintMismatchError
		if _, err := bl.loadSnapshot(data, offers, idxs[:len(idxs)-1]); !errors.As(err, &fp) {
			t.Fatalf("%s: corpus change loaded anyway (err = %v)", bl.Name(), err)
		}
	}
	// Configuration changes shift the fingerprint too.
	mh := NewMinHashBlocker()
	mh.Config.Workers = 1
	data := mh.BuildIndex(offers, idxs).(SnapshotIndex).EncodeSnapshot()
	other := NewMinHashBlocker()
	other.Seed = mh.Seed + 1
	var fp *persist.FingerprintMismatchError
	if _, err := other.loadSnapshot(data, offers, idxs); !errors.As(err, &fp) {
		t.Fatalf("seed change loaded anyway (err = %v)", err)
	}
}

// TestOpenIndexSaveThenLoad: the first OpenIndex over an empty snapshot
// directory builds and saves; the second loads, skips the build, and
// answers queries byte-identically — for every engine. Each writes an
// <engine>-<fingerprint>.snap file.
func TestOpenIndexSaveThenLoad(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, bl := range persistableBlockers(2) {
		name := bl.Name()
		opts := IndexOptions{SnapshotDir: t.TempDir()}
		built, bstats := OpenIndex(bl, offers, idxs, opts)
		if bstats.Loaded || !bstats.Saved || bstats.LoadErr != nil || bstats.SaveErr != nil {
			t.Fatalf("%s: first open: %+v", name, bstats)
		}
		if _, err := os.Stat(bstats.Path); err != nil {
			t.Fatalf("%s: snapshot not on disk: %v", name, err)
		}
		loaded, lstats := OpenIndex(bl, offers, idxs, opts)
		if !lstats.Loaded || lstats.Saved || lstats.LoadErr != nil {
			t.Fatalf("%s: second open: %+v", name, lstats)
		}
		if lstats.Path != bstats.Path {
			t.Fatalf("%s: path changed between opens: %q vs %q", name, lstats.Path, bstats.Path)
		}
		samePairs(t, name, loaded.Candidates(idxs), built.Candidates(idxs))
		if want := fmt.Sprintf("%s-%016x.snap", name, bl.snapshotFingerprint(offers, idxs)); filepath.Base(bstats.Path) != want {
			t.Fatalf("%s: snapshot %s, want %s", name, bstats.Path, want)
		}
	}
}

// TestOpenIndexRebuildsOnCorruptSnapshot: damage to the snapshot file
// surfaces as a typed *persist.CorruptSnapshotError in OpenStats.LoadErr,
// and OpenIndex transparently rebuilds (and re-saves) a working index.
func TestOpenIndexRebuildsOnCorruptSnapshot(t *testing.T) {
	offers, idxs, _ := fixture(t)
	bl := NewMinHashBlocker()
	bl.Config.Workers = 1
	opts := IndexOptions{SnapshotDir: t.TempDir()}
	built, stats := OpenIndex(bl, offers, idxs, opts)
	want := built.Candidates(idxs)
	data, err := os.ReadFile(stats.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(stats.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, rstats := OpenIndex(bl, offers, idxs, opts)
	var corrupt *persist.CorruptSnapshotError
	if !errors.As(rstats.LoadErr, &corrupt) {
		t.Fatalf("corrupt snapshot: LoadErr = %v, want *persist.CorruptSnapshotError", rstats.LoadErr)
	}
	if rstats.Loaded || !rstats.Saved {
		t.Fatalf("corrupt snapshot: %+v, want rebuild + re-save", rstats)
	}
	cands, err := QueryCandidates(ix, idxs)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "rebuilt after corruption", cands, want)
	if _, again := OpenIndex(bl, offers, idxs, opts); !again.Loaded {
		t.Fatal("re-saved snapshot did not load")
	}
}

// TestOpenIndexRebuildsLegacySnapshot: format version 1 framed every
// blocking snapshot as a one-shard set, under the kind
// "blocking/sharded/<engine>" with a payload that opened with a count of
// 1; builds before that wrote the kind "blocking/<engine>" and the bare
// payload, which is what version 2 writes. Either file, planted at the
// path OpenIndex consults, is refused with a typed
// *persist.CorruptSnapshotError, rebuilt and overwritten, so the next
// open loads. Each legacy payload is well formed, so only the version
// word retires it.
func TestOpenIndexRebuildsLegacySnapshot(t *testing.T) {
	offers, idxs, _ := fixture(t)
	for _, bl := range persistableBlockers(1) {
		fp := bl.snapshotFingerprint(offers, idxs)
		kind := snapshotKind(bl.Name())
		payload, err := persist.Decode(bl.BuildIndex(offers, idxs).(SnapshotIndex).EncodeSnapshot(), kind, fp)
		if err != nil {
			t.Fatal(err)
		}
		for legacyKind, legacyPayload := range map[string][]byte{
			"blocking/sharded/" + bl.Name(): append(binary.LittleEndian.AppendUint64(nil, 1), payload...),
			kind:                            payload,
		} {
			dir := t.TempDir()
			path := snapshotPath(dir, bl.Name(), fp)
			if err := os.WriteFile(path, versionOne(persist.Encode(legacyKind, fp, legacyPayload)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, stats := OpenIndex(bl, offers, idxs, IndexOptions{SnapshotDir: dir})
			var corrupt *persist.CorruptSnapshotError
			if !errors.As(stats.LoadErr, &corrupt) || stats.Loaded || !stats.Saved || stats.Path != path {
				t.Fatalf("%s: legacy %s snapshot: %+v, want a typed refusal, rebuild and re-save at %s", bl.Name(), legacyKind, stats, path)
			}
			if _, again := OpenIndex(bl, offers, idxs, IndexOptions{SnapshotDir: dir}); !again.Loaded {
				t.Fatalf("%s: re-saved snapshot did not load: %+v", bl.Name(), again)
			}
		}
	}
}

// versionOne rewrites an encoded snapshot's version word to 1 and
// reseals its checksum.
func versionOne(snap []byte) []byte {
	binary.LittleEndian.PutUint32(snap[len(persist.Magic):], 1)
	body := snap[:len(snap)-8]
	binary.LittleEndian.PutUint64(snap[len(body):], persist.Checksum(body))
	return snap
}

// TestOpenIndexRefusesForeignFingerprint plants snapshot bytes built from
// a different configuration at the exact path OpenIndex consults: the
// load must be refused with a typed mismatch error — fingerprint trust is
// never negotiable — and the rebuilt index must serve queries through
// QueryCandidates as if nothing happened.
func TestOpenIndexRefusesForeignFingerprint(t *testing.T) {
	offers, idxs, _ := fixture(t)
	dir := t.TempDir()
	seedOne := NewMinHashBlocker()
	seedOne.Config.Workers = 1
	_, stats := OpenIndex(seedOne, offers, idxs, IndexOptions{SnapshotDir: dir})
	foreign, err := os.ReadFile(stats.Path)
	if err != nil {
		t.Fatal(err)
	}
	seedTwo := NewMinHashBlocker()
	seedTwo.Config.Workers = 1
	seedTwo.Seed = seedOne.Seed + 1
	// Plant seed-one bytes where the seed-two open will look.
	_, planted := OpenIndex(seedTwo, offers, idxs, IndexOptions{SnapshotDir: dir})
	if planted.Path == stats.Path {
		t.Fatal("seed change did not move the snapshot path")
	}
	if err := os.WriteFile(planted.Path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, rstats := OpenIndex(seedTwo, offers, idxs, IndexOptions{SnapshotDir: dir})
	var fp *persist.FingerprintMismatchError
	if !errors.As(rstats.LoadErr, &fp) {
		t.Fatalf("foreign snapshot: LoadErr = %v, want *persist.FingerprintMismatchError", rstats.LoadErr)
	}
	if rstats.Loaded {
		t.Fatal("foreign snapshot was trusted")
	}
	cands, err := QueryCandidates(ix, idxs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := seedTwo.BuildIndex(offers, idxs)
	samePairs(t, "rebuilt after mismatch", cands, fresh.Candidates(idxs))
}

// TestOpenIndexWithoutPersistence: an empty SnapshotDir or a blocker with
// no snapshot support must degrade to a plain build with zero stats.
func TestOpenIndexWithoutPersistence(t *testing.T) {
	offers, idxs, _ := fixture(t)
	mh := NewMinHashBlocker()
	mh.Config.Workers = 1
	ix, stats := OpenIndex(mh, offers, idxs, IndexOptions{})
	if stats != (OpenStats{}) {
		t.Fatalf("no snapshot dir: stats = %+v, want zero", stats)
	}
	samePairs(t, "no dir", ix.Candidates(idxs), mh.BuildIndex(offers, idxs).Candidates(idxs))

	eb := NewEmbeddingBlocker(model, 6)
	eb.Workers = 1
	dir := t.TempDir()
	ix2, stats2 := OpenIndex(eb, offers, idxs, IndexOptions{SnapshotDir: dir})
	if stats2 != (OpenStats{}) {
		t.Fatalf("non-persistable blocker: stats = %+v, want zero", stats2)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("non-persistable blocker wrote %d files", len(entries))
	}
	samePairs(t, "non-persistable", ix2.Candidates(idxs), eb.BuildIndex(offers, idxs).Candidates(idxs))
}
