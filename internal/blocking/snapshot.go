// Snapshot orchestration: every sublinear blocking index round-trips
// through internal/persist, content-addressed by the corpus fingerprint
// hashed together with the configuration words that shape index contents
// (and, for the embedding-space indexes, a content hash of the model).
// The trust rule is absolute: a load is used iff the stored fingerprint
// equals the one derived from the caller's own offers/config; every other
// outcome — missing file, corruption, version skew, mismatch — surfaces a
// typed error and falls back to an ordinary rebuild. OpenIndex packages
// the whole load-or-build-and-save dance behind one call, which is what
// the -snapshot-dir flag of wdceval and wdcserve drives.
//
// Snapshots store derived state only (signatures, adjacency, vectors,
// inverted lists) — never the corpus: the fingerprint guarantees the
// caller holds the identical offers, so the title bookkeeping is rebuilt
// from them at load, which is cheap because the tokenized corpus is
// materialized lazily (a loaded index defers tokenization until a
// post-load Add needs it).

package blocking

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
)

// snapshotKind is the kind string of a snapshot of the named engine. The
// "sharded" segment and the payload's leading count of 1 (see encode)
// are kept from the retired sharded format, so snapshots written by
// earlier builds keep loading.
func snapshotKind(name string) string { return "blocking/sharded/" + name }

// SnapshotIndex is implemented by indexes that can serialize themselves
// into the versioned snapshot format. The encoded bytes are self-checking
// (trailing checksum) and self-describing (kind + fingerprint); OpenIndex
// loads them back through the blocker that built the index, given the
// identical corpus and configuration.
type SnapshotIndex interface {
	Index
	// EncodeSnapshot returns the index as a persist snapshot blob.
	EncodeSnapshot() []byte
	// SnapshotFingerprint returns the content address the snapshot is
	// stamped with.
	SnapshotFingerprint() uint64
}

// modelFingerprint is the content-hash fingerprint word of an embedding
// model (0 for nil). It hashes the weights rather than the pointer, so it
// survives process boundaries, which is what snapshot content addressing
// needs.
func modelFingerprint(m *embed.Model) uint64 {
	if m == nil {
		return 0
	}
	return m.Fingerprint()
}

// words returns the configuration words of the HNSW index content
// address.
func (h *HNSWBlocker) words() []uint64 {
	return []uint64{uint64(h.K), uint64(h.Config.M), uint64(h.Config.EfConstruction),
		uint64(h.Config.EfSearch), uint64(h.Config.BatchSize), uint64(h.Seed), modelFingerprint(h.Model)}
}

// words returns the configuration words of the IVF index content
// address. The quantization knobs (precision tier, PQ sub-space count,
// re-rank depth) are part of the address: a snapshot built at one
// precision must never satisfy a load at another.
func (b *IVFBlocker) words() []uint64 {
	cfg := b.Config
	return []uint64{uint64(b.K), uint64(cfg.NLists), uint64(cfg.NProbe),
		uint64(cfg.TrainSize), uint64(cfg.Iters), uint64(b.Seed),
		uint64(cfg.Precision.Ordinal()), uint64(cfg.M), uint64(cfg.RerankK),
		modelFingerprint(b.Model)}
}

// appendVecs writes the per-title encodings into b.
func appendVecs(b *persist.Buffer, vecs [][]float32) {
	b.Int(len(vecs))
	for _, v := range vecs {
		b.Float32s(v)
	}
}

// readVecs reads per-title encodings, validating the count against the
// corpus and that every vector shares one dimension.
func readVecs(r *persist.Reader, kind string, titleCount int) ([][]float32, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, persist.Corrupt(kind, "%v", err)
	}
	if n != titleCount {
		return nil, persist.Corrupt(kind, "snapshot holds %d title vectors, corpus has %d titles", n, titleCount)
	}
	vecs := make([][]float32, n)
	for t := range vecs {
		vecs[t] = r.Float32s()
		if err := r.Err(); err != nil {
			return nil, persist.Corrupt(kind, "%v", err)
		}
		if len(vecs[t]) != len(vecs[0]) {
			return nil, persist.Corrupt(kind, "vector %d has dimension %d, want %d", t, len(vecs[t]), len(vecs[0]))
		}
	}
	return vecs, nil
}

// SnapshotFingerprint implements SnapshotIndex.
func (b *indexBase) SnapshotFingerprint() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.corpus.fingerprint(b.cfgWords...)
}

// encode wraps a payload — a count of 1, then what body writes — in the
// persist envelope. The caller holds the read lock, which keeps the
// encoded state consistent with the stamped fingerprint when Adds are
// landing concurrently.
func (b *indexBase) encode(body func(buf *persist.Buffer)) []byte {
	var buf persist.Buffer
	buf.Int(1)
	body(&buf)
	return persist.Encode(snapshotKind(b.name), b.corpus.fingerprint(b.cfgWords...), buf.Bytes())
}

// openPayload validates the envelope and the leading count shared by the
// loaders and returns the payload reader. The expected address is hashed
// from the caller's offers/idxs, as the blocker's own address is: that
// skips the per-offer title lookups of the corpus fingerprint, a
// measurable slice of a cold load.
func (b *indexBase) openPayload(data []byte, offers []schemaorg.Offer, idxs []int) (*persist.Reader, error) {
	kind := snapshotKind(b.name)
	payload, err := persist.Decode(data, kind, corpusFingerprint(offers, idxs, b.cfgWords...))
	if err != nil {
		return nil, err
	}
	r := persist.NewReader(payload)
	if got := r.Int(); r.Err() != nil || got != 1 {
		return nil, persist.Corrupt(kind, "snapshot payload count %d, want 1", got)
	}
	return r, nil
}

// finishPayload checks that a payload was fully consumed.
func (b *indexBase) finishPayload(r *persist.Reader) error {
	if r.Remaining() != 0 {
		return persist.Corrupt(snapshotKind(b.name), "%d trailing payload bytes", r.Remaining())
	}
	return nil
}

// EncodeSnapshot implements SnapshotIndex: the payload is the LSH
// signatures.
func (m *MinHashIndex) EncodeSnapshot() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.encode(m.ix.AppendSnapshot)
}

// EncodeSnapshot implements SnapshotIndex: the payload is the title
// encodings followed by the engine structure.
func (x *KNNIndex) EncodeSnapshot() []byte {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.encode(func(b *persist.Buffer) {
		appendVecs(b, x.vecs)
		x.engine.AppendSnapshot(b)
	})
}

// load restores the title encodings and the engine from snapshot bytes;
// restore decodes the engine over the encodings.
func (x *KNNIndex) load(data []byte, offers []schemaorg.Offer, idxs []int, restore func(r *persist.Reader) (knnEngine, error)) error {
	r, err := x.openPayload(data, offers, idxs)
	if err != nil {
		return err
	}
	kind := snapshotKind(x.name)
	if x.vecs, err = readVecs(r, kind, x.corpus.titleCount()); err != nil {
		return err
	}
	if x.engine, err = restore(r); err != nil {
		return persist.Corrupt(kind, "%v", err)
	}
	return x.finishPayload(r)
}

// snapshotBlocker is implemented by blockers whose indexes persist: it
// exposes the content address (for snapshot file naming and trust) and
// the matching typed loader.
type snapshotBlocker interface {
	IndexedBlocker
	snapshotFingerprint(offers []schemaorg.Offer, idxs []int) uint64
	loadSnapshot(data []byte, offers []schemaorg.Offer, idxs []int) (Index, error)
}

func (m *MinHashBlocker) snapshotFingerprint(offers []schemaorg.Offer, idxs []int) uint64 {
	return corpusFingerprint(offers, idxs, m.words()...)
}

// loadSnapshot restores a MinHash index from snapshot bytes. offers and
// idxs, and the blocker's Config and Seed, must be the ones the snapshot
// was built from — the load is refused with a
// *persist.FingerprintMismatchError otherwise — and damaged bytes are
// refused with a *persist.CorruptSnapshotError. The loaded index answers
// every Candidates query byte-identically to the index that was saved,
// including after further Adds.
func (m *MinHashBlocker) loadSnapshot(data []byte, offers []schemaorg.Offer, idxs []int) (Index, error) {
	x := m.newIndex(offers, idxs)
	r, err := x.openPayload(data, offers, idxs)
	if err != nil {
		return nil, err
	}
	kind := snapshotKind(x.name)
	if x.ix, err = lsh.RestoreIndex(m.Config, xrand.New(m.Seed).Stream("minhash-lsh"), r); err != nil {
		return nil, persist.Corrupt(kind, "%v", err)
	}
	if x.ix.Len() != x.corpus.titleCount() {
		return nil, persist.Corrupt(kind, "snapshot holds %d titles, corpus has %d titles", x.ix.Len(), x.corpus.titleCount())
	}
	if err := x.finishPayload(r); err != nil {
		return nil, err
	}
	return x, nil
}

func (h *HNSWBlocker) snapshotFingerprint(offers []schemaorg.Offer, idxs []int) uint64 {
	return corpusFingerprint(offers, idxs, h.words()...)
}

// loadSnapshot restores an HNSW index from snapshot bytes; the trust rule
// of MinHashBlocker.loadSnapshot applies (model included: its content
// hash is part of the fingerprint). Loading skips tokenization, encoding,
// and graph construction — the dominant build costs.
func (h *HNSWBlocker) loadSnapshot(data []byte, offers []schemaorg.Offer, idxs []int) (Index, error) {
	x := newKNNIndex(h.Name(), offers, idxs, h.Model, h.K, h.Config.Workers, h.words())
	err := x.load(data, offers, idxs, func(r *persist.Reader) (knnEngine, error) {
		return hnsw.Restore(x.vecs, h.Config, xrand.New(h.Seed).Stream("hnsw-knn"), r)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

func (b *IVFBlocker) snapshotFingerprint(offers []schemaorg.Offer, idxs []int) uint64 {
	return corpusFingerprint(offers, idxs, b.words()...)
}

// loadSnapshot restores an IVF index from snapshot bytes; the trust rule
// of HNSWBlocker.loadSnapshot applies. Loading skips tokenization,
// encoding, and the k-means fit.
func (b *IVFBlocker) loadSnapshot(data []byte, offers []schemaorg.Offer, idxs []int) (Index, error) {
	x := newKNNIndex(b.Name(), offers, idxs, b.Model, b.K, b.Config.Workers, b.words())
	err := x.load(data, offers, idxs, func(r *persist.Reader) (knnEngine, error) {
		return ivf.Restore(x.vecs, b.Config, r)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// IndexOptions parameterizes OpenIndex.
type IndexOptions struct {
	// SnapshotDir, when non-empty, enables persistence: OpenIndex tries
	// to load a trusted snapshot from the directory before building, and
	// saves a fresh snapshot after any build. Empty disables both.
	SnapshotDir string
}

// OpenStats reports what OpenIndex did.
type OpenStats struct {
	// Loaded is true when the index was restored from a trusted snapshot
	// (in which case no build ran).
	Loaded bool
	// Saved is true when a freshly built index was written back.
	Saved bool
	// Path is the snapshot file consulted and/or written ("" when
	// persistence was disabled or the blocker does not persist).
	Path string
	// LoadErr is the typed reason a present snapshot was refused (nil
	// when Loaded, when no snapshot existed, or when persistence was
	// off). The index is still valid: OpenIndex fell back to a rebuild.
	LoadErr error
	// SaveErr is the reason writing the snapshot back failed (nil when
	// Saved or when nothing needed saving). The index is still valid.
	SaveErr error
}

// OpenIndex returns a ready blocking index for the blocker over the given
// corpus: loaded from a trusted snapshot when opts.SnapshotDir holds one
// for the exact corpus/config fingerprint, freshly built otherwise — and
// in that case written back for the next process. Load failures of any
// kind are recorded in the returned OpenStats and fall back to the build
// path, so the call always yields a usable index; snapshot trust is
// never negotiable, only observable.
func OpenIndex(bl IndexedBlocker, offers []schemaorg.Offer, idxs []int, opts IndexOptions) (Index, OpenStats) {
	var stats OpenStats
	sb, persistable := bl.(snapshotBlocker)
	if opts.SnapshotDir == "" || !persistable {
		return bl.BuildIndex(offers, idxs), stats
	}
	fp := sb.snapshotFingerprint(offers, idxs)
	stats.Path = snapshotPath(opts.SnapshotDir, bl.Name(), fp)
	if data, err := os.ReadFile(stats.Path); err == nil {
		ix, lerr := sb.loadSnapshot(data, offers, idxs)
		if lerr == nil {
			stats.Loaded = true
			return ix, stats
		}
		stats.LoadErr = lerr
	} else if !errors.Is(err, fs.ErrNotExist) {
		stats.LoadErr = err
	}
	ix := bl.BuildIndex(offers, idxs)
	if snap, ok := ix.(SnapshotIndex); ok {
		if err := persist.WriteFile(stats.Path, snap.EncodeSnapshot()); err != nil {
			stats.SaveErr = err
		} else {
			stats.Saved = true
		}
	}
	return ix, stats
}

// snapshotPath is the content-addressed snapshot file for the named
// engine and fingerprint. The "-s1" infix is kept from the retired
// sharded format, so snapshot directories written by earlier builds keep
// loading.
func snapshotPath(dir, name string, fp uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-s1-%016x.snap", name, fp))
}

// SaveIndex writes ix back to the snapshot file OpenIndex would consult
// for the same blocker, corpus, and options — the write-back half of
// OpenIndex, for indexes that have grown since they were opened (a
// long-running process snapshots its grown index at shutdown so the
// next one loads instead of rebuilding). offers/idxs must describe the
// index's current contents, in the order they were indexed; SaveIndex
// verifies this against the index's own fingerprint and refuses to
// write a snapshot the next OpenIndex would not trust. Returns the
// path written, or "" when there is nothing to persist (persistence
// disabled, or the blocker/index does not snapshot).
func SaveIndex(bl IndexedBlocker, ix Index, offers []schemaorg.Offer, idxs []int, opts IndexOptions) (string, error) {
	sb, persistable := bl.(snapshotBlocker)
	snap, encodable := ix.(SnapshotIndex)
	if opts.SnapshotDir == "" || !persistable || !encodable {
		return "", nil
	}
	fp := sb.snapshotFingerprint(offers, idxs)
	if got := snap.SnapshotFingerprint(); got != fp {
		return "", fmt.Errorf("blocking: index fingerprint %016x does not match the %d given offers (%016x): snapshot refused",
			got, len(idxs), fp)
	}
	path := snapshotPath(opts.SnapshotDir, bl.Name(), fp)
	if err := persist.WriteFile(path, snap.EncodeSnapshot()); err != nil {
		return path, err
	}
	return path, nil
}
