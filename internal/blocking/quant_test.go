// Blocking-layer tests of the quantized IVF tiers: candidate equivalence
// and worker invariance of the quantized path, and snapshot round-trips
// of quantized indexes with the stale-fingerprint refusal.

package blocking

import (
	"errors"
	"fmt"
	"testing"

	"wdcproducts/internal/ivf"
	"wdcproducts/internal/persist"
)

// quantIVFBlocker returns an IVF blocker at the given precision over the
// shared test model.
func quantIVFBlocker(p ivf.Precision, workers int) *IVFBlocker {
	ib := NewIVFBlocker(model, 6)
	ib.Config.Workers = workers
	ib.Config.Precision = p
	return ib
}

// TestIVFQuantizedCandidateRecall: on the tiny fixture the quantized
// tiers must retain nearly all of the f32 candidate pairs — the exact
// re-rank restores ordering among everything the approximate scan ranks
// highly, so losses only occur when a true neighbour drops below the
// re-rank depth.
func TestIVFQuantizedCandidateRecall(t *testing.T) {
	offers, idxs, _ := fixture(t)
	exact := quantIVFBlocker(ivf.PrecisionF32, 2).Candidates(offers, idxs)
	for _, p := range []ivf.Precision{ivf.PrecisionInt8, ivf.PrecisionPQ} {
		got := pairSet(quantIVFBlocker(p, 2).Candidates(offers, idxs))
		recall := overlapRecall(got, exact)
		t.Logf("%s: recall of f32 candidate set %.4f", p, recall)
		if recall < 0.99 {
			t.Fatalf("%s: candidate recall %.4f below the 0.99 floor", p, recall)
		}
	}
}

// TestIVFQuantizedDeterministic: quantized candidate sets are identical
// at any worker count — the search path's pooled scratch never leaks
// into results — and across repeated queries.
func TestIVFQuantizedDeterministic(t *testing.T) {
	offers, idxs, _ := fixture(t)
	subset := idxs[:len(idxs)/2]
	for _, p := range []ivf.Precision{ivf.PrecisionInt8, ivf.PrecisionPQ} {
		serial := quantIVFBlocker(p, 1).BuildIndex(offers, idxs)
		wide := quantIVFBlocker(p, 8).BuildIndex(offers, idxs)
		samePairs(t, string(p)+" full", wide.Candidates(idxs), serial.Candidates(idxs))
		samePairs(t, string(p)+" subset", wide.Candidates(subset), serial.Candidates(subset))
		samePairs(t, string(p)+" repeat", wide.Candidates(idxs), wide.Candidates(idxs))
	}
}

// TestIVFQuantizedSnapshotRoundTrip is the quantized half of the
// acceptance criterion: a quantized index round-trips through the
// snapshot codec byte-identically (the loaded index re-encodes to the
// same bytes), answers identically, and keeps doing so after further
// Adds.
func TestIVFQuantizedSnapshotRoundTrip(t *testing.T) {
	offers, idxs, _ := fixture(t)
	cut := len(idxs) * 2 / 3
	for _, p := range []ivf.Precision{ivf.PrecisionInt8, ivf.PrecisionPQ} {
		bl := quantIVFBlocker(p, 2)
		ix := bl.BuildIndex(offers, idxs).(SnapshotIndex)
		data := ix.EncodeSnapshot()
		loaded, err := bl.loadSnapshot(data, offers, idxs)
		if err != nil {
			t.Fatalf("%s: load failed: %v", p, err)
		}
		if string(loaded.(SnapshotIndex).EncodeSnapshot()) != string(data) {
			t.Fatalf("%s: loaded index re-encodes to different bytes", p)
		}
		samePairs(t, string(p), loaded.Candidates(idxs), ix.Candidates(idxs))

		// Round-trip a prefix build, then grow both sides identically.
		prefix := bl.BuildIndex(offers, idxs[:cut]).(SnapshotIndex)
		grown, err := bl.loadSnapshot(prefix.EncodeSnapshot(), offers, idxs[:cut])
		if err != nil {
			t.Fatalf("%s: prefix load failed: %v", p, err)
		}
		for _, i := range idxs[cut:] {
			prefix.Add(offers, []int{i})
			grown.Add(offers, []int{i})
		}
		samePairs(t, string(p)+" grown", grown.Candidates(idxs), prefix.Candidates(idxs))
	}
}

// TestIVFQuantizedStaleFingerprint: a snapshot written at one precision
// (or PQ shape) must refuse to load at another with the typed
// *persist.FingerprintMismatchError — the quantization knobs are content-
// address words, so precision skew is indistinguishable from corpus skew
// and equally fatal.
func TestIVFQuantizedStaleFingerprint(t *testing.T) {
	offers, idxs, _ := fixture(t)
	data := quantIVFBlocker(ivf.PrecisionPQ, 1).BuildIndex(offers, idxs).(SnapshotIndex).EncodeSnapshot()
	stale := []*IVFBlocker{
		quantIVFBlocker(ivf.PrecisionF32, 1),
		quantIVFBlocker(ivf.PrecisionInt8, 1),
	}
	reshaped := quantIVFBlocker(ivf.PrecisionPQ, 1)
	reshaped.Config.M = 2
	rerank := quantIVFBlocker(ivf.PrecisionPQ, 1)
	rerank.Config.RerankK = 99
	stale = append(stale, reshaped, rerank)
	for i, bl := range stale {
		_, err := bl.loadSnapshot(data, offers, idxs)
		var mismatch *persist.FingerprintMismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("stale config %d: want FingerprintMismatchError, got %v", i, err)
		}
	}
	if _, err := quantIVFBlocker(ivf.PrecisionPQ, 1).loadSnapshot(data, offers, idxs); err != nil {
		t.Fatalf("matching config refused its own snapshot: %v", err)
	}
}

// TestIVFPrecisionScaleReportNames: the quantized blockers keep the
// "ivf-knn" engine name, so reports, snapshots and CLI flags address one
// engine regardless of tier.
func TestIVFPrecisionScaleReportNames(t *testing.T) {
	for _, p := range []ivf.Precision{ivf.PrecisionF32, ivf.PrecisionInt8, ivf.PrecisionPQ} {
		bl := quantIVFBlocker(p, 1)
		if bl.Name() != "ivf-knn" {
			t.Fatalf("%s: blocker name %q", p, bl.Name())
		}
		if got := fmt.Sprint(bl.Config.Precision); got != string(p) {
			t.Fatalf("precision mangled: %q", got)
		}
	}
}
