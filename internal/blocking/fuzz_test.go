package blocking

import (
	"errors"
	"sync"
	"testing"

	"wdcproducts/internal/embed"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/xrand"
)

// The fuzz fixture is deliberately tiny and self-contained (not the
// shared benchmark fixture): every fuzz worker process pays its setup, so
// it must be milliseconds — a handful of offers and a micro embedding
// model are enough to exercise every decode path.
var fuzzFix struct {
	once   sync.Once
	offers []schemaorg.Offer
	idxs   []int
	model  *embed.Model
}

func fuzzFixture() ([]schemaorg.Offer, []int, *embed.Model) {
	fuzzFix.once.Do(func() {
		titles := []string{
			"acme widget pro 3000 silver",
			"acme widget pro 3000 gold",
			"bolt cutter heavy duty 14in",
			"bolt cutter heavy duty 18in",
			"usb c cable 2m braided black",
			"usb c cable 1m braided white",
			"acme widget pro 3000 silver", // duplicate title: exercises groups
			"stainless travel mug 450ml",
		}
		fuzzFix.offers = make([]schemaorg.Offer, len(titles))
		fuzzFix.idxs = make([]int, len(titles))
		for i, title := range titles {
			fuzzFix.offers[i] = schemaorg.Offer{Title: title}
			fuzzFix.idxs[i] = i
		}
		cfg := embed.DefaultConfig()
		cfg.Dim = 8
		cfg.Epochs = 1
		cfg.Buckets = 1 << 8
		fuzzFix.model = embed.Train(titles, cfg, xrand.New(9).Stream("fuzz-embed"))
	})
	return fuzzFix.offers, fuzzFix.idxs, fuzzFix.model
}

// fuzzLSHConfig keeps the per-input work small.
func fuzzLSHConfig() lsh.Config {
	return lsh.Config{Bands: 4, Rows: 2, Workers: 1}
}

func fuzzHNSWConfig() hnsw.Config {
	cfg := hnsw.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

func fuzzIVFConfig() ivf.Config {
	return ivf.Config{NLists: 2, NProbe: 1, TrainSize: 4, Iters: 2, Workers: 1}
}

// FuzzSnapshotDecode drives arbitrary bytes through every snapshot
// loader. The contract under test is the persistence layer's core safety
// property: no input — truncated, bit-flipped, version-skewed, or
// wholesale garbage — may panic or allocate absurdly; every failure is a
// typed *persist.CorruptSnapshotError or *persist.FingerprintMismatchError.
// The seed corpus holds one valid snapshot of each kind, so the fuzzer
// explores mutations of real envelopes (checksum-valid prefixes, skewed
// versions, foreign kinds) rather than only random noise.
func FuzzSnapshotDecode(f *testing.F) {
	offers, idxs, model := fuzzFixture()
	const seed = 1
	blockers := []snapshotBlocker{
		&MinHashBlocker{Config: fuzzLSHConfig(), Seed: seed},
		&HNSWBlocker{Model: model, K: 2, Config: fuzzHNSWConfig(), Seed: seed},
		&IVFBlocker{Model: model, K: 2, Config: fuzzIVFConfig(), Seed: seed},
	}
	for _, b := range blockers {
		f.Add(b.BuildIndex(offers, idxs).(SnapshotIndex).EncodeSnapshot())
	}
	f.Add([]byte(persist.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(name string, err error) {
			if err == nil {
				return
			}
			var corrupt *persist.CorruptSnapshotError
			var mismatch *persist.FingerprintMismatchError
			if !errors.As(err, &corrupt) && !errors.As(err, &mismatch) {
				t.Fatalf("%s: untyped load error %T: %v", name, err, err)
			}
		}
		for _, b := range blockers {
			ix, err := b.loadSnapshot(data, offers, idxs)
			check(b.Name(), err)
			if err == nil {
				// A load that passed every structural check must be
				// queryable without panicking.
				ix.Candidates(idxs)
			}
		}
	})
}
