// BenchmarkServeLoad: the daemon under a closed-loop query fleet while
// a connector streams fresh offers in — the serving-layer perf
// trajectory. The recorded metrics are query latency percentiles and
// throughput with ingest running concurrently, which is the
// configuration the epoch-view design is for: match reads stay
// lock-free while the applier lands batches.

package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/synth"
)

// BenchmarkServeLoad drives one load-generation run per iteration
// (Clients closed-loop clients, match + candidates mix) against a live
// daemon with continuous concurrent ingest, and reports p50/p99 request
// latency and sustained QPS.
func BenchmarkServeLoad(b *testing.B) {
	offers := fixture(b)
	seed := offers[:1500]
	cfg := testConfig(seed)
	cfg.BatchSize = 64
	conn := NewChanConnector(64)
	cfg.Connector = conn
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()

	// Continuous ingest: clones of the held-out offers with fresh IDs,
	// streamed for as long as the bench runs. The producer is paced so
	// the applier is continuously busy without starving the query path
	// of every core (unpaced, the full-adjacency recompute per batch
	// saturates the machine and measures CPU contention, not serving).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tail := offers[1500:]
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var nextID int64 = 1 << 40
		for i := 0; ; i++ {
			off := tail[i%len(tail)]
			off.ID = nextID
			nextID++
			select {
			case conn.C <- off:
			case <-stop:
				return
			}
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()

	ids := make([]int64, 512)
	for i := range ids {
		ids[i] = seed[i].ID
	}
	var report LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RunLoad(ts.URL, LoadOptions{
			Clients:         8,
			Requests:        600,
			MatchIDs:        ids,
			CandidateEvery:  4,
			CandidateWindow: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Failures > 0 {
			b.Fatalf("%d of %d load requests failed", r.Failures, r.Requests)
		}
		report = r
	}
	b.StopTimer()
	b.ReportMetric(float64(report.P50.Microseconds()), "p50-us")
	b.ReportMetric(float64(report.P99.Microseconds()), "p99-us")
	b.ReportMetric(report.QPS, "qps")
	b.ReportMetric(float64(s.Stats().Applied), "ingested-offers")
}

// BenchmarkServeIngestScale measures the write path over synthetically
// grown corpora at n=10k and n=100k: the daemon builds its index and
// initial view over the grown universe (untimed setup), then the timed
// loop publishes 256-offer batches through the incremental delta path
// while a reader goroutine continuously hits the published view.
// Reported metrics: mean publication latency per batch
// (apply-us-per-batch), sustained ingest throughput (ingest-qps), and
// the untimed cost of one full from-scratch adjacency rebuild over the
// same grown corpus (full-rebuild-us) — the pre-refactor per-batch
// write cost the delta path replaces. The acceptance bar for the
// refactor: at n=100k a batch publishes at least 10x faster than the
// full rebuild, and apply latency stays within 2x of the n=10k figure
// (cost tracks the batch, not the corpus).
//
// The stream is unseen entities — novel titles, each shared by exactly
// two streamed offers so every batch produces real delta pairs — not
// clones of corpus offers. A clone's true candidate fan-out grows with
// corpus duplication (at 100k it has ~10x the near-duplicate partners
// it has at 10k), so streaming clones measures the size of the delta
// *output*, which no publication strategy can make scale-free; novel
// titles hold the per-batch answer fixed across scales and isolate the
// machinery the refactor changed. Every token is unique to its entity:
// a word shared across all streamed titles ("new offer ...") would make
// the min-hash rows it wins agree across the whole stream at once, and
// how many rows it wins depends on the corpus-specific interned token
// IDs — correlated collision cliques of arbitrary, scale-looking size.
func BenchmarkServeIngestScale(b *testing.B) {
	seed := fixture(b)
	const batchSize = 256
	const batchesPerIter = 8
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, err := synth.Grow(seed, synth.ScaleConfig(n, 42))
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Blocker: &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1},
				Offers:  c.Offers,
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}

			// Reads running: a reader drives Match against the published
			// view for the whole timed window, so the apply numbers include
			// the reader contention the daemon actually serves under. The
			// read rate is fixed (not closed-loop): an unthrottled reader's
			// allocation rate grows with partner-list size — ~10x larger at
			// 100k — and its GC assist tax would dominate the cross-scale
			// apply comparison; a fixed rate applies the same concurrent
			// read load at every corpus size.
			ids := make([]int64, 512)
			step := len(c.Offers) / len(ids)
			for i := range ids {
				ids[i] = c.Offers[i*step].ID
			}
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				ctx := context.Background()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Match(ctx, ids[i%len(ids)])
					time.Sleep(500 * time.Microsecond)
				}
			}()

			rng := rand.New(rand.NewSource(1))
			var nextID int64 = 1 << 40
			makeBatch := func() []schemaorg.Offer {
				batch := make([]schemaorg.Offer, batchSize)
				for k := range batch {
					off := c.Offers[k%len(c.Offers)]
					off.ID = nextID
					// Title tokens are unique per entity, so a streamed
					// offer collides only with its duplicate — the delta
					// fan-out is the same at every corpus scale.
					e := nextID / 2
					off.Title = fmt.Sprintf("u%da u%db u%dc u%dd u%de", e, e, e, e, e)
					nextID++
					batch[k] = off
				}
				return batch
			}
			// Warmup batch (untimed): the first append past the seed slice's
			// capacity copies the whole corpus — a one-time O(n) growth cost,
			// not steady-state publication. The GC barrier starts both
			// scales from equivalent collector state.
			s.applyBatch(context.Background(), makeBatch(), rng)
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batchesPerIter; j++ {
					s.applyBatch(context.Background(), makeBatch(), rng)
				}
			}
			b.StopTimer()
			close(stop)
			<-readerDone
			elapsed := b.Elapsed()
			b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N*batchesPerIter), "apply-us-per-batch")
			b.ReportMetric(float64(s.Stats().Applied)/elapsed.Seconds(), "ingest-qps")

			// Untimed baseline: one full from-scratch adjacency rebuild over
			// the grown corpus — what every batch paid before the refactor.
			v := s.view.Load()
			idxOf := make(map[int64]int, len(v.offers))
			for i := range v.offers {
				idxOf[v.offers[i].ID] = i
			}
			t0 := time.Now()
			if _, err := s.buildView(v.epoch, v.offers, idxOf); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds()), "full-rebuild-us")
			if err := s.Shutdown(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkServeNew isolates the cold start: New over a synthetically
// grown corpus at n=10k and n=100k with the scale-tuned MinHash 16x4
// blocker, no snapshot. It reports the two halves separately: the index
// build (index-ms, the blocker's BuildIndex) and the initial epoch view
// (view-ms, the rest of New: the full candidate query and the
// counted-fill adjacency) — the split wdcbench traces as
// blocking.build_s and serve.view_build_s.
func BenchmarkServeNew(b *testing.B) {
	seed := fixture(b)
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, err := synth.Grow(seed, synth.ScaleConfig(n, 42))
			if err != nil {
				b.Fatal(err)
			}
			bl := &timedBlocker{IndexedBlocker: &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}}
			var total time.Duration
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := New(Config{Blocker: bl, Offers: c.Offers}); err != nil {
					b.Fatal(err)
				}
				total += time.Since(t0)
			}
			b.StopTimer()
			perIter := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / float64(b.N) }
			b.ReportMetric(perIter(bl.build), "index-ms")
			b.ReportMetric(perIter(total-bl.build), "view-ms")
		})
	}
}

// timedBlocker accumulates the time its blocker spends in BuildIndex.
type timedBlocker struct {
	blocking.IndexedBlocker
	build time.Duration
}

func (t *timedBlocker) BuildIndex(offers []schemaorg.Offer, idxs []int) blocking.Index {
	t0 := time.Now()
	ix := t.IndexedBlocker.BuildIndex(offers, idxs)
	t.build += time.Since(t0)
	return ix
}

// BenchmarkServeLoadScale measures the read path over synthetically
// grown corpora at n=10k and n=100k: the daemon builds its index and
// full candidate adjacency over the grown universe (untimed setup), then
// the closed-loop fleet drives the match/candidates mix against the
// published view. Ingest stays off — at 100k an adjacency recompute per
// flush costs tens of seconds and would measure rebuild cadence, not
// serving; the steady-state read numbers are what the scale trajectory
// records. The blocker is the scale-tuned MinHash banding (16 bands of 4
// rows); the default 48x2 banding goes quadratic on a 100k
// near-duplicate universe (see the synth blocking-scale bench).
func BenchmarkServeLoadScale(b *testing.B) {
	seed := fixture(b)
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, err := synth.Grow(seed, synth.ScaleConfig(n, 42))
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{
				Blocker: &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1},
				Offers:  c.Offers,
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Shutdown(context.Background())
			}()

			// Query IDs spread across the whole grown universe, so the
			// partner lookups touch seed, perturbed and unseen offers alike.
			ids := make([]int64, 512)
			step := len(c.Offers) / len(ids)
			for i := range ids {
				ids[i] = c.Offers[i*step].ID
			}
			var report LoadReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := RunLoad(ts.URL, LoadOptions{
					Clients:         8,
					Requests:        600,
					MatchIDs:        ids,
					CandidateEvery:  4,
					CandidateWindow: 16,
				})
				if err != nil {
					b.Fatal(err)
				}
				if r.Failures > 0 {
					b.Fatalf("%d of %d load requests failed", r.Failures, r.Requests)
				}
				report = r
			}
			b.StopTimer()
			b.ReportMetric(float64(report.P50.Microseconds()), "p50-us")
			b.ReportMetric(float64(report.P99.Microseconds()), "p99-us")
			b.ReportMetric(report.QPS, "qps")
		})
	}
}
