package blocking

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"wdcproducts/internal/core"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/synth"
)

var (
	synthMu    sync.Mutex
	synthCache = map[int][]schemaorg.Offer{}
)

// synthOffers returns the seed-42 tiny build grown to n offers by
// synth.ScaleConfig(n, 42), cached across benchmark runs.
func synthOffers(b *testing.B, n int) []schemaorg.Offer {
	b.Helper()
	synthMu.Lock()
	defer synthMu.Unlock()
	if offers, ok := synthCache[n]; ok {
		return offers
	}
	base, err := core.Build(core.TinyBuildConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	c, err := synth.Grow(base.Offers, synth.ScaleConfig(n, 42))
	if err != nil {
		b.Fatal(err)
	}
	synthCache[n] = c.Offers
	return c.Offers
}

// BenchmarkMinHashAddUnderSweep measures the write-path wait a serving
// daemon's ingest sees at the index layer: how long an Add takes while
// subset queries sweep the MinHash index. One goroutine runs
// back-to-back 16-offer Candidates over a 16x4 MinHash index of n
// synthetic offers (n=10k and n=100k); the timed loop applies 4-offer
// Adds of novel titles, as the daemon's applier does, and reports the
// median and p90 Add latency (add-p50-us, add-p90-us) beside the mean
// sweep time (sweep-ms). An Add waits for the read lock a sweep holds,
// so its latency tracks the share of a sweep one read-lock hold spans.
func BenchmarkMinHashAddUnderSweep(b *testing.B) {
	const (
		addSize    = 4
		windowSize = 16
	)
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			offers := slices.Clone(synthOffers(b, n))
			idxs := make([]int, n)
			for i := range idxs {
				idxs[i] = i
			}
			bl := &MinHashBlocker{Config: MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}
			ix := bl.BuildIndex(offers, idxs)

			stop := make(chan struct{})
			started := make(chan struct{})
			var sweeps int
			var swept time.Duration
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(1))
				window := make([]int, windowSize)
				for {
					for i := range window {
						window[i] = rng.Intn(n)
					}
					t0 := time.Now()
					ix.Candidates(window)
					swept += time.Since(t0)
					if sweeps++; sweeps == 1 {
						close(started)
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			<-started

			// Title tokens are unique per added offer, so no Add grows an
			// existing bucket beyond what one novel title does.
			nextID := int64(1) << 40
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add := make([]int, addSize)
				for k := range add {
					off := offers[k]
					off.ID = nextID
					off.Title = fmt.Sprintf("u%da u%db u%dc u%dd u%de", nextID, nextID, nextID, nextID, nextID)
					nextID++
					add[k] = len(offers)
					offers = append(offers, off)
				}
				t0 := time.Now()
				ix.Add(offers, add)
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()

			slices.Sort(lat)
			at := func(p float64) float64 {
				return float64(lat[int(p*float64(len(lat)-1))].Nanoseconds()) / 1e3
			}
			b.ReportMetric(at(0.5), "add-p50-us")
			b.ReportMetric(at(0.9), "add-p90-us")
			b.ReportMetric(float64(swept.Microseconds())/1e3/float64(sweeps), "sweep-ms")
		})
	}
}
