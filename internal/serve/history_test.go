// The epoch-history checker: every answer the daemon serves while ingest
// runs must be the answer at the epoch it is labelled with. Posters and
// readers run concurrently against one daemon while the faults harness
// fails apply attempts (some batches retry, some exhaust their budget
// and are dead-lettered) and injects query latency. Each successful
// Match and Candidates answer is recorded with its epoch label, and a
// publish observer records each epoch's offer count. Afterwards the
// model is a deterministic rebuild: a fresh BuildIndex over the epoch's
// offer prefix, so no search over interleavings is needed.

package serve

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve/faults"
	"wdcproducts/internal/xrand"
)

// publication is one observed epoch: its label and its corpus size.
type publication struct {
	epoch  int64
	offers int
}

type matchAnswer struct {
	epoch    int64
	id       int64
	partners []int64
}

type candidatesAnswer struct {
	epoch int64
	ids   []int64
	pairs [][2]int64
}

// epochHistory is what one run recorded: every publication in order and
// every successful answer.
type epochHistory struct {
	mu        sync.Mutex
	published []publication
	matches   []matchAnswer
	cands     []candidatesAnswer
	failures  []*Error // answers that failed with anything but a deadline
}

func (h *epochHistory) observe(v *view) {
	h.mu.Lock()
	h.published = append(h.published, publication{v.epoch, len(v.offers)})
	h.mu.Unlock()
}

// failed records a query error; deadline and cancellation errors are
// the expected outcome of injected latency and are dropped.
func (h *epochHistory) failed(err *Error) {
	if err.Code == CodeDeadlineExceeded || err.Code == CodeCanceled {
		return
	}
	h.mu.Lock()
	h.failures = append(h.failures, err)
	h.mu.Unlock()
}

// TestEpochHistory runs the checker per engine, on Match and Candidates
// alike. The minhash row's Candidates answers come from the live index,
// sweeping it one band at a time while Adds land between bands; the kNN
// rows' come from the epoch view, since a kNN batch changes the index
// before its view is published. The kNN engines run with one worker and
// an IVF training prefix inside the seed corpus, the settings under
// which a grown index equals a fresh build. The stream length bounds the
// number of batches, and so the run time under -race.
func TestEpochHistory(t *testing.T) {
	all := fixture(t)
	const seedN = 40
	titles := make([]string, seedN+160)
	for i := range titles {
		titles[i] = all[i].Title
	}
	ecfg := embed.DefaultConfig() // a small, fast model: recall is not under test
	ecfg.Epochs = 1
	ecfg.Buckets = 1 << 10
	model := embed.Train(titles, ecfg, xrand.New(1).Stream("history-embed"))
	hb := blocking.NewHNSWBlocker(model, 6)
	hb.Config.Workers = 1
	ib := blocking.NewIVFBlocker(model, 6)
	ib.Config.Workers = 1
	ib.Config.TrainSize = 32

	for _, r := range []struct {
		name    string
		blocker blocking.IndexedBlocker
		stream  int
	}{
		{name: "minhash", blocker: blocking.NewMinHashBlocker(), stream: 480},
		{name: "ivf-knn", blocker: ib, stream: 160},
		{name: "hnsw-knn", blocker: hb, stream: 160},
	} {
		t.Run(r.name, func(t *testing.T) {
			cfg := testConfig(all[:seedN])
			cfg.Blocker = r.blocker
			cfg.BatchSize = 8
			h, s := recordHistory(t, cfg, all[seedN:seedN+r.stream])
			h.check(t, r.blocker, s, seedN, r.stream)
		})
	}
}

// recordHistory runs two posters, two readers and a fault injector
// against one daemon until the stream is posted and drained, and
// returns the recorded history and the shut-down server.
func recordHistory(t *testing.T, cfg Config, stream []schemaorg.Offer) (*epochHistory, *Server) {
	t.Helper()
	in := new(faults.Injector)
	cfg.Faults = in
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &epochHistory{}
	h.observe(s.view.Load()) // epoch 0, published by New
	s.observe = h.observe
	s.Start()

	var posters, others sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		share := stream[p*len(stream)/2 : (p+1)*len(stream)/2]
		posters.Add(1)
		go func(rng *rand.Rand) {
			defer posters.Done()
			for len(share) > 0 {
				n := min(1+rng.Intn(6), len(share))
				acc, err := s.Enqueue(share[:n])
				share = share[acc:]
				if err != nil && err.Code != CodeBackpressure {
					t.Errorf("enqueue: %v", err)
					return
				}
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}(rand.New(rand.NewSource(int64(p))))
	}
	others.Add(1)
	go func() { // the fault injector
		defer others.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			switch rng.Intn(4) {
			case 0:
				in.FailApplies(1 + rng.Intn(4)) // 4 exhausts the 4-attempt budget
			default:
				in.SetQueryLatency(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func(rng *rand.Rand) {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.read(s, rng)
			}
		}(rand.New(rand.NewSource(int64(10 + r))))
	}

	posters.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	others.Wait()
	return h, s
}

// read issues one query at a random deadline and records its answer.
// Ids are drawn from the served corpus, half from its newest offers,
// where a wrongly published layer would show first.
func (h *epochHistory) read(s *Server, rng *rand.Rand) {
	offers := s.view.Load().offers
	pick := func() int64 {
		if rng.Intn(2) == 0 {
			return offers[len(offers)-1-rng.Intn(min(16, len(offers)))].ID
		}
		return offers[rng.Intn(len(offers))].ID
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+rng.Intn(20))*time.Millisecond)
	defer cancel()
	if rng.Intn(2) == 0 {
		id := pick()
		partners, epoch, err := s.Match(ctx, id)
		if err != nil {
			h.failed(err)
			return
		}
		h.mu.Lock()
		h.matches = append(h.matches, matchAnswer{epoch, id, partners})
		h.mu.Unlock()
		return
	}
	ids := make([]int64, 2+rng.Intn(7))
	for i := range ids {
		ids[i] = pick()
	}
	pairs, epoch, err := s.Candidates(ctx, ids)
	if err != nil {
		h.failed(err)
		return
	}
	h.mu.Lock()
	h.cands = append(h.cands, candidatesAnswer{epoch, ids, pairs})
	h.mu.Unlock()
}

// check validates the recorded history against fresh rebuilds. The
// publications must count up from epoch 0 one batch at a time, the
// final corpus must be the seed plus every streamed offer that was not
// dead-lettered, and each answer must equal the oracle at its epoch:
// Match exactly, Candidates as the oracle restricted to the query ids.
func (h *epochHistory) check(t *testing.T, bl blocking.IndexedBlocker, s *Server, seedN, streamN int) {
	t.Helper()
	if len(h.failures) > 0 {
		t.Fatalf("%d queries failed with a non-deadline error, first: %v", len(h.failures), h.failures[0])
	}
	final := s.view.Load().offers
	if want := seedN + streamN - int(s.Stats().DeadLettered); len(final) != want {
		t.Fatalf("final corpus has %d offers, want %d (seed %d + stream %d - dead-lettered)", len(final), want, seedN, streamN)
	}
	sizeAt := make(map[int64]int, len(h.published))
	for k, p := range h.published {
		if p.epoch != int64(k) {
			t.Fatalf("publication %d is labelled epoch %d", k, p.epoch)
		}
		if k > 0 && p.offers <= h.published[k-1].offers {
			t.Fatalf("epoch %d publishes %d offers, epoch %d had %d", k, p.offers, k-1, h.published[k-1].offers)
		}
		sizeAt[p.epoch] = p.offers
	}
	if last := h.published[len(h.published)-1]; last.offers != len(final) {
		t.Fatalf("last publication (epoch %d) has %d offers, the served corpus %d", last.epoch, last.offers, len(final))
	}

	oracles := map[int64]map[int64][]int64{}
	oracle := func(epoch int64) map[int64][]int64 {
		if o, ok := oracles[epoch]; ok {
			return o
		}
		n, ok := sizeAt[epoch]
		if !ok {
			t.Fatalf("an answer is labelled epoch %d, which was never published", epoch)
		}
		o := freshPartners(bl, final[:n:n])
		oracles[epoch] = o
		return o
	}
	for _, a := range h.matches {
		want, ok := oracle(a.epoch)[a.id]
		if !ok {
			t.Fatalf("Match(%d) answered at epoch %d, which does not serve that offer", a.id, a.epoch)
		}
		if !slices.Equal(a.partners, want) {
			t.Fatalf("Match(%d) at epoch %d:\n got %v\nwant %v", a.id, a.epoch, a.partners, want)
		}
	}
	for _, a := range h.cands {
		o := oracle(a.epoch)
		var want [][2]int64
		ids := slices.Compact(slices.Sorted(slices.Values(a.ids)))
		for i, x := range ids {
			for _, y := range ids[i+1:] {
				if _, found := slices.BinarySearch(o[x], y); found {
					want = append(want, [2]int64{x, y})
				}
			}
		}
		if !slices.Equal(a.pairs, want) {
			t.Fatalf("Candidates(%v) at epoch %d:\n got %v\nwant %v", a.ids, a.epoch, a.pairs, want)
		}
	}
	epochs := map[int64]bool{}
	for _, a := range h.matches {
		epochs[a.epoch] = true
	}
	for _, a := range h.cands {
		epochs[a.epoch] = true
	}
	if len(epochs) < 3 {
		t.Fatalf("answers span %d epochs of %d published; the history checks too little", len(epochs), len(h.published))
	}
	t.Logf("%d epochs published, %d seen; checked %d Match and %d Candidates answers; %d offers dead-lettered",
		len(h.published), len(epochs), len(h.matches), len(h.cands), s.Stats().DeadLettered)
}

// freshPartners is the oracle: a fresh index over offers, its
// full-universe candidate pairs as sorted partner lists keyed by offer
// ID. Every offer has an entry, partnerless ones an empty list.
func freshPartners(bl blocking.IndexedBlocker, offers []schemaorg.Offer) map[int64][]int64 {
	idxs := make([]int, len(offers))
	for i := range idxs {
		idxs[i] = i
	}
	out := make(map[int64][]int64, len(offers))
	for _, o := range offers {
		out[o.ID] = nil
	}
	for _, p := range bl.BuildIndex(offers, idxs).Candidates(idxs) {
		a, b := offers[p.A].ID, offers[p.B].ID
		out[a] = append(out[a], b)
		out[b] = append(out[b], a)
	}
	for id, ps := range out {
		slices.Sort(ps)
		out[id] = slices.Compact(ps)
	}
	return out
}
