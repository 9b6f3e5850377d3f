// The fault-injection suite: every failure mode the daemon promises to
// absorb — deadline-exceeded queries, full queues, poison batches,
// corrupt snapshots, wedged connectors, shutdown under load — driven
// through the faults harness against a live server. The whole package
// runs under -race in CI, so every assertion here is also a data-race
// probe on the serving path.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/core"
	"wdcproducts/internal/persist"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve/faults"
)

var (
	fixOnce sync.Once
	fixErr  error
	corpus  []schemaorg.Offer
)

// fixture returns a shared benchmark corpus (copied per call: tests
// mutate nothing, but the server takes ownership of its seed slice
// anyway).
func fixture(t testing.TB) []schemaorg.Offer {
	t.Helper()
	fixOnce.Do(func() {
		b, err := core.Build(core.TinyBuildConfig(77))
		if err != nil {
			fixErr = err
			return
		}
		corpus = b.Offers
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return append([]schemaorg.Offer(nil), corpus...)
}

// testConfig is the base daemon configuration for tests: a minhash
// blocker (no model training), small batches, tight retry delays.
func testConfig(offers []schemaorg.Offer) Config {
	return Config{
		Blocker:   blocking.NewMinHashBlocker(),
		Offers:    offers,
		BatchSize: 16,
		Retry:     RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// expectedPartners computes the ground-truth adjacency: a fresh minhash
// index over the full corpus, full-universe candidate pairs, keyed by
// offer ID.
func expectedPartners(t *testing.T, offers []schemaorg.Offer) map[int64][]int64 {
	t.Helper()
	idxs := make([]int, len(offers))
	for i := range idxs {
		idxs[i] = i
	}
	ix := blocking.NewMinHashBlocker().BuildIndex(offers, idxs)
	pairs, err := blocking.QueryCandidates(ix, idxs)
	if err != nil {
		t.Fatal(err)
	}
	partners := make(map[int64][]int64)
	for _, p := range pairs {
		a, b := offers[p.A].ID, offers[p.B].ID
		partners[a] = append(partners[a], b)
		partners[b] = append(partners[b], a)
	}
	return partners
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int64]int)
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestIngestToQueryEndToEnd streams the held-back third of the corpus
// through a connector and checks the daemon converges to the same
// adjacency a fresh index over the union computes.
func TestIngestToQueryEndToEnd(t *testing.T) {
	offers := fixture(t)[:600] // full-universe adjacency recomputes per batch: keep the corpus modest
	cut := 2 * len(offers) / 3
	cfg := testConfig(offers[:cut])
	conn := NewChanConnector(8)
	cfg.Connector = conn
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	tail := offers[cut:]
	go func() {
		for _, off := range tail {
			conn.C <- off
		}
		close(conn.C)
	}()
	waitFor(t, 10*time.Second, "tail ingest", func() bool {
		return s.Stats().Applied == int64(len(tail))
	})
	if got := s.Stats().Offers; got != len(offers) {
		t.Fatalf("served corpus = %d offers, want %d", got, len(offers))
	}
	if s.Epoch() == 0 {
		t.Fatal("epoch did not advance past 0")
	}

	want := expectedPartners(t, offers)
	ctx := context.Background()
	for _, off := range []schemaorg.Offer{offers[0], tail[0], tail[len(tail)-1]} {
		got, _, merr := s.Match(ctx, off.ID)
		if merr != nil {
			t.Fatalf("match %d: %v", off.ID, merr)
		}
		if !sameIDs(got, want[off.ID]) {
			t.Errorf("match %d = %v, want %v", off.ID, got, want[off.ID])
		}
	}

	// A live subset query over seed + streamed offers must agree with a
	// fresh index over the union restricted to that subset.
	subset := []int64{offers[0].ID, offers[1].ID, tail[0].ID, tail[1].ID}
	pairs, _, cerr := s.Candidates(ctx, subset)
	if cerr != nil {
		t.Fatalf("candidates: %v", cerr)
	}
	idxOf := make(map[int64]int, len(offers))
	for i := range offers {
		idxOf[offers[i].ID] = i
	}
	var subsetIdxs []int
	for _, id := range subset {
		subsetIdxs = append(subsetIdxs, idxOf[id])
	}
	allIdxs := make([]int, len(offers))
	for i := range allIdxs {
		allIdxs[i] = i
	}
	fresh := blocking.NewMinHashBlocker().BuildIndex(offers, allIdxs)
	fpairs, err2 := blocking.QueryCandidates(fresh, subsetIdxs)
	if err2 != nil {
		t.Fatal(err2)
	}
	wantPairs := make(map[[2]int64]bool)
	for _, p := range fpairs {
		a, b := offers[p.A].ID, offers[p.B].ID
		if a > b {
			a, b = b, a
		}
		wantPairs[[2]int64{a, b}] = true
	}
	if len(pairs) != len(wantPairs) {
		t.Fatalf("subset candidates = %d pairs, want %d", len(pairs), len(wantPairs))
	}
	for _, p := range pairs {
		if !wantPairs[p] {
			t.Errorf("unexpected candidate pair %v", p)
		}
	}
}

// TestQueryDeadline injects latency above the budget and checks the
// typed deadline error comes back within the budget, not after the
// injected latency.
func TestQueryDeadline(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	cfg := testConfig(offers[:100])
	cfg.Faults = inj
	cfg.QueryTimeout = 50 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetQueryLatency(2 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.QueryTimeout)
	defer cancel()
	t0 := time.Now()
	_, _, merr := s.Match(ctx, offers[0].ID)
	elapsed := time.Since(t0)
	if merr == nil || merr.Code != CodeDeadlineExceeded {
		t.Fatalf("match under injected latency: err = %v, want %s", merr, CodeDeadlineExceeded)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline error took %v, want ~%v (the deadline, not the injected latency)", elapsed, cfg.QueryTimeout)
	}
	if s.Stats().Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
	inj.SetQueryLatency(0)
	if _, _, merr := s.Match(context.Background(), offers[0].ID); merr != nil {
		t.Fatalf("match after clearing latency: %v", merr)
	}
}

// TestBackpressure checks both the forced and the organic queue-full
// paths: typed error, retry hint, nothing buffered beyond the bound.
func TestBackpressure(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	cfg := testConfig(offers[:50])
	cfg.Faults = inj
	cfg.QueueCap = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Forced: the injector reports full regardless of depth.
	inj.ForceQueueFull(true)
	n, qerr := s.Enqueue(offers[50:52])
	if n != 0 || qerr == nil || qerr.Code != CodeBackpressure {
		t.Fatalf("forced full: accepted %d, err %v; want 0, %s", n, qerr, CodeBackpressure)
	}
	if qerr.RetryAfter <= 0 {
		t.Fatal("backpressure error carries no retry hint")
	}
	inj.ForceQueueFull(false)

	// Organic: the applier is not running, so the bounded queue fills at
	// its capacity and the remainder is refused.
	n, qerr = s.Enqueue(offers[50:60])
	if n != cfg.QueueCap {
		t.Fatalf("organic full: accepted %d, want queue cap %d", n, cfg.QueueCap)
	}
	if qerr == nil || qerr.Code != CodeBackpressure {
		t.Fatalf("organic full: err = %v, want %s", qerr, CodeBackpressure)
	}
	st := s.Stats()
	if st.QueueDepth != cfg.QueueCap || st.Rejected == 0 {
		t.Fatalf("stats after backpressure: depth %d, rejected %d", st.QueueDepth, st.Rejected)
	}
}

// TestApplyRetryRecovers arms two apply failures within the retry
// budget: the batch must land after backoff, with the retries counted
// and nothing dead-lettered.
func TestApplyRetryRecovers(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	var dead bytes.Buffer
	cfg := testConfig(offers[:100])
	cfg.Faults = inj
	cfg.DeadLetter = &dead
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	inj.FailApplies(2)
	if _, qerr := s.Enqueue(offers[100:110]); qerr != nil {
		t.Fatal(qerr)
	}
	waitFor(t, 10*time.Second, "retried batch to apply", func() bool {
		return s.Stats().Applied == 10
	})
	st := s.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if st.DeadLettered != 0 {
		t.Fatalf("dead-lettered = %d, want 0", st.DeadLettered)
	}
	if _, _, merr := s.Match(context.Background(), offers[105].ID); merr != nil {
		t.Fatalf("retried offer not queryable: %v", merr)
	}
}

// TestPoisonBatchDeadLetters arms more failures than the retry budget:
// the batch must be dead-lettered with typed reasons and the daemon
// must keep serving and keep ingesting afterwards.
func TestPoisonBatchDeadLetters(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	var mu sync.Mutex
	var dead bytes.Buffer
	cfg := testConfig(offers[:100])
	cfg.Faults = inj
	cfg.DeadLetter = writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return dead.Write(p)
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	inj.FailApplies(1000)
	if _, qerr := s.Enqueue(offers[100:105]); qerr != nil {
		t.Fatal(qerr)
	}
	waitFor(t, 10*time.Second, "poison batch to dead-letter", func() bool {
		return s.Stats().DeadLettered == 5
	})
	inj.FailApplies(0)

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(dead.String()), "\n")
	mu.Unlock()
	if len(lines) != 5 {
		t.Fatalf("dead-letter log has %d lines, want 5", len(lines))
	}
	var entry struct {
		Reason   string          `json:"reason"`
		Offer    schemaorg.Offer `json:"offer"`
		Err      string          `json:"error"`
		Attempts int             `json:"attempts"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("dead-letter line is not JSON: %v", err)
	}
	if entry.Reason != "apply_failed" || entry.Attempts != cfg.Retry.MaxAttempts {
		t.Fatalf("dead-letter entry = %+v, want reason apply_failed after %d attempts", entry, cfg.Retry.MaxAttempts)
	}
	if !strings.Contains(entry.Err, "injected") {
		t.Fatalf("dead-letter error %q does not name the injected fault", entry.Err)
	}

	// The poison batch is gone, not wedged: later ingest applies.
	if _, qerr := s.Enqueue(offers[105:110]); qerr != nil {
		t.Fatal(qerr)
	}
	waitFor(t, 10*time.Second, "post-poison ingest", func() bool {
		return s.Stats().Applied == 5
	})
	if _, _, merr := s.Match(context.Background(), offers[107].ID); merr != nil {
		t.Fatalf("post-poison offer not queryable: %v", merr)
	}
	if _, _, merr := s.Match(context.Background(), offers[102].ID); merr == nil || merr.Code != CodeUnknownOffer {
		t.Fatalf("dead-lettered offer lookup = %v, want %s", merr, CodeUnknownOffer)
	}
}

// TestDeadLetterWriteFailureLogged: a dead-letter sink that refuses
// writes (a full disk) must not lose refused records silently — each
// failed write is logged with its reason and the sink's error.
func TestDeadLetterWriteFailureLogged(t *testing.T) {
	offers := fixture(t)
	var mu sync.Mutex
	var logs bytes.Buffer
	cfg := testConfig(offers[:100])
	cfg.DeadLetter = writerFunc(func(p []byte) (int, error) {
		return 0, errors.New("no space left on device")
	})
	cfg.Log = writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	if _, qerr := s.Enqueue([]schemaorg.Offer{{ID: 999999, Title: ""}}); qerr != nil {
		t.Fatal(qerr)
	}
	want := "serve: dead-letter write failed; invalid_offer record lost: no space left on device\n"
	waitFor(t, 10*time.Second, "dead-letter failure log line", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(logs.String(), want)
	})
	if st := s.Stats(); st.DeadLettered != 1 {
		t.Fatalf("dead-lettered = %d, want 1", st.DeadLettered)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestInvalidRecordsDeadLetter checks record-level refusal: titleless
// offers and duplicate IDs go to the dead-letter log while the rest of
// the batch lands.
func TestInvalidRecordsDeadLetter(t *testing.T) {
	offers := fixture(t)
	cfg := testConfig(offers[:100])
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	batch := []schemaorg.Offer{
		offers[100],
		{ID: 999999, Title: ""},  // invalid: no title
		offers[0],                // duplicate: already indexed
		offers[101], offers[101], // duplicate within the batch
	}
	if _, qerr := s.Enqueue(batch); qerr != nil {
		t.Fatal(qerr)
	}
	waitFor(t, 10*time.Second, "mixed batch", func() bool {
		st := s.Stats()
		return st.Applied == 2 && st.DeadLettered == 3
	})
	if _, _, merr := s.Match(context.Background(), offers[101].ID); merr != nil {
		t.Fatalf("valid offer from mixed batch not queryable: %v", merr)
	}
}

// TestCorruptSnapshotDegradesToRebuild writes a snapshot, corrupts it,
// and checks the next daemon refuses it with the typed corruption
// error, rebuilds, and serves.
func TestCorruptSnapshotDegradesToRebuild(t *testing.T) {
	offers := fixture(t)
	dir := t.TempDir()
	cfg := testConfig(offers[:100])
	cfg.Index = blocking.IndexOptions{SnapshotDir: dir}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	open := s1.OpenStats()
	if !open.Saved || open.Path == "" {
		t.Fatalf("first open did not save a snapshot: %+v", open)
	}
	if err := faults.CorruptSnapshot(open.Path); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	open2 := s2.OpenStats()
	if open2.Loaded {
		t.Fatal("corrupt snapshot was loaded")
	}
	var corrupt *persist.CorruptSnapshotError
	if !errors.As(open2.LoadErr, &corrupt) {
		t.Fatalf("load error = %v, want *persist.CorruptSnapshotError", open2.LoadErr)
	}
	if st := s2.Stats(); st.SnapshotFallback == "" {
		t.Fatal("stats do not surface the snapshot fallback reason")
	}
	if _, _, merr := s2.Match(context.Background(), offers[0].ID); merr != nil {
		t.Fatalf("rebuilt daemon does not serve: %v", merr)
	}
	// The rebuild re-saved a good snapshot over the corrupt one: a third
	// daemon loads it.
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.OpenStats().Loaded {
		t.Fatalf("re-saved snapshot not loaded: %+v", s3.OpenStats())
	}
}

// TestShutdownDrainsAndSnapshots enqueues work and shuts down: the
// queue must drain, the grown index must be snapshotted, ingest must be
// refused during the drain, and the next daemon over the grown corpus
// must load the snapshot instead of rebuilding.
func TestShutdownDrainsAndSnapshots(t *testing.T) {
	offers := fixture(t)
	dir := t.TempDir()
	cut := len(offers) - 20
	cfg := testConfig(offers[:cut])
	cfg.Index = blocking.IndexOptions{SnapshotDir: dir}
	cfg.FlushEvery = time.Hour // FlushEvery delays nothing: the drain must still apply the tail
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	tail := offers[cut:]
	if n, qerr := s.Enqueue(tail); qerr != nil || n != len(tail) {
		t.Fatalf("enqueue tail: %d, %v", n, qerr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.Applied != int64(len(tail)) {
		t.Fatalf("drain applied %d of %d queued offers", st.Applied, len(tail))
	}
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
	if _, qerr := s.Enqueue(offers[:1]); qerr == nil || qerr.Code != CodeShuttingDown {
		t.Fatalf("post-shutdown enqueue err = %v, want %s", qerr, CodeShuttingDown)
	}

	// The snapshot written at shutdown covers the grown corpus: opening
	// an index over the union must load, not rebuild.
	union := offers
	idxs := make([]int, len(union))
	for i := range idxs {
		idxs[i] = i
	}
	_, open := blocking.OpenIndex(blocking.NewMinHashBlocker(), union, idxs, cfg.Index)
	if !open.Loaded {
		t.Fatalf("shutdown snapshot not loadable over the grown corpus: %+v", open)
	}
}

// TestEnqueueVisibleWithoutTimer: FlushEvery delays nothing. With it set
// to an hour, a post is applied as soon as the applier is free, as one
// epoch, and a post longer than BatchSize publishes exactly two.
func TestEnqueueVisibleWithoutTimer(t *testing.T) {
	offers := fixture(t)
	cfg := testConfig(offers[:100])
	cfg.FlushEvery = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	if n, qerr := s.Enqueue(offers[100:105]); qerr != nil || n != 5 {
		t.Fatalf("enqueue: accepted %d, %v", n, qerr)
	}
	waitFor(t, 2*time.Second, "a 5-offer post to apply", func() bool {
		return s.Stats().Applied == 5
	})
	if e := s.Epoch(); e != 1 {
		t.Fatalf("a 5-offer post published %d epochs, want 1", e)
	}
	post := offers[105 : 105+cfg.BatchSize+3]
	if n, qerr := s.Enqueue(post); qerr != nil || n != len(post) {
		t.Fatalf("enqueue: accepted %d, %v", n, qerr)
	}
	waitFor(t, 2*time.Second, "a BatchSize+3 post to apply", func() bool {
		return s.Stats().Applied == int64(5+len(post))
	})
	if e := s.Epoch(); e != 3 {
		t.Fatalf("a BatchSize+3 post published %d epochs, want 2", e-1)
	}
}

// TestConcurrentPostsLandWhole races 8 posters of 4-offer posts against
// the group-committing applier: every offer lands, none is refused, no
// post costs more than one epoch on average, and the drained view
// equals a from-scratch rebuild.
func TestConcurrentPostsLandWhole(t *testing.T) {
	const posters, posts, perPost = 8, 25, 4
	offers := fixture(t)
	cfg := testConfig(offers[:100])
	cfg.QueueCap = posters * posts * perPost // no backpressure: every post is accepted whole
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				post := make([]schemaorg.Offer, perPost)
				for i := range post {
					k := (g*posts+p)*perPost + i
					post[i] = offers[100+k%(len(offers)-100)]
					post[i].ID = 1<<40 + int64(k)
				}
				if n, qerr := s.Enqueue(post); qerr != nil || n != perPost {
					t.Errorf("poster %d post %d: accepted %d, %v", g, p, n, qerr)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if want := int64(posters * posts * perPost); st.Applied != want || st.DeadLettered != 0 {
		t.Fatalf("applied %d and dead-lettered %d, want %d and 0", st.Applied, st.DeadLettered, want)
	}
	if st.Epoch > posters*posts {
		t.Fatalf("%d posts published %d epochs, want at most one each", posters*posts, st.Epoch)
	}
	checkViewEquivalence(t, s)
}

// TestShutdownIdempotent checks a second Shutdown returns the first
// result without re-draining.
func TestShutdownIdempotent(t *testing.T) {
	offers := fixture(t)
	s, err := New(testConfig(offers[:50]))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDeadlineAbandonsQueue wedges the applier with endless
// injected failures, then shuts down with a tight drain budget: the
// daemon must exit promptly, abandoning the queue rather than hanging.
func TestDrainDeadlineAbandonsQueue(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	cfg := testConfig(offers[:50])
	cfg.Faults = inj
	cfg.Retry = RetryPolicy{MaxAttempts: 1 << 30, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	inj.FailApplies(1 << 30)
	if _, qerr := s.Enqueue(offers[50:80]); qerr != nil {
		t.Fatal(qerr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung past the drain deadline")
	}
	if applied := s.Stats().Applied; applied != 0 {
		t.Fatalf("wedged applier applied %d offers", applied)
	}
}

// TestConnectorStall wedges the upstream: the daemon must keep
// answering queries while stalled and still shut down within budget.
func TestConnectorStall(t *testing.T) {
	offers := fixture(t)
	inj := new(faults.Injector)
	cfg := testConfig(offers[:100])
	cfg.Faults = inj
	cfg.Connector = NewSliceConnector(offers[100:]...)
	release := inj.StallConnector()
	defer release()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Stalled upstream, live queries.
	if _, _, merr := s.Match(context.Background(), offers[0].ID); merr != nil {
		t.Fatalf("query during connector stall: %v", merr)
	}
	if applied := s.Stats().Applied; applied != 0 {
		t.Fatalf("stalled connector applied %d offers", applied)
	}
	// Release: ingest resumes.
	release()
	waitFor(t, 10*time.Second, "ingest to resume after stall", func() bool {
		return s.Stats().Applied > 0
	})
	// Stall again, then shut down: the drain must not wait for the
	// wedged upstream.
	inj.StallConnector()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown during stall: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on a stalled connector")
	}
}

// TestBadRecordsContinueStream feeds a JSONL stream with undecodable
// lines: they dead-letter, the good records land.
func TestBadRecordsContinueStream(t *testing.T) {
	offers := fixture(t)
	cfg := testConfig(offers[:100])
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	enc := json.NewEncoder(w)
	enc.Encode(offers[100])
	w.WriteString("{this is not json}\n")
	enc.Encode(offers[101])
	w.WriteString("\n") // blank lines are skipped, not errors
	enc.Encode(offers[102])
	w.Flush()
	cfg.Connector = NewJSONLConnector(&stream)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "jsonl stream", func() bool {
		st := s.Stats()
		return st.Applied == 3 && st.DeadLettered == 1
	})
}

// TestOverlongRecordContinuesStream: a JSONL line over the record limit
// is dead-lettered as bad_record and the offer after it is applied.
func TestOverlongRecordContinuesStream(t *testing.T) {
	offers := fixture(t)
	cfg := testConfig(offers[:100])
	var stream bytes.Buffer
	stream.WriteString("{\"title\":\"" + strings.Repeat("x", maxJSONLLine) + "\"}\n")
	json.NewEncoder(&stream).Encode(offers[100])
	cfg.Connector = NewJSONLConnector(&stream)
	var mu sync.Mutex
	var dead []deadLetterEntry
	cfg.DeadLetter = writerFunc(func(p []byte) (int, error) {
		var e deadLetterEntry
		if err := json.Unmarshal(p, &e); err != nil {
			t.Errorf("dead-letter line does not decode: %v", err)
		}
		mu.Lock()
		dead = append(dead, e)
		mu.Unlock()
		return len(p), nil
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "stream past the overlong line", func() bool {
		st := s.Stats()
		return st.Applied == 1 && st.DeadLettered == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if len(dead) != 1 || dead[0].Reason != "bad_record" {
		t.Fatalf("dead letters = %+v, want one bad_record", dead)
	}
	if _, _, merr := s.Match(context.Background(), offers[100].ID); merr != nil {
		t.Fatalf("offer after the overlong line not queryable: %v", merr)
	}
}

// TestSeedValidation checks New refuses malformed seed corpora with
// clear errors.
func TestSeedValidation(t *testing.T) {
	offers := fixture(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a blocker")
	}
	dup := []schemaorg.Offer{offers[0], offers[1], offers[0]}
	if _, err := New(testConfig(dup)); err == nil || !strings.Contains(err.Error(), "share id") {
		t.Fatalf("New(duplicate ids) = %v", err)
	}
	bad := []schemaorg.Offer{{ID: 1, Title: ""}}
	if _, err := New(testConfig(bad)); err == nil || !strings.Contains(err.Error(), "no title") {
		t.Fatalf("New(titleless) = %v", err)
	}
}

// TestUnknownOffer checks the typed not-found error on both query
// paths.
func TestUnknownOffer(t *testing.T) {
	offers := fixture(t)
	s, err := New(testConfig(offers[:50]))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, merr := s.Match(ctx, -1); merr == nil || merr.Code != CodeUnknownOffer {
		t.Fatalf("match(-1) = %v, want %s", merr, CodeUnknownOffer)
	}
	if _, _, cerr := s.Candidates(ctx, []int64{offers[0].ID, -1}); cerr == nil || cerr.Code != CodeUnknownOffer {
		t.Fatalf("candidates(-1) = %v, want %s", cerr, CodeUnknownOffer)
	}
}

// TestRetryPolicyDelay pins the backoff shape: exponential growth,
// jitter within [d/2, d], MaxDelay cap.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 10; n++ {
		want := p.BaseDelay << uint(n-1)
		if want <= 0 || want > p.MaxDelay {
			want = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			d := p.delay(n, rng)
			if d < want/2 || d > want {
				t.Fatalf("delay(%d) = %v outside [%v, %v]", n, d, want/2, want)
			}
		}
	}
}
