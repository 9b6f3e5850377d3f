// The ingest pipeline: a connector loop feeds the bounded queue, and a
// single applier goroutine group-commits it. A batch is whatever queued
// up while the previous batch applied (up to BatchSize; no timer). The
// applier writes it to the index with retry/backoff, queries the delta
// candidates it introduced, and publishes the next epoch view as one
// more layer on the current one. Records the pipeline cannot accept —
// undecodable, invalid, duplicate, or part of a batch whose apply
// exhausted its retries — go to the dead-letter log as JSON lines; the
// pipeline itself never wedges and never buffers without bound.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
)

// RetryPolicy shapes the apply retry schedule: attempt n (0-based)
// sleeps an exponentially grown, jittered delay before retrying, and
// the batch is dead-lettered after MaxAttempts failed attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of apply attempts per batch
	// (default 4).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay after the first failure
	// (default 10ms); it doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay (default 1s).
	MaxDelay time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// delay is the sleep before retry attempt n (n = 1 is the first retry):
// the capped exponential BaseDelay<<(n-1), equal-jittered to the range
// [d/2, d) so synchronized retriers spread out.
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << uint(n-1)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// deadLetterEntry is one JSON line in the dead-letter log.
type deadLetterEntry struct {
	// Reason classifies why the record was refused: "bad_record",
	// "invalid_offer", "duplicate_id", or "apply_failed".
	Reason string `json:"reason"`
	// Offer is the refused offer, when it decoded.
	Offer *schemaorg.Offer `json:"offer,omitempty"`
	// Record is the raw record text, when it did not decode.
	Record string `json:"record,omitempty"`
	// Err is the underlying failure.
	Err string `json:"error"`
	// Attempts is how many apply attempts were made (apply_failed
	// only).
	Attempts int `json:"attempts,omitempty"`
}

// deadLetter writes one entry to the dead-letter log and bumps the
// counter. Both the connector loop and the applier call it, so writes
// are serialized. A failing sink (a full disk, say) loses the entry, so
// the failure is logged.
func (s *Server) deadLetter(e deadLetterEntry) {
	s.nDeadLettered.Add(1)
	if s.cfg.DeadLetter == nil {
		return
	}
	s.dlMu.Lock()
	defer s.dlMu.Unlock()
	b, err := json.Marshal(e)
	if err != nil {
		s.logf("dead-letter marshal failed: %v", err)
		return
	}
	if _, err := s.cfg.DeadLetter.Write(append(b, '\n')); err != nil {
		s.logf("dead-letter write failed; %s record lost: %v", e.Reason, err)
	}
}

// readerLoop pulls offers from the connector into the bounded queue.
// Queue-full backpressure is a blocking send — the connector stream
// slows down instead of anything buffering beyond the queue. A
// *RecordError dead-letters that record and the loop continues; any
// other connector error ends the stream (loudly, unless it is EOF or
// the shutdown cancellation).
func (s *Server) readerLoop(ctx context.Context) {
	defer close(s.readerDone)
	if s.cfg.Connector == nil {
		return
	}
	for {
		if err := s.cfg.Faults.AwaitConnector(ctx); err != nil {
			return
		}
		off, err := s.cfg.Connector.Next(ctx)
		switch {
		case err == nil:
			// The reader is stopped (cancel + wait) before Shutdown
			// closes the queue, so this send never races with close —
			// no lock needed around a send that may block for a while.
			select {
			case s.ingest <- off:
				s.nAccepted.Add(1)
			case <-ctx.Done():
				return
			}
		case errors.Is(err, io.EOF):
			s.logf("connector stream ended")
			return
		case ctx.Err() != nil:
			return
		default:
			var re *RecordError
			if errors.As(err, &re) {
				s.deadLetter(deadLetterEntry{Reason: "bad_record", Record: clip(re.Record, 512), Err: re.Err.Error()})
				continue
			}
			s.logf("connector failed: %v", err)
			return
		}
	}
}

// clip truncates s to at most n bytes for log hygiene.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// applierLoop is the single index writer and group-commits the queue:
// it blocks for the first queued offer, waits out Enqueue calls still
// sending (they hold qmu for reading), so one post of up to BatchSize
// offers lands in one batch, drains whatever else is queued up to
// BatchSize without blocking, and applies the batch. Under load batches
// grow from the offers that queue up during the previous apply; when
// idle, one post is one epoch. It exits when the queue is closed and
// drained, or when ctx is cancelled (the shutdown drain deadline).
func (s *Server) applierLoop(ctx context.Context) {
	defer close(s.applierDone)
	rng := rand.New(rand.NewSource(s.cfg.RetrySeed))
	batch := make([]schemaorg.Offer, 0, s.cfg.BatchSize)
	for {
		select {
		case off, ok := <-s.ingest:
			if !ok || ctx.Err() != nil {
				return
			}
			batch = append(batch[:0], off)
		case <-ctx.Done():
			return
		}
		s.qmu.Lock()
		s.qmu.Unlock()
		// The applier is the only receiver, so a non-empty queue never
		// blocks this receive (a closed queue still yields its backlog).
		for len(batch) < s.cfg.BatchSize && len(s.ingest) > 0 {
			batch = append(batch, <-s.ingest)
		}
		s.applyBatch(ctx, batch, rng)
	}
}

// applyBatch validates the batch, applies the fresh offers to the index
// with retry/backoff, queries the delta candidates the batch introduced,
// and publishes the next epoch as one more layer on the current view
// (compacting when the stack crosses the configured thresholds). The
// write-path cost therefore tracks the batch, not the corpus. A batch
// that exhausts its retries is dead-lettered whole; the published view
// is untouched, so readers never see a half-applied batch.
func (s *Server) applyBatch(ctx context.Context, batch []schemaorg.Offer, rng *rand.Rand) {
	if len(batch) == 0 {
		return
	}
	v := s.view.Load()
	fresh := make([]schemaorg.Offer, 0, len(batch))
	seen := make(map[int64]bool, len(batch))
	for _, off := range batch {
		off := off
		switch {
		case off.Title == "":
			s.deadLetter(deadLetterEntry{Reason: "invalid_offer", Offer: &off, Err: "offer has no title"})
		case seen[off.ID]:
			s.deadLetter(deadLetterEntry{Reason: "duplicate_id", Offer: &off, Err: "id already in this batch"})
		default:
			if _, dup := v.indexOf(off.ID); dup {
				s.deadLetter(deadLetterEntry{Reason: "duplicate_id", Offer: &off, Err: "id already indexed"})
				continue
			}
			seen[off.ID] = true
			fresh = append(fresh, off)
		}
	}
	if len(fresh) == 0 {
		return
	}
	// The applier is the only writer of the offers slice, and published
	// views only reference the prefix that existed when they were built,
	// so a plain append is safe even when it grows in place.
	offers := append(v.offers, fresh...)
	newIdxs := make([]int, len(fresh))
	for i := range newIdxs {
		newIdxs[i] = len(v.offers) + i
	}
	start := time.Now()
	var err error
	for attempt := 1; ; attempt++ {
		err = s.applyOnce(offers, newIdxs)
		if err == nil {
			break
		}
		if attempt >= s.cfg.Retry.MaxAttempts {
			s.logf("batch of %d abandoned after %d attempts: %v", len(fresh), attempt, err)
			for i := range fresh {
				s.deadLetter(deadLetterEntry{Reason: "apply_failed", Offer: &fresh[i], Err: err.Error(), Attempts: attempt})
			}
			return
		}
		s.nRetries.Add(1)
		start = time.Now() // retry sleeps are backoff, not write-path cost
		select {
		case <-time.After(s.cfg.Retry.delay(attempt, rng)):
		case <-ctx.Done():
			return
		}
	}
	next, deltaPairs, err := s.publishBatch(v, offers, fresh, newIdxs)
	if err != nil {
		// Neither the delta query nor the fallback recompute can
		// legitimately fail (the idxs are all indexed); treat a failure
		// as fatal for the batch but not the daemon: the index holds the
		// offers, the view stays put.
		s.logf("view publication failed: %v", err)
		return
	}
	if s.needsCompaction(next) {
		next = s.compactView(next)
	}
	s.view.Store(next)
	s.nApplied.Add(int64(len(fresh)))
	elapsed := time.Since(start)
	s.lastApplyUS.Store(elapsed.Microseconds())
	s.lastDeltaPairs.Store(int64(deltaPairs))
	s.logf("epoch %d: applied %d offers in %v (%d delta pairs, %d layers, %d+%d pairs)",
		next.epoch, len(fresh), elapsed.Round(time.Microsecond),
		deltaPairs, len(next.layers), next.base.pairs, next.deltaPairs)
}

// publishBatch assembles the next epoch view for an applied batch: the
// steady-state path stacks the batch's delta candidates as a new layer
// on v; an index without a delta query (blocking.ErrNoDelta) falls back
// to the full from-scratch adjacency rebuild.
func (s *Server) publishBatch(v *view, offers, fresh []schemaorg.Offer, newIdxs []int) (*view, int, error) {
	delta, err := blocking.QueryDeltaCandidates(s.ix, newIdxs)
	if err == nil {
		idxOf := make(map[int64]int, len(fresh))
		for i := range fresh {
			idxOf[fresh[i].ID] = len(offers) - len(fresh) + i
		}
		layer := newAdjacency(offers, idxOf, delta)
		return v.extend(offers, layer), layer.pairs, nil
	}
	if !errors.Is(err, blocking.ErrNoDelta) {
		return nil, 0, err
	}
	idxOf := make(map[int64]int, len(offers))
	for i := range offers {
		idxOf[offers[i].ID] = i
	}
	next, err := s.buildView(v.epoch+1, offers, idxOf)
	if err != nil {
		return nil, 0, err
	}
	return next, next.base.pairs, nil
}

// applyOnce is one apply attempt: the fault hook first (the injectable
// failure), then the real index write. Index.Add is idempotent for
// re-added offers, so retrying after a failure injected either side of
// the write is safe.
func (s *Server) applyOnce(offers []schemaorg.Offer, newIdxs []int) error {
	if err := s.cfg.Faults.ApplyErr(); err != nil {
		return err
	}
	s.ix.Add(offers, newIdxs)
	return nil
}
