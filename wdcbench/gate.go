package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
)

// gate collects correctness failures; any failure makes the run incorrect.
type gate struct {
	mu      sync.Mutex
	count   int
	first   []string
	layered bool // set by checkDeltaLayered
}

func (g *gate) failf(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.count++
	if len(g.first) < 10 {
		g.first = append(g.first, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.count == 0
}

// checkMatch validates one match answer: it echoes the id, and its
// partners are strictly increasing and exclude the offer itself.
func (g *gate) checkMatch(id int64, a matchAnswer) {
	if a.ID != id {
		g.failf("match %d answered for id %d", id, a.ID)
	}
	for k, p := range a.Partners {
		if p == id || (k > 0 && p <= a.Partners[k-1]) {
			g.failf("match %d: partners not strictly increasing without self: %v", id, a.Partners)
			return
		}
	}
}

// checkCandidates validates one candidates answer: pairs are (low, high),
// strictly increasing, with both ends inside the window.
func (g *gate) checkCandidates(ids []int64, a candidatesAnswer) {
	in := map[int64]bool{}
	for _, id := range ids {
		in[id] = true
	}
	for k, p := range a.Pairs {
		if p[0] >= p[1] || !in[p[0]] || !in[p[1]] ||
			(k > 0 && (p[0] < a.Pairs[k-1][0] || (p[0] == a.Pairs[k-1][0] && p[1] <= a.Pairs[k-1][1]))) {
			g.failf("candidates: pair %v malformed, out of order or outside the window", p)
			return
		}
	}
}

// checkWindows compares, per window, POST /v1/candidates with the pairs
// derived from GET /v1/match over the same ids at the same epoch. The
// daemon must be quiesced (no ingest) while it runs.
func (g *gate) checkWindows(ctx context.Context, d *daemon, windows [][]int64) {
	for _, ids := range windows {
		ca, _, err := d.candidates(ctx, windowBody(ids), 0)
		if err != nil {
			g.failf("window check: %v", err)
			continue
		}
		g.checkCandidates(ids, ca)
		inW := map[int64]bool{}
		for _, id := range ids {
			inW[id] = true
		}
		var derived [][2]int64
		for _, id := range ids {
			ma, _, err := d.match(ctx, id, 0)
			if err != nil {
				g.failf("window check: %v", err)
				continue
			}
			if ma.Epoch != ca.Epoch {
				g.failf("window check: match %d at epoch %d, candidates at %d on a quiesced daemon", id, ma.Epoch, ca.Epoch)
			}
			for _, p := range ma.Partners {
				if inW[p] && id < p {
					derived = append(derived, [2]int64{id, p})
				}
			}
		}
		slices.SortFunc(derived, func(x, y [2]int64) int {
			if x[0] != y[0] {
				return int(x[0] - y[0])
			}
			return int(x[1] - y[1])
		})
		if !slices.Equal(derived, ca.Pairs) {
			g.failf("window %v: candidates %v != pairs derived from match %v", ids, ca.Pairs, derived)
		}
	}
}

// serverMatch is the in-process Server.Match answer, with the typed
// *serve.Error turned into a plain error (nil when none).
func (d *daemon) serverMatch(ctx context.Context, id int64) ([]int64, error) {
	ps, _, err := d.srv.Match(ctx, id)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// checkSymmetry requires b in match(a) exactly when a in match(b), for
// every partner of the sampled ids.
func (g *gate) checkSymmetry(ctx context.Context, d *daemon, ids []int64) {
	for _, id := range ids {
		ps, err := d.serverMatch(ctx, id)
		if err != nil {
			g.failf("symmetry: match %d: %v", id, err)
			continue
		}
		for _, p := range ps {
			back, err := d.serverMatch(ctx, p)
			if err != nil {
				g.failf("symmetry: match %d: %v", p, err)
				continue
			}
			if _, found := slices.BinarySearch(back, id); !found {
				g.failf("symmetry: %d lists %d as partner but not the reverse", id, p)
			}
		}
	}
}

// checkVisible waits until the daemon has applied every acknowledged
// ingested offer, then requires each to answer Match.
func (g *gate) checkVisible(ctx context.Context, d *daemon, acked []int64) {
	deadline := time.Now().Add(60 * time.Second)
	for d.srv.Stats().Applied < int64(len(acked)) {
		if time.Now().After(deadline) {
			g.failf("only %d of %d acknowledged offers applied after 60s", d.srv.Stats().Applied, len(acked))
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := d.srv.Stats()
	if st.Applied != int64(len(acked)) || st.DeadLettered != 0 {
		g.failf("applied %d and dead-lettered %d of %d acknowledged offers", st.Applied, st.DeadLettered, len(acked))
	}
	for _, id := range acked {
		if _, err := d.serverMatch(ctx, id); err != nil {
			g.failf("acknowledged offer %d not visible: %v", id, err)
		}
	}
}

// finalCorpus is the daemon's corpus in applied order: the seed offers,
// then the acknowledged stream offers in queue order.
func (in *inputs) finalCorpus(acked []int64) []schemaorg.Offer {
	out := slices.Clone(in.seedOffers)
	for _, id := range acked {
		out = append(out, in.streamByID[id])
	}
	return out
}

// checkReference compares Match for 150 sampled seed offers and 150
// sampled ingested ones with a fresh BuildIndex over the daemon's final
// corpus in applied order. MinHash adjacency is monotone under Add — a
// band collision is a property of two fixed signatures — so the layered
// view must equal the fresh build exactly.
func (g *gate) checkReference(ctx context.Context, d *daemon, in *inputs, acked []int64, rng *rand.Rand) {
	final := in.finalCorpus(acked)
	sample := rng.Perm(len(in.seedOffers))[:150]
	for _, k := range rng.Perm(len(acked))[:min(150, len(acked))] {
		sample = append(sample, len(in.seedOffers)+k)
	}
	all := make([]int, len(final))
	for i := range all {
		all[i] = i
	}
	pairs, err := blocking.QueryDeltaCandidates(d.blocker.BuildIndex(final, all), sample)
	if err != nil {
		g.failf("reference: %v", err)
		return
	}
	expect := map[int][]int64{}
	for _, p := range pairs {
		expect[p.A] = append(expect[p.A], final[p.B].ID)
		expect[p.B] = append(expect[p.B], final[p.A].ID)
	}
	for _, i := range sample {
		want := expect[i]
		slices.Sort(want)
		want = slices.Compact(want)
		got, err := d.serverMatch(ctx, final[i].ID)
		if err != nil {
			g.failf("reference: match %d: %v", final[i].ID, err)
			continue
		}
		if !slices.Equal(got, want) {
			g.failf("reference: match %d = %v, a fresh build says %v", final[i].ID, got, want)
		}
	}
}

// checkDeltaLayered requires that the daemon published its epochs as
// delta layers: with the full-rebuild fallback no view ever carries one.
func (g *gate) checkDeltaLayered(obs []observation) {
	if obs[len(obs)-1].st.Epoch == obs[0].st.Epoch {
		g.layered = true
		return
	}
	for _, o := range obs {
		if o.st.Layers > 0 {
			g.layered = true
			return
		}
	}
	g.failf("no published epoch carried a delta layer: the daemon rebuilt its view per batch")
}
