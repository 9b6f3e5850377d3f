package main

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/hnsw"
	"wdcproducts/internal/ivf"
	"wdcproducts/internal/lsh"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/simlib"
	"wdcproducts/internal/xrand"
)

// titleIDs interns the offers' titles in first-seen order, as the
// blocking indexes do, and returns the corpus and each offer's title id.
func titleIDs(offers []schemaorg.Offer) (*simlib.Prepared, []int) {
	prep := simlib.NewPrepared()
	titleOf := make([]int, len(offers))
	for i := range offers {
		titleOf[i] = prep.Intern(offers[i].Title)
	}
	return prep, titleOf
}

// lshEngine rebuilds the bare lsh index the daemon's MinHash blocker
// wraps — same titles, 16x4 banding and seed stream — so the ladder can
// time the engine query with no blocking layer around it.
func lshEngine(offers []schemaorg.Offer) (*lsh.Index, []int) {
	prep, titleOf := titleIDs(offers)
	sets := make([][]int32, prep.Len())
	for t := range sets {
		sets[t] = prep.TokenSet(t)
	}
	ix := lsh.NewIndex(lsh.Config{Bands: 16, Rows: 4}, xrand.New(1).Stream("minhash-lsh"))
	ix.Build(sets)
	return ix, titleOf
}

// rotate returns s rotated left by k. The index memoizes answers by the
// ordered query, so each ladder layer sends the same window in another
// rotation: the same answer, computed cold.
func rotate[T any](s []T, k int) []T {
	k %= len(s)
	return append(append([]T(nil), s[k:]...), s[:k]...)
}

// Ladder sample sizes.
const (
	ladderWindows = 12
	ladderIDs     = 200
)

// runLadder is the serial, quiesced phase of a traced run: the same
// sampled windows go through the bare lsh engine (a sweep over every
// bucket), the live index, Server and HTTP, and the same sampled ids
// through Server.Match and GET /v1/match — the latter alternately with
// span recording on and off, which measures the tracing overhead per
// request.
func runLadder(ctx context.Context, d *daemon, in *inputs, rng *rand.Rand) map[string]float64 {
	eng, titleOf := lshEngine(in.seedOffers)
	ix := d.traced.lastIndex()
	var engMS, ixMS, srvMS, httpMS []float64
	for k := 0; k < ladderWindows; k++ {
		win := in.window(rng)
		ids := in.idsOf(win)
		titles := map[int]bool{}
		for _, i := range win {
			titles[titleOf[i]] = true
		}
		t := time.Now()
		eng.CandidatePairsAmong(func(t int) bool { return titles[t] })
		engMS = append(engMS, ms(time.Since(t)))
		t = time.Now()
		blocking.QueryCandidates(ix, rotate(win, 0))
		ixMS = append(ixMS, ms(time.Since(t)))
		t = time.Now()
		d.srv.Candidates(ctx, rotate(ids, 1))
		srvMS = append(srvMS, ms(time.Since(t)))
		body := windowBody(rotate(ids, 2))
		t = time.Now()
		d.candidates(ctx, body, 0)
		httpMS = append(httpMS, ms(time.Since(t)))
	}
	var srvUS, httpUS, offUS []float64
	for k := 0; k < ladderIDs; k++ {
		id := in.seedOffers[rng.Intn(len(in.seedOffers))].ID
		t := time.Now()
		d.srv.Match(ctx, id)
		srvUS = append(srvUS, us(time.Since(t)))
		// Alternate which of the traced and untraced calls goes first.
		for pass := 0; pass < 2; pass++ {
			on := (pass+k)%2 == 0
			d.traced.tr.on.Store(on)
			t = time.Now()
			d.match(ctx, id, 0)
			if on {
				httpUS = append(httpUS, us(time.Since(t)))
			} else {
				offUS = append(offUS, us(time.Since(t)))
			}
		}
	}
	d.traced.tr.on.Store(true)
	return map[string]float64{
		"ladder.engine_candidates_ms": median(engMS),
		"ladder.index_candidates_ms":  median(ixMS),
		"ladder.server_candidates_ms": median(srvMS),
		"ladder.http_candidates_ms":   median(httpMS),
		"ladder.server_match_us":      median(srvUS),
		"ladder.http_match_us":        median(httpUS),
		"trace.overhead_match_us":     median(httpUS) - median(offUS),
	}
}

// kNN ladder sizes: the corpus prefix the kNN engines are measured over
// (the kNN scale the daemon workloads would serve) and the novel-title
// batches applied to it.
const (
	knnN       = 10000
	knnBatch   = 64
	knnBatches = 3
)

// knnLadder measures what the MinHash daemon never runs: the kNN
// engines and the kNN blocking write path, over a knnN-offer prefix of the
// seed corpus and batches of the novel-title stream. Per engine (ivf f32
// and hnsw, K=6, wdcserve's configuration) it times the index build, the
// Add and DeltaCandidates of each 64-offer batch — the O(corpus) re-search
// every kNN publish pays — and the bare engine's k+1 search for each
// distinct title of sampled 16-offer windows.
func knnLadder(in *inputs, seed int64, rng *rand.Rand) map[string]float64 {
	base := in.seedOffers[:min(knnN, len(in.seedOffers))]
	offers := append(slices.Clone(base), in.stream[:knnBatch*knnBatches]...)
	t := time.Now()
	model := trainEncoder(base, seed)
	out := map[string]float64{"ladder.encoder_train_s": time.Since(t).Seconds()}

	prep, titleOf := titleIDs(base)
	vecs := make([][]float32, prep.Len())
	for i := range vecs {
		vecs[i] = model.EncodeTokens(prep.Tokens(i))
	}
	var windows [][]int
	for k := 0; k < ladderWindows; k++ {
		titles := map[int]bool{}
		for len(titles) < windowSize {
			titles[titleOf[rng.Intn(len(base))]] = true
		}
		var w []int
		for t := range titles {
			w = append(w, t)
		}
		slices.Sort(w)
		windows = append(windows, w)
	}
	seedIdx := make([]int, len(base))
	for i := range seedIdx {
		seedIdx[i] = i
	}
	for _, name := range []string{"ivf", "hnsw"} {
		t := time.Now()
		ix := knnBlocker(name, model).BuildIndex(offers, seedIdx)
		out["ladder."+name+"_build_s"] = time.Since(t).Seconds()
		var adds, deltas []float64
		for b := 0; b < knnBatches; b++ {
			idxs := make([]int, knnBatch)
			for k := range idxs {
				idxs[k] = len(base) + b*knnBatch + k
			}
			t = time.Now()
			ix.Add(offers, idxs)
			adds = append(adds, ms(time.Since(t)))
			t = time.Now()
			blocking.QueryDeltaCandidates(ix, idxs)
			deltas = append(deltas, ms(time.Since(t)))
		}
		out["ladder."+name+"_add_ms"] = median(adds)
		out["ladder."+name+"_delta_ms"] = median(deltas)

		var search func(v []float32)
		if name == "ivf" {
			e := ivf.Build(vecs, ivf.DefaultConfig(), xrand.New(1).Stream("ivf-knn"))
			search = func(v []float32) { e.Search(v, knnK+1) }
		} else {
			e := hnsw.Build(vecs, hnsw.DefaultConfig(), xrand.New(1).Stream("hnsw-knn"))
			search = func(v []float32) { e.Search(v, knnK+1) }
		}
		var engMS []float64
		for _, w := range windows {
			t = time.Now()
			for _, tid := range w {
				search(vecs[tid])
			}
			engMS = append(engMS, ms(time.Since(t)))
		}
		out["ladder."+name+"_search_ms"] = median(engMS)
	}
	return out
}
