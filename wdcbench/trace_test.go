package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/core"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve"
)

// TestTracedBlockerPublishesSameDeltaLayers runs the same batches through
// a daemon over the plain blocker and one over the traced decorator: both
// must publish the same epochs, each as a delta layer, with identical
// answers — the decorator must not push the daemon onto the full-rebuild
// fallback.
func TestTracedBlockerPublishesSameDeltaLayers(t *testing.T) {
	b, err := core.Build(core.TinyBuildConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	seed, stream := b.Offers[:300], b.Offers[300:332]
	tr := newTracer()
	plain := &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}
	traced := &tracedBlocker{IndexedBlocker: &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}, tr: tr}
	if _, ok := traced.BuildIndex(seed, []int{0, 1}).(blocking.DeltaIndex); !ok {
		t.Fatal("traced index does not implement blocking.DeltaIndex")
	}

	var servers []*serve.Server
	for _, bl := range []blocking.IndexedBlocker{plain, traced} {
		s, err := serve.New(serve.Config{Blocker: bl, Offers: seed, BatchSize: 8, FlushEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Shutdown(context.Background())
		servers = append(servers, s)
	}
	for k := 0; k < len(stream); k += 8 {
		for _, s := range servers {
			if n, err := s.Enqueue(stream[k : k+8]); err != nil || n != 8 {
				t.Fatalf("enqueue: accepted %d, %v", n, err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for s.Stats().Applied < int64(k+8) {
				if time.Now().After(deadline) {
					t.Fatal("batch never applied")
				}
				time.Sleep(time.Millisecond)
			}
		}
		p, q := servers[0].Stats(), servers[1].Stats()
		if p.Epoch != q.Epoch || p.Layers != q.Layers || p.DeltaPairs != q.DeltaPairs {
			t.Fatalf("after batch %d: plain epoch/layers/delta pairs %d/%d/%d, traced %d/%d/%d",
				k/8, p.Epoch, p.Layers, p.DeltaPairs, q.Epoch, q.Layers, q.DeltaPairs)
		}
		if q.Layers != k/8+1 {
			t.Fatalf("after batch %d the traced daemon has %d delta layers, want %d", k/8, q.Layers, k/8+1)
		}
	}
	all := append(slices.Clone(seed), stream...)
	for _, o := range all {
		want, _, err1 := servers[0].Match(context.Background(), o.ID)
		got, _, err2 := servers[1].Match(context.Background(), o.ID)
		if err1 != nil || err2 != nil || !slices.Equal(got, want) {
			t.Fatalf("match %d: traced %v (%v), plain %v (%v)", o.ID, got, err2, want, err1)
		}
	}
	counts := map[string]int{}
	for _, s := range tr.snapshot() {
		counts[s.Name]++
	}
	if counts["blocking.add"] != 4 || counts["blocking.delta"] != 4 {
		t.Errorf("spans %v, want 4 blocking.add and 4 blocking.delta", counts)
	}
}

// TestTracedIndexParentsSpans checks that index spans find the request
// that caused them: a window by its id set, a batch by its post.
func TestTracedIndexParentsSpans(t *testing.T) {
	offers := []schemaorg.Offer{
		{ID: 10, Title: "acme widget 3000 blue"},
		{ID: 11, Title: "acme widget 3000 blue edition"},
		{ID: 12, Title: "other gadget"},
		{ID: 13, Title: "acme widget 3000 red"},
	}
	tr := newTracer()
	tb := &tracedBlocker{IndexedBlocker: &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}, tr: tr}
	ix := tb.BuildIndex(offers, []int{0, 1, 2})
	tr.registerWindow([]int64{12, 10, 11}, 101)
	ix.Candidates([]int{0, 1, 2})
	tr.registerPost(offers[3:], 202)
	ix.Add(offers, []int{3})
	ix.(blocking.DeltaIndex).DeltaCandidates([]int{3})
	parents := map[string]int64{}
	for _, s := range tr.snapshot() {
		parents[s.Name] = s.Parent
	}
	if parents["blocking.candidates"] != 101 || parents["blocking.add"] != 202 || parents["blocking.delta"] != 202 {
		t.Errorf("span parents %v, want candidates->101, add and delta->202", parents)
	}
}
