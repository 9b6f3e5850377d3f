package main

import (
	"math"
	"testing"
	"time"

	"wdcproducts/internal/serve"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	var reqs []*request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, &request{kind: kindMatch, due: time.Duration(i) * time.Millisecond,
			done: time.Duration(i)*time.Millisecond + time.Duration(i+1)*time.Microsecond, ok: i < 98})
	}
	lat := latenciesMS(reqs, kindMatch, 0, time.Second)
	if len(lat) != 100 {
		t.Fatalf("got %d samples, want 100", len(lat))
	}
	if got := percentile(lat, 0.5); got != 0.050 {
		t.Errorf("p50 = %v ms, want 0.050 (the 50th smallest)", got)
	}
	if got := percentile(lat, 0.98); got != 0.098 {
		t.Errorf("p98 = %v ms, want 0.098: two failures sit above it", got)
	}
	if got := percentile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: the 99th sample is a failure", got)
	}
	if got := latenciesMS(reqs, kindMatch, 10*time.Millisecond, 20*time.Millisecond); len(got) != 10 {
		t.Errorf("window [10ms, 20ms) holds %d samples, want 10", len(got))
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One worker, a 20ms service time and requests due 1ms apart: each
	// request waits for the ones before it, and that wait must show in
	// its latency even though the generator itself was on time.
	var reqs []*request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, &request{due: time.Duration(i) * time.Millisecond})
	}
	openLoop(time.Now(), reqs, 1, func(r *request) {
		time.Sleep(20 * time.Millisecond)
		r.ok = true
	})
	last := reqs[4]
	if got := last.latency(); got < 80*time.Millisecond {
		t.Errorf("last request latency %v, want >= 80ms of queueing behind four 20ms requests", got)
	}
	if service := last.done - last.sent; service > 60*time.Millisecond {
		t.Errorf("last request service time %v; timing from send would hide the queueing", service)
	}
	for i, r := range reqs {
		if late := r.dispatched - r.due; late > 15*time.Millisecond {
			t.Errorf("request %d dispatched %v late; the dispatcher must not wait for workers", i, late)
		}
	}
}

func TestOpenLoopReportsLateness(t *testing.T) {
	// A schedule whose start lies 50ms in the past finds the generator
	// late for every request: the lateness is reported per request and
	// the latency, measured from the due time, includes it.
	reqs := []*request{{due: 0}, {due: time.Millisecond}}
	openLoop(time.Now().Add(-50*time.Millisecond), reqs, 2, func(r *request) { r.ok = true })
	for i, r := range reqs {
		if late := r.dispatched - r.due; late < 45*time.Millisecond {
			t.Errorf("request %d lateness %v, want >= 45ms", i, late)
		}
		if r.latency() < r.dispatched-r.due {
			t.Errorf("request %d latency %v excludes its lateness %v", i, r.latency(), r.dispatched-r.due)
		}
	}
}

func TestFreshWaitsForAppliedCoverage(t *testing.T) {
	obs := []observation{
		{at: 0, st: serve.Stats{Applied: 0}},
		{at: 150 * time.Millisecond, st: serve.Stats{Applied: 64}},
		{at: 400 * time.Millisecond, st: serve.Stats{Applied: 128}},
	}
	reqs := []*request{
		{kind: kindIngest, due: 10 * time.Millisecond, ok: true, ackedTo: 32},
		{kind: kindIngest, due: 100 * time.Millisecond, ok: true, ackedTo: 96},
		{kind: kindIngest, due: 200 * time.Millisecond, ok: false, ackedTo: 96},
	}
	got := freshMS(reqs, obs, 0, time.Second)
	want := []float64{140, 300, math.Inf(1)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("post %d fresh = %v ms, want %v", i, got[i], want[i])
		}
	}
}
