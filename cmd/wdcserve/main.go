// Command wdcserve runs the fault-tolerant matching daemon: it builds
// (or snapshot-loads) a MinHash blocking index (16 bands of 4 rows,
// blocking.NewServingMinHashBlocker) over a benchmark corpus, streams
// further offers in through the bounded ingest pipeline, and serves
// match/candidate queries over HTTP with deadlines, typed errors, and
// backpressure. On SIGTERM/SIGINT it drains in-flight ingest, writes
// the grown index back as an atomic snapshot, and exits cleanly.
//
// Usage:
//
//	wdcserve [-addr :8080] [-scale tiny] [-seed 42] [-snapshot-dir DIR]
//	         [-stream 0.2] [-ingest FILE] [-dead-letter FILE] [-queue 256]
//	         [-batch 64] [-query-timeout 2s] [-drain-timeout 10s] [-v]
//
// By default the daemon seeds its index with all but a -stream fraction
// of the benchmark offers and replays the held-out remainder through
// the ingest pipeline, so a fresh daemon demonstrates live ingest
// immediately. -ingest FILE (or "-" for stdin) streams JSONL offers
// from an external source instead.
//
// See docs/serving.md for the endpoint and error-code contract.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wdcproducts"
	"wdcproducts/internal/blocking"
	"wdcproducts/internal/serve"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.String("scale", "tiny", "benchmark scale seeding the corpus: default|small|tiny")
	seed := flag.Int64("seed", 42, "master random seed")
	snapshotDir := flag.String("snapshot-dir", "", "load the index from this directory when a trusted snapshot exists; save the grown index there at shutdown")
	stream := flag.Float64("stream", 0.2, "fraction of the corpus held back and replayed through the ingest pipeline (0 = serve everything from the start)")
	ingest := flag.String("ingest", "", "stream JSONL offers from this file instead of the held-back corpus fraction (- = stdin)")
	deadLetter := flag.String("dead-letter", "", "append refused ingest records to this JSONL file")
	queueCap := flag.Int("queue", 256, "ingest queue capacity (full queue = backpressure)")
	batch := flag.Int("batch", 64, "most offers applied per index write (each write takes what is queued)")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "per-query deadline cap")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown drain budget")
	verbose := flag.Bool("v", false, "log index acquisition (snapshot load vs rebuild) and pipeline progress")
	flag.Parse()

	var cfg wdcproducts.BuildConfig
	switch *scale {
	case "default":
		cfg = wdcproducts.DefaultScale(*seed)
	case "small":
		cfg = wdcproducts.SmallScale(*seed)
	case "tiny":
		cfg = wdcproducts.TinyScale(*seed)
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	b, err := wdcproducts.Build(cfg)
	if err != nil {
		log.Fatalf("build corpus: %v", err)
	}
	seedOffers := b.Offers
	var connector serve.Connector
	switch {
	case *ingest == "-":
		connector = serve.NewJSONLConnector(os.Stdin)
	case *ingest != "":
		f, err := os.Open(*ingest)
		if err != nil {
			log.Fatalf("ingest: %v", err)
		}
		defer f.Close()
		connector = serve.NewJSONLConnector(f)
	case *stream > 0:
		cut := len(b.Offers) - int(float64(len(b.Offers))**stream)
		if cut < 1 {
			cut = 1
		}
		seedOffers = b.Offers[:cut]
		connector = serve.NewSliceConnector(b.Offers[cut:]...)
	}

	scfg := serve.Config{
		Blocker:      blocking.NewServingMinHashBlocker(),
		Offers:       seedOffers,
		Index:        blocking.IndexOptions{SnapshotDir: *snapshotDir},
		Connector:    connector,
		QueueCap:     *queueCap,
		BatchSize:    *batch,
		QueryTimeout: *queryTimeout,
		DrainTimeout: *drainTimeout,
		RetrySeed:    *seed,
	}
	if *verbose {
		scfg.Log = os.Stderr
	}
	if *deadLetter != "" {
		f, err := os.OpenFile(*deadLetter, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("dead-letter: %v", err)
		}
		defer f.Close()
		scfg.DeadLetter = f
	}
	srv, err := serve.New(scfg)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if *verbose {
		open := srv.OpenStats()
		switch {
		case open.Loaded:
			log.Printf("index: loaded snapshot %s", open.Path)
		case open.LoadErr != nil:
			log.Printf("index: snapshot refused (%v); rebuilt", open.LoadErr)
		default:
			log.Printf("index: built fresh (%d offers)", len(seedOffers))
		}
	}
	log.Printf("wdcserve: minhash index over %d offers, serving on %s", len(seedOffers), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.Run(ctx, *addr); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
