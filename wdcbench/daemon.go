package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/embed"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve"
	"wdcproducts/internal/xrand"
)

// knnK is wdcserve's neighbour budget for the kNN blockers.
const knnK = 6

// minhashBlocker is the daemon's blocker: MinHash with the scale-tuned
// 16x4 banding.
func minhashBlocker() *blocking.MinHashBlocker {
	return &blocking.MinHashBlocker{Config: blocking.MinHashConfig{Bands: 16, Rows: 4}, Seed: 1}
}

// trainEncoder trains the title encoder over the offers the way wdcserve
// does for its kNN blockers.
func trainEncoder(offers []schemaorg.Offer, seed int64) *embed.Model {
	titles := make([]string, len(offers))
	for i := range offers {
		titles[i] = offers[i].Title
	}
	return embed.Train(titles, embed.DefaultConfig(), xrand.New(seed).Stream("embed"))
}

// knnBlocker is wdcserve's ivf (f32) or hnsw blocker over a trained
// encoder.
func knnBlocker(engine string, model *embed.Model) blocking.IndexedBlocker {
	if engine == "ivf" {
		return blocking.NewIVFBlocker(model, knnK)
	}
	return blocking.NewHNSWBlocker(model, knnK)
}

// daemon is one live, in-process wdcserve: the Server, its HTTP listener
// on localhost, and a client capped at nproc connections.
type daemon struct {
	srv     *serve.Server
	blocker blocking.IndexedBlocker // the undecorated blocker, for reference builds
	traced  *tracedBlocker          // nil in untraced runs
	url     string
	client  *http.Client
	hs      *http.Server
	served  chan struct{}

	setup  time.Duration // offers handed over -> first /healthz 200
	newDur time.Duration // serve.New alone
}

// startDaemon cold-starts a daemon over the seed offers with wdcserve's
// default pipeline settings. The clock runs from handing over the offers
// (blocker construction included) to the first healthy /healthz.
func startDaemon(offers []schemaorg.Offer, seed int64, tr *tracer) (*daemon, error) {
	start := time.Now()
	bl := minhashBlocker()
	d := &daemon{blocker: bl, served: make(chan struct{})}
	var use blocking.IndexedBlocker = bl
	if tr != nil {
		d.traced = &tracedBlocker{IndexedBlocker: bl, tr: tr}
		use = d.traced
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Config{
		Blocker:       use,
		Offers:        offers,
		QueueCap:      256,
		BatchSize:     64,
		FlushEvery:    200 * time.Millisecond,
		QueryTimeout:  2 * time.Second,
		DrainTimeout:  10 * time.Second,
		CompactLayers: 32,
		CompactPairs:  0,
		RetrySeed:     seed,
	})
	if err != nil {
		return nil, err
	}
	d.newDur = time.Since(t0)
	if tr != nil {
		tr.record(span{Name: "serve.new", Start: tr.since(t0), End: tr.since(t0.Add(d.newDur))})
	}
	d.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	d.hs = &http.Server{Handler: h}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	d.url = "http://" + ln.Addr().String()
	n := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
	for {
		if code, _, err := d.get(context.Background(), "/healthz", nil); err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, errors.New("daemon never reported healthy")
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// stop closes the listener and its connections, waits for the server
// goroutine, and drains the daemon.
func (d *daemon) stop() error {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// requestTimeout bounds every benchmark request; past it the request has
// failed.
const requestTimeout = 5 * time.Second

// do sends one request and decodes a JSON answer into out (when non-nil
// and the status is 2xx). It returns the status and the body size.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, span int64, out any) (int, int, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(b), err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, len(b), fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, len(b), nil
}

func (d *daemon) get(ctx context.Context, path string, out any) (int, int, error) {
	return d.do(ctx, http.MethodGet, path, nil, 0, out)
}

// matchAnswer is the GET /v1/match body.
type matchAnswer struct {
	ID       int64   `json:"id"`
	Epoch    int64   `json:"epoch"`
	Partners []int64 `json:"partners"`
}

// candidatesAnswer is the POST /v1/candidates body.
type candidatesAnswer struct {
	Epoch int64      `json:"epoch"`
	Pairs [][2]int64 `json:"pairs"`
}

// match asks GET /v1/match for one offer.
func (d *daemon) match(ctx context.Context, id int64, span int64) (matchAnswer, int, error) {
	var a matchAnswer
	code, n, err := d.do(ctx, http.MethodGet, "/v1/match?id="+strconv.FormatInt(id, 10), nil, span, &a)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("match %d: status %d", id, code)
	}
	return a, n, err
}

// candidates asks POST /v1/candidates for a pre-encoded window.
func (d *daemon) candidates(ctx context.Context, body []byte, span int64) (candidatesAnswer, int, error) {
	var a candidatesAnswer
	code, n, err := d.do(ctx, http.MethodPost, "/v1/candidates", body, span, &a)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("candidates: status %d", code)
	}
	return a, n, err
}
