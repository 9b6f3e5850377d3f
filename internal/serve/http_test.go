// HTTP surface tests: the endpoint contract (statuses, typed error
// envelope, Retry-After, deadline propagation) exercised over a real
// listener, and the daemon's lifecycle with queries running during
// connector ingest.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wdcproducts/internal/blocking"
	"wdcproducts/internal/schemaorg"
	"wdcproducts/internal/serve/faults"
)

// httpFixture builds a started daemon and a test listener over its
// handler.
func httpFixture(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, []schemaorg.Offer) {
	t.Helper()
	offers := fixture(t)
	cfg := testConfig(offers[:200])
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts, offers
}

// decodeError reads the typed error envelope from a response.
func decodeError(t *testing.T, resp *http.Response) *Error {
	t.Helper()
	defer resp.Body.Close()
	var env errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope did not decode: %v", err)
	}
	if env.Error == nil {
		t.Fatal("error response carries no error object")
	}
	return env.Error
}

func TestHTTPHealthAndStats(t *testing.T) {
	_, ts, _ := httpFixture(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Offers != 200 || st.QueueCap == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPMatch(t *testing.T) {
	_, ts, offers := httpFixture(t, nil)
	resp, err := http.Get(fmt.Sprintf("%s/v1/match?id=%d", ts.URL, offers[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status = %d", resp.StatusCode)
	}
	var m matchResponse
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.ID != offers[0].ID || m.Partners == nil {
		t.Fatalf("match body = %+v", m)
	}

	// A timeout_ms past the server's QueryTimeout falls back to it, even
	// when converting it to a Duration would overflow.
	for _, tm := range []string{"9223372036854775807", "9300000000000"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/match?id=%d&timeout_ms=%s", ts.URL, offers[0].ID, tm))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("match timeout_ms=%s status = %d, want 200", tm, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(candidatesRequest{IDs: []int64{offers[0].ID, offers[1].ID}, TimeoutMS: math.MaxInt64})
	resp, err = http.Post(ts.URL+"/v1/candidates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("candidates timeout_ms=MaxInt64 status = %d, want 200", resp.StatusCode)
	}

	for query, wantCode := range map[string]Code{
		"id=notanumber":              CodeBadRequest,
		"id=-99":                     CodeUnknownOffer,
		"id=1&timeout_ms=notanumber": CodeBadRequest,
		"":                           CodeBadRequest,
	} {
		resp, err := http.Get(ts.URL + "/v1/match?" + query)
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeError(t, resp); e.Code != wantCode {
			t.Errorf("match?%s -> %s, want %s", query, e.Code, wantCode)
		}
	}
}

func TestHTTPCandidates(t *testing.T) {
	_, ts, offers := httpFixture(t, nil)
	body, _ := json.Marshal(candidatesRequest{IDs: []int64{offers[0].ID, offers[1].ID, offers[2].ID}})
	resp, err := http.Post(ts.URL+"/v1/candidates", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidates status = %d", resp.StatusCode)
	}
	var c candidatesResponse
	json.NewDecoder(resp.Body).Decode(&c)
	resp.Body.Close()
	if c.Pairs == nil {
		t.Fatal("candidates pairs absent (nil, not empty list)")
	}

	for name, body := range map[string]string{
		"garbage":   "{not json",
		"empty ids": `{"ids":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/candidates", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		if e := decodeError(t, resp); e.Code != CodeBadRequest {
			t.Errorf("%s -> %s, want %s", name, e.Code, CodeBadRequest)
		}
	}
}

func TestHTTPIngestAndBackpressure(t *testing.T) {
	inj := new(faults.Injector)
	s, ts, offers := httpFixture(t, func(c *Config) { c.Faults = inj })
	body, _ := json.Marshal(ingestRequest{Offers: offers[200:205]})
	resp, err := http.Post(ts.URL+"/v1/offers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if ir.Accepted != 5 {
		t.Fatalf("accepted = %d, want 5", ir.Accepted)
	}
	waitFor(t, 10*time.Second, "http-ingested offers", func() bool {
		return s.Stats().Applied == 5
	})

	inj.ForceQueueFull(true)
	resp, err = http.Post(ts.URL+"/v1/offers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	if e := decodeError(t, resp); e.Code != CodeBackpressure {
		t.Fatalf("backpressure code = %s", e.Code)
	}
	inj.ForceQueueFull(false)

	resp, err = http.Post(ts.URL+"/v1/offers", "application/json", bytes.NewReader([]byte(`{"offers":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); e.Code != CodeBadRequest {
		t.Fatalf("empty ingest code = %s", e.Code)
	}
}

// TestHTTPBodyTooLarge: a POST body past maxBodyBytes is refused with
// CodeBadRequest before it is decoded. Each body is valid JSON (the
// payload sits behind whitespace padding), so only the cap rejects it.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts, offers := httpFixture(t, nil)
	offer, _ := json.Marshal(offers[300])
	pad := strings.Repeat(" ", maxBodyBytes)
	for path, body := range map[string]string{
		"/v1/offers":     `{"offers":` + pad + `[` + string(offer) + `]}`,
		"/v1/candidates": `{"ids":` + pad + fmt.Sprintf("[%d]}", offers[0].ID),
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: oversized body status = %d, want 400", path, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != CodeBadRequest || !strings.Contains(e.Message, "too large") {
			t.Errorf("%s: oversized body -> %s %q, want %s (too large)", path, e.Code, e.Message, CodeBadRequest)
		}
	}
}

func TestHTTPDeadline(t *testing.T) {
	inj := new(faults.Injector)
	_, ts, offers := httpFixture(t, func(c *Config) {
		c.Faults = inj
		c.QueryTimeout = 5 * time.Second // the request's timeout_ms must tighten this
	})
	inj.SetQueryLatency(2 * time.Second)
	t0 := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/v1/match?id=%d&timeout_ms=50", ts.URL, offers[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeDeadlineExceeded {
		t.Fatalf("deadline code = %s", e.Code)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline response took %v, want ~50ms", elapsed)
	}
	inj.SetQueryLatency(0)
}

func TestHTTPShuttingDown(t *testing.T) {
	s, ts, offers := httpFixture(t, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The listener (still up in this test) keeps answering queries, but
	// ingest is refused with the typed shutdown error.
	body, _ := json.Marshal(ingestRequest{Offers: offers[200:201]})
	resp, err := http.Post(ts.URL+"/v1/offers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest status = %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != CodeShuttingDown {
		t.Fatalf("draining code = %s", e.Code)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", h.Status)
	}
}

// TestRunServesAndDrains drives the full daemon lifecycle the way
// cmd/wdcserve does: Run on a real port, concurrent match and candidates
// queries over HTTP while a connector streams offers in, then context
// cancellation (the SIGTERM path) with a snapshot on the way out. Every
// query must answer 2xx while the applier lands the stream's batches.
func TestRunServesAndDrains(t *testing.T) {
	offers := fixture(t)
	dir := t.TempDir()
	cfg := testConfig(offers[:150])
	cfg.Index.SnapshotDir = dir
	conn := NewChanConnector(0)
	cfg.Connector = conn
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	base := "http://" + ln
	waitFor(t, 10*time.Second, "daemon to listen", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Four readers query the seed offers, every fifth request a
	// candidates query over eight ids, until the stream has been handed
	// to the daemon and each reader has made at least 30 requests.
	streamed := make(chan struct{})
	failures := make(chan string, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-streamed:
					if n >= 30 {
						return
					}
				default:
				}
				var resp *http.Response
				var err error
				if lo := (r*37 + n) % 140; n%5 == 4 {
					ids := make([]int64, 8)
					for i := range ids {
						ids[i] = offers[lo+i].ID
					}
					body, _ := json.Marshal(candidatesRequest{IDs: ids})
					resp, err = http.Post(base+"/v1/candidates", "application/json", bytes.NewReader(body))
				} else {
					resp, err = http.Get(fmt.Sprintf("%s/v1/match?id=%d", base, offers[lo].ID))
				}
				if err != nil {
					failures <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode < 200 || resp.StatusCode > 299 {
					failures <- fmt.Sprintf("%s %s: status %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
					return
				}
			}
		}()
	}
stream:
	for _, off := range offers[150:170] {
		select {
		case conn.C <- off:
		case <-time.After(10 * time.Second):
			t.Error("daemon stopped reading the connector")
			break stream
		}
		time.Sleep(time.Millisecond)
	}
	close(conn.C)
	close(streamed)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Errorf("query during ingest failed: %s", f)
	}
	waitFor(t, 10*time.Second, "connector stream", func() bool {
		return s.Stats().Applied == 20
	})
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not drain after cancellation")
	}
	if !s.Stats().Draining {
		t.Fatal("daemon not draining after Run returned")
	}
	// The shutdown snapshot covers seed + streamed offers.
	union := offers[:170]
	idxs := make([]int, len(union))
	for i := range idxs {
		idxs[i] = i
	}
	_, open := blocking.OpenIndex(blocking.NewMinHashBlocker(), union, idxs, blocking.IndexOptions{SnapshotDir: dir})
	if !open.Loaded {
		t.Fatalf("post-Run snapshot not loadable: %+v", open)
	}
}

// freeAddr reserves a loopback address for the daemon to listen on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
