// The HTTP surface: a small JSON API over the Server. Every error
// response is the typed envelope {"error":{"code":...,"message":...}}
// with a status fixed by the code (backpressure additionally carries a
// Retry-After header). Every query request runs under a deadline — the
// configured QueryTimeout, tightened (never widened) by the request's
// timeout_ms.
//
// Endpoints:
//
//	GET  /healthz                 liveness + drain state
//	GET  /v1/stats                counters (Stats)
//	POST /v1/offers               ingest offers; 202, or 429 on backpressure
//	POST /v1/candidates           live subset query over offer IDs
//	GET  /v1/match?id=N           candidate partners of one offer

package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"wdcproducts/internal/schemaorg"
)

// maxBodyBytes caps a POST body. A larger body is refused with
// CodeBadRequest before it is decoded, so one oversized request cannot
// exhaust the daemon's memory.
const maxBodyBytes = 4 << 20

// ingestRequest is the POST /v1/offers body.
type ingestRequest struct {
	// Offers are the offers to ingest.
	Offers []schemaorg.Offer `json:"offers"`
}

// ingestResponse is the POST /v1/offers success body.
type ingestResponse struct {
	// Accepted is how many submitted offers entered the queue.
	Accepted int `json:"accepted"`
}

// candidatesRequest is the POST /v1/candidates body.
type candidatesRequest struct {
	// IDs are the offer IDs to query among.
	IDs []int64 `json:"ids"`
	// TimeoutMS tightens the query deadline (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// candidatesResponse is the POST /v1/candidates success body.
type candidatesResponse struct {
	// Epoch identifies the corpus version the answer was computed at.
	Epoch int64 `json:"epoch"`
	// Pairs are the candidate ID pairs (low, high), sorted.
	Pairs [][2]int64 `json:"pairs"`
}

// matchResponse is the GET /v1/match success body.
type matchResponse struct {
	// ID echoes the queried offer.
	ID int64 `json:"id"`
	// Epoch identifies the corpus version the answer was computed at.
	Epoch int64 `json:"epoch"`
	// Partners are the candidate partner IDs, sorted.
	Partners []int64 `json:"partners"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	// Status is "ok" while serving, "draining" during shutdown.
	Status string `json:"status"`
	// Epoch is the published corpus version.
	Epoch int64 `json:"epoch"`
}

// errorResponse is the typed error envelope.
type errorResponse struct {
	// Error carries the code and message.
	Error *Error `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the typed error envelope; backpressure errors carry
// their retry hint in the Retry-After header (whole seconds, rounded
// up).
func writeError(w http.ResponseWriter, e *Error) {
	if e.RetryAfter > 0 {
		secs := int64(math.Ceil(e.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.HTTPStatus(), errorResponse{Error: e})
}

// queryContext derives the request's deadline: the server's
// QueryTimeout, tightened by a positive timeoutMS.
func (s *Server) queryContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/offers", s.handleIngest)
	mux.HandleFunc("POST /v1/candidates", s.handleCandidates)
	mux.HandleFunc("GET /v1/match", s.handleMatch)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: status, Epoch: s.Epoch()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, Errorf(CodeBadRequest, "bad ingest body: %v", err))
		return
	}
	if len(req.Offers) == 0 {
		writeError(w, Errorf(CodeBadRequest, "no offers submitted"))
		return
	}
	accepted, err := s.Enqueue(req.Offers)
	if err != nil {
		// Partial acceptance still reports the backpressure error so
		// the client retries the rest; Accepted tells it where to
		// resume.
		err.Message = err.Message + "; accepted " + strconv.Itoa(accepted)
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: accepted})
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	var req candidatesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, Errorf(CodeBadRequest, "bad candidates body: %v", err))
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, Errorf(CodeBadRequest, "no ids submitted"))
		return
	}
	ctx, cancel := s.queryContext(r, req.TimeoutMS)
	defer cancel()
	pairs, epoch, err := s.Candidates(ctx, req.IDs)
	if err != nil {
		writeError(w, err)
		return
	}
	if pairs == nil {
		pairs = [][2]int64{}
	}
	writeJSON(w, http.StatusOK, candidatesResponse{Epoch: epoch, Pairs: pairs})
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, Errorf(CodeBadRequest, "bad or missing id: %v", err))
		return
	}
	var timeoutMS int64
	if tm := r.URL.Query().Get("timeout_ms"); tm != "" {
		timeoutMS, err = strconv.ParseInt(tm, 10, 64)
		if err != nil {
			writeError(w, Errorf(CodeBadRequest, "bad timeout_ms: %v", err))
			return
		}
	}
	ctx, cancel := s.queryContext(r, timeoutMS)
	defer cancel()
	partners, epoch, merr := s.Match(ctx, id)
	if merr != nil {
		writeError(w, merr)
		return
	}
	if partners == nil {
		partners = []int64{}
	}
	writeJSON(w, http.StatusOK, matchResponse{ID: id, Epoch: epoch, Partners: partners})
}

// Run serves the HTTP API on addr until ctx is cancelled (typically by
// SIGTERM through signal.NotifyContext), then shuts down gracefully:
// the listener stops accepting, in-flight requests finish, the ingest
// queue drains within DrainTimeout, and the grown index is snapshotted.
// It returns the shutdown error, or the listener's error if serving
// failed outright.
func (s *Server) Run(ctx context.Context, addr string) error {
	s.Start()
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fctx, fcancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer fcancel()
		s.Shutdown(fctx)
		return err
	case <-ctx.Done():
	}
	s.logf("shutdown signalled; draining")
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		s.logf("http shutdown: %v", err)
	}
	return s.Shutdown(dctx)
}
