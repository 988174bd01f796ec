// Package service is the fleet-scale lifetime query server behind
// cmd/cgra-lifetimed: an HTTP/JSON front end over the lifetime simulator
// with all expensive state shared across requests.
//
// A Server owns four long-lived pieces:
//
//   - a persistent dse.Pool: every scenario — single query, batch item or
//     fleet combo — runs on the same bounded worker pool, so concurrent
//     requests share backpressure instead of each spawning goroutines;
//   - a result store (memostore.Store): full-request fingerprint →
//     *lifetime.Result, so a repeated scenario is served from memory;
//   - an epoch store (memostore.Store): (co-simulation fingerprint,
//     observed-state content) → epoch outcome, shared through
//     lifetime.Scenario.EpochMemo, so scenarios that differ in horizon,
//     epoch length, operating point or dead pattern (or repeat across
//     requests) reuse each other's epoch co-simulations wherever they
//     reach the same fabric state;
//   - a GPP-reference memo (dse.RefCache), shared the same way.
//
// Contract: every response is a pure function of (request body, seed) — a
// fleet query returns byte-identical JSON at any worker count and any
// store temperature, because results land at deterministic indices, store
// hits are byte-identical to fresh computation, and the memo counters in
// responses are request-scoped (derived from the request alone), never
// cumulative. Cumulative store counters are exposed only on /v1/stats,
// which is explicitly outside the determinism contract. Client errors —
// malformed JSON, unknown allocator/pattern/ladder/size/benchmark names,
// invalid distributions, scenarios beyond the per-scenario work bounds —
// are 4xx with a JSON error message; handlers are panic-recovered so no
// input crashes the server.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"agingcgra/internal/dse"
	"agingcgra/internal/memostore"
)

// maxBodyBytes bounds request bodies; a fleet request is a few KB.
const maxBodyBytes = 1 << 20

// statusClientClosedRequest reports a request canceled by its client
// mid-run (the nginx 499 convention); the client is gone, so the code is
// for logs and tests only.
const statusClientClosedRequest = 499

// Options configures a Server. Zero values select the documented defaults.
type Options struct {
	// Workers sizes the shared scenario pool (0: runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pool's pending-work queue (default 64).
	QueueDepth int
	// MemoEntries is the LRU capacity of the result store and the shared
	// epoch store, each (default 4096; negative: unbounded).
	MemoEntries int
}

// Server is the shared state behind all endpoints. Create with New, serve
// via Handler, release the worker pool with Close.
type Server struct {
	pool    *dse.Pool
	results *memostore.Store
	epochs  *memostore.Store
	refs    *dse.RefCache
	mux     *http.ServeMux
}

// New builds a Server and its shared pool and stores.
func New(o Options) *Server {
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	entries := o.MemoEntries
	switch {
	case entries == 0:
		entries = 4096
	case entries < 0:
		entries = 0 // memostore convention: <= 0 is unbounded
	}
	s := &Server{
		pool:    dse.NewPool(o.Workers, o.QueueDepth),
		results: memostore.New(entries),
		epochs:  memostore.New(entries),
		refs:    dse.NewRefCache(),
	}
	mux := http.NewServeMux()
	s.route(mux, "/healthz", http.MethodGet, s.handleHealthz)
	s.route(mux, "/v1/lifetime", http.MethodPost, s.handleLifetime)
	s.route(mux, "/v1/lifetime/stream", http.MethodPost, s.handleLifetimeStream)
	s.route(mux, "/v1/batch", http.MethodPost, s.handleBatch)
	s.route(mux, "/v1/fleet", http.MethodPost, s.handleFleet)
	s.route(mux, "/v1/stats", http.MethodGet, s.handleStats)
	s.route(mux, "/stats", http.MethodGet, s.handleStats)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains and releases the worker pool: accepted work completes,
// later requests fail with dse.ErrPoolClosed. Idempotent.
func (s *Server) Close() { s.pool.Close() }

// route registers a method-checked, panic-recovered handler.
func (s *Server) route(mux *http.ServeMux, path, method string, h http.HandlerFunc) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// Best effort: if the handler already wrote, this is a no-op
				// on the status line but the connection still closes cleanly.
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Sprintf("method %s not allowed on %s (want %s)", r.Method, path, method))
			return
		}
		h(w, r)
	})
}

// errorBody is the uniform error payload of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorBody{Error: msg})
	w.Write(append(b, '\n'))
}

// writeJSON marshals v once and writes it; marshaling before WriteHeader
// keeps a marshal failure from committing a 200.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// decodeBody strictly decodes the request body into v: unknown fields are
// rejected (a typoed field name silently reverting to a default would be a
// debugging trap), and trailing garbage is an error.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("decoding request: trailing data after JSON body")
	}
	return nil
}

// failStatus maps a request-processing error to its HTTP status: client
// cancellation is 499, pool shutdown 503, everything else a client error —
// scenario construction and simulation errors are deterministic properties
// of the request (unknown names, invalid ranges, mutually exclusive
// options), never server faults.
func failStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return statusClientClosedRequest
	case errors.Is(err, dse.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// lifetimeResponse wraps a single-scenario result.
type lifetimeResponse struct {
	Result *ResultJSON `json:"result"`
}

func (s *Server) handleLifetime(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var res *ResultJSON
	err := s.pool.ForEach(r.Context(), 1, func(int) error {
		var err error
		res, err = s.runScenario(req, fingerprint(req))
		return err
	})
	if err != nil {
		writeError(w, failStatus(err), err.Error())
		return
	}
	writeJSON(w, lifetimeResponse{Result: res})
}

// batchRequest is a list of scenarios run as one unit of work.
type batchRequest struct {
	Scenarios []ScenarioRequest `json:"scenarios"`
}

// batchResponse returns results in request order (byte-identical at any
// worker count).
type batchResponse struct {
	Results []*ResultJSON `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Scenarios) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no scenarios")
		return
	}
	out := make([]*ResultJSON, len(req.Scenarios))
	err := s.pool.ForEach(r.Context(), len(req.Scenarios), func(i int) error {
		res, err := s.runScenario(req.Scenarios[i], fingerprint(req.Scenarios[i]))
		out[i] = res
		if err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		writeError(w, failStatus(err), err.Error())
		return
	}
	writeJSON(w, batchResponse{Results: out})
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	var req FleetRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.fleet(r.Context(), req)
	if err != nil {
		writeError(w, failStatus(err), err.Error())
		return
	}
	writeJSON(w, resp)
}

// statsResponse exposes the cumulative counters of the shared stores and
// the pool shape. These are process-lifetime values — deliberately outside
// the per-request determinism contract.
type statsResponse struct {
	Results memostore.Stats `json:"results"`
	Epochs  memostore.Stats `json:"epochs"`
	Refs    memostore.Stats `json:"refs"`
	Pool    poolStats       `json:"pool"`
}

type poolStats struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, statsResponse{
		Results: s.results.Stats(),
		Epochs:  s.epochs.Stats(),
		Refs:    s.refs.Stats(),
		Pool:    poolStats{Workers: s.pool.Workers(), QueueDepth: s.pool.Depth()},
	})
}
