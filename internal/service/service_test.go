package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fastScenario is the cheapest interesting scenario: one benchmark, a
// small fabric, four epochs.
const fastScenario = `{"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2}`

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

func TestLifetimeHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, body := post(t, ts, "/v1/lifetime", fastScenario)
	if code != http.StatusOK {
		t.Fatalf("lifetime: %d %s", code, body)
	}
	var resp struct {
		Result *ResultJSON `json:"result"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || len(resp.Result.Timeline) != 4 {
		t.Fatalf("want a 4-epoch timeline, got %+v", resp.Result)
	}
	if resp.Result.AllocatorName == "" || resp.Result.InitialSpeedup <= 0 {
		t.Fatalf("result missing fields: %+v", resp.Result)
	}
}

func TestRepeatRequestIsByteIdenticalAndMemoized(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	_, first := post(t, ts, "/v1/lifetime", fastScenario)
	_, second := post(t, ts, "/v1/lifetime", fastScenario)
	if first != second {
		t.Fatal("repeated identical request returned different bytes")
	}
	if st := s.results.Stats(); st.Hits == 0 || st.Misses != 1 {
		t.Fatalf("second request should hit the result store: %+v", st)
	}
}

// clientErrorCases is the table of malformed or invalid requests; each
// must be a 4xx whose JSON error mentions wantMsg. FuzzServiceRequest seeds
// its corpus from the bodies.
var clientErrorCases = []struct {
	name, path, body string
	wantCode         int
	wantMsg          string
}{
	{"malformed JSON", "/v1/lifetime", `{not json`, 400, "decoding request"},
	{"unknown field", "/v1/lifetime", `{"allocater": "baseline"}`, 400, "unknown field"},
	{"trailing garbage", "/v1/lifetime", `{} {}`, 400, "trailing data"},
	{"unknown allocator", "/v1/lifetime", `{"allocator": "bogus"}`, 400, "unknown allocator"},
	{"unknown size", "/v1/lifetime", `{"size": "jumbo"}`, 400, "unknown size"},
	{"unknown pattern", "/v1/lifetime", `{"dead_pattern": "zigzag"}`, 400, "pattern"},
	{"unknown ladder", "/v1/lifetime",
		`{"shape_translations": true, "shape_ladder": "bogus"}`, 400, "ladder"},
	{"unknown benchmark", "/v1/lifetime", `{"benchmarks": ["doom"], "max_years": 1}`, 400, "unknown benchmark"},
	{"faults without recovery", "/v1/lifetime",
		`{"benchmarks": ["crc32"], "max_years": 1, "faults": {}}`, 400, "requires Recovery"},
	{"empty batch", "/v1/batch", `{}`, 400, "no scenarios"},
	{"zero devices", "/v1/fleet", `{"base": {}}`, 400, "devices"},
	{"too many devices", "/v1/fleet", `{"devices": 1000000}`, 400, "limit"},
	{"oversize fabric", "/v1/lifetime", `{"rows": 100000, "cols": 100000}`, 400, "cells"},
	{"oversize epoch count", "/v1/lifetime", `{"epoch_years": 1e-6, "max_years": 1000}`, 400, "epochs"},
	{"oversize batch item", "/v1/batch",
		`{"scenarios": [{"benchmarks": ["crc32"], "max_years": 1}, {"rows": 2, "cols": 1000}]}`, 400, "cells"},
	{"oversize fleet combo", "/v1/fleet",
		`{"devices": 2, "base": {"benchmarks": ["crc32"], "epoch_years": 0.001, "max_years": 100}}`, 400, "epochs"},
	{"negative weight", "/v1/fleet",
		`{"devices": 2, "base": {}, "mixes": [{"weight": -1, "benchmarks": ["crc32"]}]}`, 400, "weight"},
	{"bad percentile", "/v1/fleet",
		`{"devices": 2, "base": {"benchmarks": ["crc32"], "max_years": 1}, "percentiles": [0]}`, 400, "percentile"},
	{"bad nth death", "/v1/fleet",
		`{"devices": 2, "base": {"benchmarks": ["crc32"], "max_years": 1}, "deaths": [0]}`, 400, "death"},
}

func TestClientErrorsAre4xxWithMessage(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for _, c := range clientErrorCases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, ts, c.path, c.body)
			if code != c.wantCode {
				t.Fatalf("got %d %s, want %d", code, body, c.wantCode)
			}
			var e errorBody
			if err := json.Unmarshal([]byte(body), &e); err != nil {
				t.Fatalf("error response is not JSON: %s", body)
			}
			if !strings.Contains(e.Error, c.wantMsg) {
				t.Fatalf("error %q does not mention %q", e.Error, c.wantMsg)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, body := get(t, ts, "/v1/lifetime")
	if code != http.StatusMethodNotAllowed || !strings.Contains(body, "error") {
		t.Fatalf("GET on POST endpoint: %d %s", code, body)
	}
	code, body = post(t, ts, "/v1/stats", "{}")
	if code != http.StatusMethodNotAllowed || !strings.Contains(body, "error") {
		t.Fatalf("POST on GET endpoint: %d %s", code, body)
	}
}

func TestBatchOrderAndDedup(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})
	body := fmt.Sprintf(`{"scenarios": [%s, %s, %s]}`,
		`{"name": "a", "rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2}`,
		`{"name": "b", "rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2, "allocator": "utilization-aware"}`,
		`{"name": "a", "rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2}`)
	code, out := post(t, ts, "/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, out)
	}
	var resp batchResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(resp.Results))
	}
	if resp.Results[0].Name != "a" || resp.Results[1].Name != "b" || resp.Results[2].Name != "a" {
		t.Fatalf("results out of order: %s / %s / %s",
			resp.Results[0].Name, resp.Results[1].Name, resp.Results[2].Name)
	}
	// Scenarios 0 and 2 are identical: the result store must have served
	// one of them.
	if st := s.results.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("batch dedupe: %+v", st)
	}
}

// fleetBody is a fleet over 2 mixes x 2 patterns = at most 4 combos.
const fleetBody = `{
  "devices": 200, "seed": 7,
  "base": {"rows": 2, "cols": 8, "max_years": 2},
  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"], "weight": 2}],
  "patterns": [{"pattern": "healthy"}, {"pattern": "column:0"}]
}`

func TestFleetDeterministicAcrossWorkerCountsAndRepeats(t *testing.T) {
	var bodies []string
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, Options{Workers: workers})
		code, first := post(t, ts, "/v1/fleet", fleetBody)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, code, first)
		}
		// Repeat on the now-warm server: stores must not leak into the body.
		code, second := post(t, ts, "/v1/fleet", fleetBody)
		if code != http.StatusOK {
			t.Fatalf("workers=%d repeat: %d %s", workers, code, second)
		}
		if first != second {
			t.Fatalf("workers=%d: warm repeat differs from cold response", workers)
		}
		bodies = append(bodies, first)
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("fleet response differs across worker counts:\n%s\n%s", bodies[0], bodies[1])
	}
}

func TestFleetResponseShape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	code, out := post(t, ts, "/v1/fleet", fleetBody)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, out)
	}
	var resp FleetResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Devices != 200 || resp.Seed != 7 {
		t.Fatalf("echo fields wrong: %+v", resp)
	}
	if resp.Combos < 2 || resp.Combos > 4 {
		t.Fatalf("2x2 distributions must draw 2..4 combos, got %d", resp.Combos)
	}
	if resp.Memo.Hits+resp.Memo.Misses != resp.Devices || resp.Memo.Misses != resp.Combos {
		t.Fatalf("request-scoped memo counters inconsistent: %+v", resp.Memo)
	}
	if len(resp.Deaths) != 1 || resp.Deaths[0].Nth != 1 || len(resp.Deaths[0].Percentiles) != 3 {
		t.Fatalf("default death curve wrong: %+v", resp.Deaths)
	}
	if len(resp.Throughput) != 3 {
		t.Fatalf("default throughput curve wrong: %+v", resp.Throughput)
	}
	for _, tv := range resp.Throughput {
		if tv.Speedup <= 0 {
			t.Fatalf("non-positive speedup percentile: %+v", tv)
		}
	}
	// The column:0 devices start with dead cells but the horizon is short:
	// percentile points must be either a finite year or flagged survived.
	for _, pv := range resp.Deaths[0].Percentiles {
		if !pv.Survived && pv.Years <= 0 {
			t.Fatalf("percentile neither survived nor a positive age: %+v", pv)
		}
	}
}

// TestFleetThousandDevicesHitRate pins the acceptance criterion: a
// 1000-device fleet over at most 32 distinct combos costs only the distinct
// simulations and reports a memo hit rate of at least 95%.
func TestFleetThousandDevicesHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet of 1000 devices in -short mode")
	}
	_, ts := newTestServer(t, Options{})
	body := `{
	  "devices": 1000, "seed": 3,
	  "base": {"rows": 2, "cols": 8, "max_years": 1},
	  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"]},
	            {"benchmarks": ["bitcount"]}, {"benchmarks": ["qsort"]}],
	  "profiles": [{"phases": [{"until_years": 1}]},
	               {"phases": [{"until_years": 0.5, "temperature_k": 350}, {"until_years": 1}]}],
	  "patterns": [{"pattern": "healthy"}, {"pattern": "column:0"},
	               {"pattern": "checkerboard"}, {"pattern": "survivor-row:0"}]
	}`
	code, out := post(t, ts, "/v1/fleet", body)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, out)
	}
	var resp FleetResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Combos > 32 {
		t.Fatalf("4x2x4 distributions drew %d combos, want <= 32", resp.Combos)
	}
	if resp.Memo.HitRate < 0.95 {
		t.Fatalf("memo hit rate %.3f < 0.95 (combos %d)", resp.Memo.HitRate, resp.Combos)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 0})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"scenarios": [`+fastScenario+`, `+fastScenario+`]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled batch: %d %s", rec.Code, rec.Body.String())
	}
	// The pool itself must still serve later requests.
	if err := s.fleetSmoke(); err != nil {
		t.Fatal(err)
	}
}

// fleetSmoke runs a minimal fleet query directly, bypassing HTTP.
func (s *Server) fleetSmoke() error {
	_, err := s.fleet(context.Background(), FleetRequest{
		Devices: 2,
		Base:    ScenarioRequest{Rows: 2, Cols: 8, Benchmarks: []string{"crc32"}, MaxYears: 1},
	})
	return err
}

func TestClosedServerReturns503(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, err := http.Post(ts.URL+"/v1/lifetime", "application/json", strings.NewReader(fastScenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed pool: %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 5})
	post(t, ts, "/v1/lifetime", fastScenario)
	for _, path := range []string{"/v1/stats", "/stats"} {
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
		var resp statsResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Results.Misses != 1 || resp.Pool.Workers != 2 || resp.Pool.QueueDepth != 5 {
			t.Fatalf("%s: unexpected stats %s", path, body)
		}
		if resp.Refs.Misses == 0 {
			t.Fatalf("%s: GPP reference memo never consulted: %s", path, body)
		}
	}
}

// TestHorizonExtensionSharesEpochs pins the cross-request epoch sharing:
// rerunning the same scenario with a longer horizon reuses the shorter
// run's epochs through the shared store instead of starting over.
func TestHorizonExtensionSharesEpochs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	if code, body := post(t, ts, "/v1/lifetime", fastScenario); code != http.StatusOK {
		t.Fatalf("short: %d %s", code, body)
	}
	longer := strings.Replace(fastScenario, `"max_years": 2`, `"max_years": 3`, 1)
	if code, body := post(t, ts, "/v1/lifetime", longer); code != http.StatusOK {
		t.Fatalf("long: %d %s", code, body)
	}
	if st := s.epochs.Stats(); st.Hits == 0 {
		t.Fatalf("horizon extension recomputed every epoch: %+v", st)
	}
}

func TestPoolClosedErrorMapsTo503AndCanceledTo499(t *testing.T) {
	if got := failStatus(context.Canceled); got != statusClientClosedRequest {
		t.Fatalf("canceled -> %d", got)
	}
	if got := failStatus(fmt.Errorf("wrapped: %w", errors.New("x"))); got != http.StatusBadRequest {
		t.Fatalf("generic -> %d", got)
	}
}

// profileFleet is a fleet over every (mix, pattern, temperature) combo of
// crc32/sha × {healthy, column:3} × the two given temperatures, on a 2x8
// fabric over a 2-year horizon.
func profileFleet(k1, k2 int) string {
	return fmt.Sprintf(`{
	  "devices": 64, "seed": 3,
	  "base": {"rows": 2, "cols": 8, "max_years": 2},
	  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"]}],
	  "profiles": [{"phases": [{"until_years": 2, "temperature_k": %d}]},
	               {"phases": [{"until_years": 2, "temperature_k": %d}]}],
	  "patterns": [{"pattern": "healthy"}, {"pattern": "column:3"}]
	}`, k1, k2)
}

// TestFleetSharesEpochsAcrossProfiles pins the epoch store's work counter:
// the fingerprint leaves out the operating point and the dead pattern, so
// a fleet's combos that differ only in temperature or pattern share every
// epoch whose fabric state they both reach. The exact miss count is a pure
// function of the body; a change that re-adds work fails here on any
// machine. The response must also not depend on what warmed the store:
// a server warmed by the same fleet at other temperatures answers with
// the cold server's bytes.
func TestFleetSharesEpochsAcrossProfiles(t *testing.T) {
	body := profileFleet(335, 365)
	s, ts := newTestServer(t, Options{Workers: 1})
	code, cold := post(t, ts, "/v1/fleet", body)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, cold)
	}
	var resp FleetResponse
	if err := json.Unmarshal([]byte(cold), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Combos != 8 {
		t.Fatalf("fleet drew %d combos, want all 8", resp.Combos)
	}
	if st := s.epochs.Stats(); st.Misses != 8 {
		t.Fatalf("epoch store: %d misses, want 8: %+v", st.Misses, st)
	}

	w, tsw := newTestServer(t, Options{Workers: 1})
	if code, out := post(t, tsw, "/v1/fleet", profileFleet(340, 360)); code != http.StatusOK {
		t.Fatalf("warm-up fleet: %d %s", code, out)
	}
	before := w.epochs.Stats().Hits
	code, warm := post(t, tsw, "/v1/fleet", body)
	if code != http.StatusOK {
		t.Fatalf("fleet on warm store: %d %s", code, warm)
	}
	if w.epochs.Stats().Hits == before {
		t.Fatal("fleet at new temperatures never hit the warmed epoch store")
	}
	if warm != cold {
		t.Fatalf("warm-store response differs from cold:\n%s\n%s", warm, cold)
	}
}
