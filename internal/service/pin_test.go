package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenScenarios are the pinned single-scenario bodies: one /v1/lifetime
// query, a /v1/batch with a repeated item, a fault+recovery item and an
// explicit profile, and one /v1/lifetime/stream NDJSON run.
var goldenScenarios = []struct{ name, path, body string }{
	{"lifetime", "/v1/lifetime", `{
	  "rows": 2, "cols": 8, "allocator": "utilization-aware",
	  "benchmarks": ["crc32", "sha"], "dead_pattern": "column:3", "max_years": 3
	}`},
	{"batch", "/v1/batch", `{"scenarios": [
	  {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2},
	  {"rows": 2, "cols": 8, "benchmarks": ["sha"], "max_years": 2,
	   "profile": [{"until_years": 1}, {"until_years": 2, "temperature_k": 350}]},
	  {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "epoch_years": 1, "max_years": 3,
	   "faults": {}, "recovery": {}},
	  {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2}
	]}`},
	{"stream", "/v1/lifetime/stream", `{
	  "rows": 2, "cols": 8, "benchmarks": ["crc32"], "dead_pattern": "column:0", "max_years": 2
	}`},
}

// TestScenarioGolden pins every goldenScenarios body, cold then warm, on
// a serial server and on one with the default worker count: all four
// responses must equal the one golden.
func TestScenarioGolden(t *testing.T) {
	for _, g := range goldenScenarios {
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				_, ts := newTestServer(t, Options{Workers: workers})
				for _, temp := range []string{"cold", "warm"} {
					code, body := post(t, ts, g.path, g.body)
					if code != http.StatusOK {
						t.Fatalf("workers=%d %s: %d %s", workers, temp, code, body)
					}
					matchGolden(t, g.name+".golden", []byte(body))
				}
			}
		})
	}
}

// failingFleet draws two combos that both fail: combo 0 names an unknown
// benchmark, which only lifetime.Run rejects, and combo 1 also has an
// unknown dead pattern, which scenario validation rejects.
const failingFleet = `{
  "devices": 20, "seed": 5,
  "base": {"rows": 2, "cols": 8, "max_years": 2},
  "mixes": [{"benchmarks": ["nosuch"]}],
  "patterns": [{"pattern": "healthy"}, {"pattern": "bogus"}]
}`

// vddTwin is a fleet whose base sets no supply voltage; vddAlias is the
// same fleet with an out-of-range Vdd. The profile overrides the constant
// operating point, so both normalize to one fingerprint, yet vddAlias
// must still be rejected when vddTwin's combo is in the result store.
const (
	vddTwin = `{
	  "devices": 10,
	  "base": {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2},
	  "profiles": [{"phases": [{"until_years": 2, "temperature_k": 350}]}]
	}`
	vddAlias = `{
	  "devices": 10,
	  "base": {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2, "vdd": 5},
	  "profiles": [{"phases": [{"until_years": 2, "temperature_k": 350}]}]
	}`
)

// statusBody renders one response as its status code and body.
func statusBody(code int, body string) []byte {
	return []byte(fmt.Sprintf("%d %s", code, body))
}

// TestFleetErrorGolden pins the status and body of failing fleets, cold
// then warm, at both worker counts: the lowest-index combo's error wins
// whether it comes from the run or from validation, and validation
// answers before the result store does.
func TestFleetErrorGolden(t *testing.T) {
	t.Run("run-and-validation", func(t *testing.T) {
		for _, workers := range []int{1, 0} {
			_, ts := newTestServer(t, Options{Workers: workers})
			for range []string{"cold", "warm"} {
				code, body := post(t, ts, "/v1/fleet", failingFleet)
				matchGolden(t, "fleet-error-run.golden", statusBody(code, body))
			}
		}
	})
	t.Run("vdd-alias", func(t *testing.T) {
		for _, workers := range []int{1, 0} {
			_, ts := newTestServer(t, Options{Workers: workers})
			for _, temp := range []string{"cold", "warm"} {
				if code, body := post(t, ts, "/v1/fleet", vddTwin); code != http.StatusOK {
					t.Fatalf("workers=%d %s twin: %d %s", workers, temp, code, body)
				}
				code, body := post(t, ts, "/v1/fleet", vddAlias)
				matchGolden(t, "fleet-error-vdd.golden", statusBody(code, body))
			}
		}
	})
}

// storeStats is the cumulative part of /v1/stats: every store's
// counters, without the pool shape.
func storeStats(s *Server) statsResponse {
	return statsResponse{Results: s.results.Stats(), Epochs: s.epochs.Stats(), Refs: s.refs.Stats()}
}

// counters renders storeStats as JSON.
func counters(s *Server) string {
	b, err := json.Marshal(storeStats(s))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// serveFleet sends body to /v1/fleet through the handler under ctx.
func serveFleet(s *Server, ctx context.Context, body string) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/fleet", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestFleetCanceledAndClosed pins a fleet sent with a canceled context
// (499) and to a closed server (503), both on a cold server and on one
// that already holds every combo. Neither request touches a store
// counter.
func TestFleetCanceledAndClosed(t *testing.T) {
	body := goldenFleets[0].body
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, warm := range []bool{false, true} {
		for _, workers := range []int{1, 0} {
			s := New(Options{Workers: workers})
			if warm {
				if code, out := serveFleet(s, context.Background(), body); code != http.StatusOK {
					t.Fatalf("warm-up: %d %s", code, out)
				}
			}
			before := counters(s)
			code, out := serveFleet(s, canceled, body)
			matchGolden(t, "fleet-canceled.golden", statusBody(code, out))
			s.Close()
			code, out = serveFleet(s, context.Background(), body)
			matchGolden(t, "fleet-closed.golden", statusBody(code, out))
			if after := counters(s); after != before {
				t.Errorf("warm=%v workers=%d: counters moved:\n%s\n%s", warm, workers, before, after)
			}
		}
	}
}

// TestFleetStoreCounters pins the store counters a cold fleet leaves, at
// both worker counts, and checks that the same fleet sent again adds
// exactly its combo count to the result store's hits and nothing else.
func TestFleetStoreCounters(t *testing.T) {
	for _, g := range goldenFleets {
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				s, ts := newTestServer(t, Options{Workers: workers})
				code, body := post(t, ts, "/v1/fleet", g.body)
				if code != http.StatusOK {
					t.Fatalf("cold: %d %s", code, body)
				}
				cold := storeStats(s)
				matchGolden(t, g.name+".stats.golden", []byte(counters(s)))
				var resp FleetResponse
				if err := json.Unmarshal([]byte(body), &resp); err != nil {
					t.Fatal(err)
				}
				if code, body := post(t, ts, "/v1/fleet", g.body); code != http.StatusOK {
					t.Fatalf("warm: %d %s", code, body)
				}
				want := cold
				want.Results.Hits += uint64(resp.Combos)
				if got := storeStats(s); got != want {
					t.Errorf("workers=%d: warm fleet moved the counters\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}
