package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agingcgra"
)

// fuzzBudget bounds the simulation work one fuzzed body may ask of an
// endpoint, in cell-epochs summed over each run's workload mix. The
// per-scenario limits still admit runs of tens of seconds (a fine shape
// ladder over 10000 epochs, say), which would stall the fuzzer, so a body
// that decodes to more work than this is not sent to that endpoint; bodies
// that fail to decode always are.
const fuzzBudget = 2048

// FuzzServiceRequest sends arbitrary bodies to every scenario endpoint and
// checks the HTTP boundary's contract: each request is answered 200 or 400,
// never 500; every non-2xx body is a JSON object with a non-empty "error";
// a stream's last line is its result or error; and /healthz still answers
// 200 afterwards.
func FuzzServiceRequest(f *testing.F) {
	for _, c := range clientErrorCases {
		f.Add(c.body)
	}
	for _, body := range []string{
		fastScenario,
		`{"scenarios": [` + fastScenario + `, {"benchmarks": ["crc32"], "max_years": 1, "size": "tiny"}]}`,
		`{"devices": 100, "seed": 3, "base": {"rows": 2, "cols": 8, "max_years": 2},
		  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"]}],
		  "patterns": [{"pattern": "healthy"}, {"pattern": "column:0"}]}`,
		`{"size": 1, "benchmarks": ["crc32"], "max_years": 1}`,
		`{"size": "", "benchmarks": ["crc32"], "max_years": 1}`,
		`{"size": "jumbo", "benchmarks": ["crc32"], "max_years": 1}`,
		`{"allocator": "utilization-aware", "benchmarks": ["crc32"], "max_years": 2, "dead_pattern": "column:0",
		  "profile": [{"until_years": 1, "temperature_k": 350}, {"until_years": 2}]}`,
		`{"allocator": "remap", "shape_translations": true, "shape_ladder": "fine", "rows": 2, "cols": 8,
		  "benchmarks": ["crc32"], "max_years": 2, "dead_pattern": "columns:0+4"}`,
		`{"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 2, "seed": 7, "faults": {}, "recovery": {}}`,
	} {
		f.Add(body)
	}
	s := New(Options{Workers: 1, MemoEntries: 64})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/lifetime", "/v1/batch", "/v1/fleet", "/v1/lifetime/stream"} {
			if fuzzWork(path, body) > fuzzBudget {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			checkFuzzResponse(t, path, body, rec)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz after %q: %d %s", body, rec.Code, rec.Body)
		}
	})
}

// checkFuzzResponse asserts one response's contract.
func checkFuzzResponse(t *testing.T, path, body string, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch {
	case rec.Code == http.StatusOK:
		if path != "/v1/lifetime/stream" {
			return
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		var last struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil ||
			(last.Kind != "result" && last.Kind != "error") {
			t.Fatalf("%s %q: stream ends on %q", path, body, lines[len(lines)-1])
		}
		return
	case rec.Code == http.StatusBadRequest:
	default:
		t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
	}
	var e map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%s %q: error body is not a JSON object: %s", path, body, rec.Body)
	}
	if msg, _ := e["error"].(string); msg == "" {
		t.Fatalf("%s %q: error body has no message: %s", path, body, rec.Body)
	}
}

// fuzzWork estimates the work body asks of the endpoint at path, decoding
// it exactly as the handler does; a body that fails to decode, or that
// checkWork rejects, costs nothing.
func fuzzWork(path, body string) float64 {
	scenario := func(r ScenarioRequest) float64 {
		if checkWork(r) != nil {
			return 0
		}
		n := normalized(r)
		if n.Size != agingcgra.Tiny {
			return math.Inf(1)
		}
		return float64(n.Rows*n.Cols) * math.Ceil(n.MaxYears/n.EpochYears) * float64(len(n.Benchmarks))
	}
	decode := func(v any) bool {
		return decodeBody(httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)), v) == nil
	}
	var work float64
	switch path {
	case "/v1/batch":
		var b batchRequest
		if !decode(&b) {
			return 0
		}
		for _, r := range b.Scenarios {
			work += scenario(r)
		}
	case "/v1/fleet":
		var fr FleetRequest
		if !decode(&fr) {
			return 0
		}
		combos := max(1, len(fr.Mixes)) * max(1, len(fr.Profiles)) * max(1, len(fr.Patterns))
		if fr.Base.Faults != nil || fr.Base.Recovery != nil {
			combos = fr.Devices // every device draws its own fault seed
		}
		if len(fr.Mixes) == 0 {
			work = scenario(fr.Base)
		}
		for _, m := range fr.Mixes {
			r := fr.Base
			r.Benchmarks = m.Benchmarks
			work = max(work, scenario(r))
		}
		work *= float64(min(combos, fr.Devices))
	default:
		var r ScenarioRequest
		if !decode(&r) {
			return 0
		}
		work = scenario(r)
	}
	return work
}
