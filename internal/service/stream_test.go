package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// streamBody POSTs the scenario to /v1/lifetime/stream and returns the
// status code and full body.
func streamBody(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	return post(t, ts, "/v1/lifetime/stream", body)
}

// parseLines splits an NDJSON body and unmarshals each line's kind.
func parseLines(t *testing.T, body string) (kinds []string, lines []string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("non-JSON stream line %q: %v", line, err)
		}
		kinds = append(kinds, probe.Kind)
		lines = append(lines, line)
	}
	return kinds, lines
}

func TestStreamHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, body := streamBody(t, ts, fastScenario)
	if code != http.StatusOK {
		t.Fatalf("stream: %d %s", code, body)
	}
	kinds, lines := parseLines(t, body)

	epochs, snapshots := 0, 0
	for _, k := range kinds {
		switch k {
		case "epoch":
			epochs++
		case "snapshot":
			snapshots++
		}
	}
	if epochs != 4 || snapshots != 4 {
		t.Fatalf("want 4 epoch + 4 snapshot events, got %d + %d (kinds %v)", epochs, snapshots, kinds)
	}
	if kinds[len(kinds)-1] != "result" {
		t.Fatalf("last line should be the terminal result, got %q", kinds[len(kinds)-1])
	}

	// The terminal result must be byte-identical to the non-streaming
	// endpoint's result for the same scenario: tracing is observation-only.
	var terminal struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil {
		t.Fatal(err)
	}
	_, plain := post(t, ts, "/v1/lifetime", fastScenario)
	var plainResp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(plain), &plainResp); err != nil {
		t.Fatal(err)
	}
	if string(terminal.Result) != string(plainResp.Result) {
		t.Fatal("streamed terminal result differs from /v1/lifetime result")
	}
}

// TestStreamDeterminism pins the endpoint's contract: byte-identical
// NDJSON at any worker count and any epoch-store temperature — including
// the events re-emitted from memo-replayed epochs, and regardless of a
// warm result store (the stream bypasses it, so events never disappear
// behind a result-store hit).
func TestStreamDeterminism(t *testing.T) {
	// Cold server, serial pool.
	_, serial := newTestServer(t, Options{Workers: 1})
	_, cold := streamBody(t, serial, fastScenario)

	// Same server again: epoch store is now warm.
	_, warm := streamBody(t, serial, fastScenario)
	if cold != warm {
		t.Fatal("warm epoch store changed the stream bytes")
	}

	// Fresh server with a parallel pool and a result store pre-warmed by
	// the non-streaming endpoint.
	_, parallel := newTestServer(t, Options{Workers: 8})
	post(t, parallel, "/v1/lifetime", fastScenario)
	_, par := streamBody(t, parallel, fastScenario)
	if cold != par {
		t.Fatal("parallel pool / warm result store changed the stream bytes")
	}
}

func TestStreamClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, body string
		wantMsg    string
	}{
		{"malformed JSON", `{not json`, "decoding request"},
		{"unknown allocator", `{"allocator": "bogus"}`, "unknown allocator"},
		{"unknown benchmark", `{"benchmarks": ["doom"], "max_years": 1}`, "unknown benchmark"},
		{"oversize epoch count", `{"epoch_years": 1e-6, "max_years": 1000}`, "epochs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := streamBody(t, ts, tc.body)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.wantMsg) {
				t.Fatalf("want 400 with %q, got %d %s", tc.wantMsg, code, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("pre-stream failure should be a plain JSON error: %s", body)
			}
		})
	}
}

func TestStreamMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, body := get(t, ts, "/v1/lifetime/stream")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET on stream: %d %s", code, body)
	}
}

// TestStreamCancelMidStreamKeepsServing disconnects a streaming client
// after the first line and verifies the server — whose worker finishes
// the run against the dead connection — keeps serving requests.
func TestStreamCancelMidStreamKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/lifetime/stream",
		strings.NewReader(`{"rows": 2, "cols": 8, "benchmarks": ["crc32"], "max_years": 15}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	cancel()
	resp.Body.Close()

	code, body := post(t, ts, "/v1/lifetime", fastScenario)
	if code != http.StatusOK {
		t.Fatalf("server stopped serving after canceled stream: %d %s", code, body)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed after canceled stream")
	}
}
