package service

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden response bodies")

// matchGolden compares got byte for byte against testdata/name, or rewrites
// the golden when the test runs with -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response drifted from golden %s (regenerate deliberately with -update):\n%s", golden, got)
	}
}

// goldenFleets are the pinned /v1/fleet bodies: CI's smoke fleet, the
// same fleet under an explicit phase profile, a fault+recovery fleet
// (every device its own combo), and a fleet whose options alias: two
// dead patterns that normalize to a healthy fabric, two mixes with the
// same benchmarks and a zero weight.
var goldenFleets = []struct{ name, body string }{
	{"fleet-smoke", `{
	  "devices": 100, "seed": 3,
	  "base": {"rows": 2, "cols": 8, "max_years": 2},
	  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"]}],
	  "patterns": [{"pattern": "healthy"}, {"pattern": "column:0"}]
	}`},
	{"fleet-profile", `{
	  "devices": 100, "seed": 3,
	  "base": {"rows": 2, "cols": 8, "max_years": 2},
	  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"]}],
	  "patterns": [{"pattern": "healthy"}, {"pattern": "column:0"}],
	  "profiles": [{"phases": [{"until_years": 2, "temperature_k": 350}]}]
	}`},
	{"fleet-faults", `{
	  "devices": 50, "seed": 5,
	  "base": {"rows": 2, "cols": 8, "benchmarks": ["crc32"], "epoch_years": 1,
	           "max_years": 7, "faults": {}, "recovery": {}},
	  "patterns": [{"pattern": "healthy"}, {"pattern": "column:3"}],
	  "deaths": [1, 2]
	}`},
	{"fleet-alias", `{
	  "devices": 120, "seed": 9,
	  "base": {"rows": 2, "cols": 8, "allocator": "utilization-aware", "max_years": 6},
	  "mixes": [{"benchmarks": ["crc32"]}, {"benchmarks": ["sha"], "weight": 0},
	            {"benchmarks": ["crc32"], "weight": 2}],
	  "patterns": [{"pattern": "healthy"}, {"pattern": "none", "weight": 0.5},
	               {"pattern": "column:0"}],
	  "percentiles": [0.001, 25, 50, 100],
	  "deaths": [1, 3]
	}`},
}

// TestFleetGolden pins every goldenFleets body, cold then warm, on a
// serial server and on one with the default worker count: all four
// responses must equal the one golden.
func TestFleetGolden(t *testing.T) {
	for _, g := range goldenFleets {
		t.Run(g.name, func(t *testing.T) {
			var first string
			for _, workers := range []int{1, 0} {
				_, ts := newTestServer(t, Options{Workers: workers})
				for _, temp := range []string{"cold", "warm"} {
					code, body := post(t, ts, "/v1/fleet", g.body)
					if code != http.StatusOK {
						t.Fatalf("workers=%d %s: %d %s", workers, temp, code, body)
					}
					if first == "" {
						first = body
						matchGolden(t, g.name+".json.golden", []byte(body))
					} else if body != first {
						t.Fatalf("workers=%d %s: response differs from the first", workers, temp)
					}
				}
			}
		})
	}
}
