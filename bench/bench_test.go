package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON holds the workloads and metrics this
// package runs and prints equal to the ones BENCHMARK.json declares, and
// the declarations inside the file format's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, package {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, package %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %+v, package %+v", b.PerLayer, perLayer)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.name)
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %+v: outside the format's limits or repeated", m)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || m == metric{"setup_s", "s", "lower", m.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
}

// TestSmoke runs every workload at reduced scale, untraced and traced, at
// seed 1 (so the committed digests are checked too): no op may fail, the
// traced outputs must equal the untraced ones, and the printed metrics must
// be the declared ones.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ops := map[string]int{"fleet-cold": 5, "fleet-warm": 20}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			n := ops[w.name]
			if n == 0 {
				n = 3
			}
			o := options{seed: 1, traced: traced, ops: n, setupRuns: 1, probeReps: 1, digests: "testdata/digests.json"}
			rep, recs, err := measure(w, o)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || len(recs) != n {
				t.Errorf("%s traced=%t: correct=%t failed=%d ops=%d, problems %v",
					w.name, traced, rep.Correct, rep.Failed, len(recs), rep.Problems)
			}
			decl := endToEnd
			if traced {
				decl = perLayer
			}
			var got, want []string
			for _, v := range rep.Metrics {
				got = append(got, v.Name)
			}
			for _, m := range decl {
				want = append(want, m.Name)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%t: printed %v, declared %v", w.name, traced, got, want)
			}
		}
	}
}

func TestCompareReports(t *testing.T) {
	report := func(vals map[string]float64) *report {
		r := &report{}
		for _, m := range endToEnd {
			if v, ok := vals[m.Name]; ok {
				r.Metrics = append(r.Metrics, value{Name: m.Name, Unit: m.Unit, Value: v})
			}
		}
		return r
	}
	bound := func(name string) float64 {
		for _, m := range endToEnd {
			if m.Name == name {
				return m.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	base := map[string]float64{"setup_s": 1, "op_p50_ms": 100, "op_p90_ms": 200, "ops_per_s": 10, "alloc_kib_per_op": 1000}
	with := func(name string, v float64) map[string]float64 {
		m := make(map[string]float64, len(base))
		for k, x := range base {
			m[k] = x
		}
		if v < 0 {
			delete(m, name)
		} else {
			m[name] = v
		}
		return m
	}
	for _, tc := range []struct {
		name string
		cur  map[string]float64
		fail bool
	}{
		{"identical", base, false},
		{"missing gated metric", with("op_p90_ms", -1), true},
		{"zero metric", with("ops_per_s", 0), true},
		{"lower-is-better at its bound", with("op_p50_ms", 100*(1+bound("op_p50_ms"))), false},
		{"lower-is-better past its bound", with("op_p50_ms", 100*(1+bound("op_p50_ms"))+1), true},
		{"lower-is-better improving", with("op_p50_ms", 50), false},
		{"higher-is-better at its bound", with("ops_per_s", 10*(1-bound("ops_per_s"))), false},
		{"higher-is-better past its bound", with("ops_per_s", 10*(1-bound("ops_per_s"))-0.1), true},
		{"higher-is-better improving", with("ops_per_s", 20), false},
	} {
		if got := compareReports(io.Discard, report(base), report(tc.cur)); got != tc.fail {
			t.Errorf("%s: failed=%t, want %t", tc.name, got, tc.fail)
		}
	}
}

func TestEnvMismatches(t *testing.T) {
	env := report{NumCPU: 2, GoMaxProcs: 2, GoVersion: "go1.24.0"}
	for _, tc := range []struct {
		name string
		edit func(*report)
		want int
	}{
		{"same environment", func(*report) {}, 0},
		{"num_cpu", func(r *report) { r.NumCPU = 8 }, 1},
		{"gomaxprocs", func(r *report) { r.GoMaxProcs = 1 }, 1},
		{"gomaxprocs of 0", func(r *report) { r.GoMaxProcs = 0 }, 1},
		{"go_version", func(r *report) { r.GoVersion = "go1.25.0" }, 1},
		{"all three", func(r *report) { r.NumCPU, r.GoMaxProcs, r.GoVersion = 1, 1, "" }, 3},
	} {
		base, cur := env, env
		tc.edit(&base)
		if got := envMismatches(&base, &cur); len(got) != tc.want {
			t.Errorf("%s baseline: %v, want %d mismatches", tc.name, got, tc.want)
		}
		if got := envMismatches(&cur, &base); len(got) != tc.want {
			t.Errorf("%s current: %v, want %d mismatches", tc.name, got, tc.want)
		}
	}
}

// TestStratified pins the input generator's contract: each round of k ops
// holds every value once, and the order is a pure function of the seed.
func TestStratified(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		for round := 0; round < 4; round++ {
			seen := make([]bool, 8)
			for pos := 0; pos < 8; pos++ {
				v := stratified(seed, streamColumn, round*8+pos, 8)
				if seen[v] {
					t.Fatalf("seed %d round %d repeats %d", seed, round, v)
				}
				seen[v] = true
				if again := stratified(seed, streamColumn, round*8+pos, 8); again != v {
					t.Fatalf("seed %d op %d drew %d then %d", seed, round*8+pos, v, again)
				}
			}
		}
	}
}
