package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// report is the full record of one workload run, written by -o and read
// back by -compare: the environment it ran in, the sample counts behind
// its numbers, and the metrics.
type report struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	SetupRuns  int     `json:"setup_runs"`
	Samples    int     `json:"samples"`
	// RefMS is the median reference time of the timed pass. Reported
	// times are scaled by refNominalMS/RefMS; its inverse recovers the
	// wall-clock readings.
	RefMS     float64  `json:"ref_ms"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []value  `json:"metrics"`
}

func newReport(w workload, o options) *report {
	return &report{
		Schema:     "agingcgra-perfbench/v1",
		Workload:   w.name,
		Seed:       o.seed,
		Traced:     o.traced,
		Seconds:    o.seconds,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Clients:    w.clients,
		SetupRuns:  o.setupRuns,
	}
}

func loadReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// envMismatches lists the environment fields on which two reports
// disagree. Timings from a different core count, GOMAXPROCS schedule or
// toolchain are not comparable, so -compare refuses them unless
// -allow-env-mismatch. A zero field (a hand-written or truncated report)
// disagrees with everything: it cannot vouch for its environment.
func envMismatches(base, cur *report) []string {
	var ms []string
	if base.NumCPU != cur.NumCPU || base.NumCPU == 0 {
		ms = append(ms, fmt.Sprintf("num_cpu: baseline %d, current %d", base.NumCPU, cur.NumCPU))
	}
	if base.GoMaxProcs != cur.GoMaxProcs || base.GoMaxProcs == 0 {
		ms = append(ms, fmt.Sprintf("gomaxprocs: baseline %d, current %d", base.GoMaxProcs, cur.GoMaxProcs))
	}
	if base.GoVersion != cur.GoVersion {
		ms = append(ms, fmt.Sprintf("go_version: baseline %q, current %q", base.GoVersion, cur.GoVersion))
	}
	return ms
}

// compareReports prints every declared metric of the two reports and
// reports whether any end-to-end metric regressed beyond its bound. A
// metric missing from the current report, or reading zero on either side,
// fails: a dropped or broken measurement must not pass the gate. Per-layer
// metrics have no bound; they are printed for reading only.
func compareReports(w io.Writer, base, cur *report) (failed bool) {
	decl := endToEnd
	if cur.Traced {
		decl = perLayer
	}
	byName := func(r *report) map[string]float64 {
		m := make(map[string]float64, len(r.Metrics))
		for _, v := range r.Metrics {
			m[v.Name] = v.Value
		}
		return m
	}
	b, c := byName(base), byName(cur)
	fmt.Fprintf(w, "%-28s %14s %14s %9s %7s\n", "metric", "baseline", "current", "delta", "bound")
	for _, m := range decl {
		bv, bok := b[m.Name]
		cv, cok := c[m.Name]
		verdict := ""
		switch {
		case !bok || !cok:
			verdict = "missing"
		case bv != 0:
			verdict = fmt.Sprintf("%+.1f%%", 100*(cv/bv-1))
		}
		if m.Bound > 0 {
			switch {
			case !bok || !cok:
				verdict += " FAIL"
				failed = true
			case bv <= 0 || cv <= 0:
				verdict += " zero FAIL"
				failed = true
			default:
				regression := 1 - cv/bv
				if m.Better == "lower" {
					regression = cv/bv - 1
				}
				// The tolerance absorbs float rounding at exactly the bound.
				if regression > m.Bound+1e-9 {
					verdict += " FAIL"
					failed = true
				}
			}
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %9s %7.2f\n", m.Name, bv, cv, verdict, m.Bound)
	}
	return failed
}
