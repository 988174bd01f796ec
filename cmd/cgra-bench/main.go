// cgra-bench measures the simulator's performance-critical paths — raw
// co-simulation throughput, the Fig. 6 design-space sweep and the lifetime
// engine's epoch loop — and emits a machine-readable JSON report so
// successive commits can be compared (the BENCH_results.json trajectory in
// CI).
//
// The -compare mode turns the trajectory into a regression gate: measured
// (or -replay'ed) results are checked against a committed baseline and the
// command exits non-zero when engine ns/op or lifetime epochs_per_sec
// regress by more than -compare-threshold (default 25%).
//
// Usage:
//
//	cgra-bench                       # default: 5 engine iters, tiny sweep
//	cgra-bench -o BENCH_results.json -size small -iters 10 -full-sweep
//	cgra-bench -compare BENCH_baseline.json            # measure, then gate
//	cgra-bench -replay BENCH_results.json -compare BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"agingcgra"
)

// Result is one measured benchmark in the report.
type Result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
	EpochsPerSec float64 `json:"epochs_per_sec,omitempty"`
	SpeedupVs    string  `json:"speedup_vs,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
}

// Report is the full emitted document. NumCPU and GoMaxProcs are recorded
// separately because they gate different things: NumCPU is the machine,
// GOMAXPROCS is the schedule the parallel paths actually ran under (a
// 64-core runner with GOMAXPROCS=1 benches like a single-core box).
type Report struct {
	Schema     string   `json:"schema"`
	Timestamp  string   `json:"timestamp"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Size       string   `json:"workload_size"`
	Results    []Result `json:"results"`
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output path ('-' for stdout only)")
	size := agingcgra.Tiny
	flag.TextVar(&size, "size", size, "workload size: tiny, small, large")
	iters := flag.Int("iters", 5, "engine-throughput iterations")
	fullSweep := flag.Bool("full-sweep", false, "run the sweep at the chosen size (default sweeps tiny)")
	compare := flag.String("compare", "", "baseline report to gate against; exits 1 on regression")
	threshold := flag.Float64("compare-threshold", 0.25, "maximum tolerated fractional regression")
	replay := flag.String("replay", "", "gate an existing results file instead of re-measuring")
	allowEnvMismatch := flag.Bool("allow-env-mismatch", false,
		"compare across differing num_cpu/gomaxprocs/workload_size instead of failing")
	flag.Parse()

	var rep Report
	if *replay != "" {
		if *compare == "" {
			fatal(fmt.Errorf("-replay only makes sense with -compare (nothing to gate against)"))
		}
		r, err := loadReport(*replay)
		if err != nil {
			fatal(err)
		}
		rep = r
	} else {
		if *iters < 1 {
			fatal(fmt.Errorf("-iters %d: need at least one iteration", *iters))
		}

		rep = Report{
			Schema:     "agingcgra-bench/v1",
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Size:       size.String(),
		}

		engine, err := benchEngineThroughput(size, *iters)
		if err != nil {
			fatal(err)
		}
		rep.Results = append(rep.Results, engine)

		sweepSize := agingcgra.Tiny
		if *fullSweep {
			sweepSize = size
		}
		serial, parallel, err := benchFig6Sweep(sweepSize)
		if err != nil {
			fatal(err)
		}
		rep.Results = append(rep.Results, serial, parallel)

		// The lifetime scenarios run as one batch each and the facade
		// memoizes the stand-alone GPP reference process-wide, so the
		// reference co-simulation is computed once for all of them (and for
		// the warm-up), not once per allocator. The shapedbt scenario is the
		// translation-time shape search on the remap allocator — the
		// translation hot path with the ladder scan on the clock. The
		// dead-column snake entry starts with a failed column, so the
		// controller's dead-pivot skip walk runs from the first epoch.
		for _, lc := range []struct {
			cfg   agingcgra.LifetimeConfig
			label string
		}{
			{agingcgra.LifetimeConfig{Allocator: "utilization-aware"}, "Lifetime/BE-snake-crc32-20y"},
			{agingcgra.LifetimeConfig{Allocator: "utilization-aware", DeadPattern: "column:5"}, "Lifetime/BE-snake-deadcol-crc32-20y"},
			{agingcgra.LifetimeConfig{Allocator: "explore"}, "Lifetime/BE-explore-crc32-20y"},
			{agingcgra.LifetimeConfig{Allocator: "remap"}, "Lifetime/BE-remap-crc32-20y"},
			{agingcgra.LifetimeConfig{Allocator: "remap", ShapeTranslations: true}, "Lifetime/BE-shapedbt-crc32-20y"},
		} {
			life, err := benchLifetimeScenario(lc.cfg, lc.label)
			if err != nil {
				fatal(err)
			}
			rep.Results = append(rep.Results, life)
		}

		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
		if *out != "-" {
			if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		}
	}

	if *compare != "" {
		base, err := loadReport(*compare)
		if err != nil {
			fatal(err)
		}
		if mismatches := envMismatches(base, rep); len(mismatches) > 0 {
			for _, m := range mismatches {
				fmt.Fprintln(os.Stderr, "cgra-bench: environment mismatch:", m)
			}
			if !*allowEnvMismatch {
				fmt.Fprintln(os.Stderr, "cgra-bench: refusing to gate across differing environments"+
					" (timings are not comparable); re-baseline on this runner or pass -allow-env-mismatch")
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "cgra-bench: -allow-env-mismatch set, comparing anyway")
		}
		if failed := compareReports(base, rep, *threshold); failed {
			fmt.Fprintf(os.Stderr, "cgra-bench: regression beyond %.0f%% against %s\n",
				100**threshold, *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cgra-bench: no regression beyond %.0f%% against %s\n",
			100**threshold, *compare)
	}
}

// loadReport reads a previously emitted BENCH json document.
func loadReport(path string) (Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// envMismatches lists the environment fields on which the two reports
// disagree. A baseline measured on a different core count, GOMAXPROCS
// schedule or workload size gates nothing meaningful — a 25% threshold is
// easily dwarfed by either difference — so -compare fails on any mismatch
// unless -allow-env-mismatch. GoMaxProcs is only checked when both reports
// carry it: baselines emitted before the field existed decode as zero and
// must stay comparable.
func envMismatches(base, cur Report) []string {
	var ms []string
	if base.NumCPU != cur.NumCPU {
		ms = append(ms, fmt.Sprintf("num_cpu: baseline %d, current %d", base.NumCPU, cur.NumCPU))
	}
	if base.GoMaxProcs != 0 && cur.GoMaxProcs != 0 && base.GoMaxProcs != cur.GoMaxProcs {
		ms = append(ms, fmt.Sprintf("gomaxprocs: baseline %d, current %d", base.GoMaxProcs, cur.GoMaxProcs))
	}
	if base.Size != cur.Size {
		ms = append(ms, fmt.Sprintf("workload_size: baseline %q, current %q", base.Size, cur.Size))
	}
	return ms
}

// compareReports gates the two regression-sensitive metric families: engine
// throughput (ns/op, higher is worse) and lifetime simulation rate
// (epochs_per_sec, lower is worse). Sweep wall-clock results are reported
// but not gated — they scale with the runner's core count, which the
// baseline cannot pin. A gated baseline entry missing from the current
// report counts as a failure: silently dropping a benchmark must not
// disarm the gate.
func compareReports(base, cur Report, threshold float64) (failed bool) {
	byName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		byName[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "%-36s %-14s %14s %14s %9s\n",
		"benchmark", "metric", "baseline", "current", "delta")
	for _, b := range base.Results {
		var metric string
		var baseVal, curVal float64
		lowerIsBetter := false
		c, ok := byName[b.Name]
		switch {
		case strings.HasPrefix(b.Name, "EngineThroughput"):
			metric, lowerIsBetter = "ns/op", true
			baseVal, curVal = b.NsPerOp, c.NsPerOp
		case strings.HasPrefix(b.Name, "Lifetime"):
			metric = "epochs/sec"
			baseVal, curVal = b.EpochsPerSec, c.EpochsPerSec
		default:
			continue // un-gated family (sweep wall clock)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "%-36s %-14s %14.1f %14s %9s\n",
				b.Name, metric, baseVal, "missing", "FAIL")
			failed = true
			continue
		}
		// A gated metric reading zero on either side is broken measurement
		// or a schema drift, not a 100% improvement; like a missing entry,
		// it must not disarm the gate.
		if baseVal <= 0 || curVal <= 0 {
			fmt.Fprintf(os.Stderr, "%-36s %-14s %14.1f %14.1f %9s\n",
				b.Name, metric, baseVal, curVal, "zero FAIL")
			failed = true
			continue
		}
		// delta is the raw relative change; the regression is the change in
		// the metric's bad direction.
		delta := curVal/baseVal - 1
		regression := -delta
		if lowerIsBetter {
			regression = delta
		}
		verdict := fmt.Sprintf("%+.1f%%", 100*delta)
		if regression > threshold {
			verdict += " FAIL"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-36s %-14s %14.1f %14.1f %9s\n",
			b.Name, metric, baseVal, curVal, verdict)
	}
	return failed
}

// benchEngineThroughput mirrors BenchmarkEngineThroughput: repeated crc32
// co-simulation on the BE design with the utilization-aware allocator.
func benchEngineThroughput(size agingcgra.Size, iters int) (Result, error) {
	s, err := agingcgra.NewSystem(agingcgra.Config{Allocator: "utilization-aware"})
	if err != nil {
		return Result{}, err
	}
	// Warm-up outside the timed region: assembles the kernel and memoizes
	// the GPP reference, as the steady state of a long-lived System.
	if _, err := s.RunBenchmark("crc32", size); err != nil {
		return Result{}, err
	}
	// Each iteration runs the identical deterministic workload, so the
	// fastest one is the least-perturbed measurement; reporting the minimum
	// (instead of the mean) keeps the -compare gate from tripping on
	// scheduler noise spikes, which on shared CI runners easily exceed the
	// regression threshold for mean-of-few-iterations timings.
	var instrs uint64
	best := time.Duration(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		res, err := s.RunBenchmark("crc32", size)
		if err != nil {
			return Result{}, err
		}
		if elapsed := time.Since(start); elapsed < best {
			best = elapsed
			instrs = res.Report.TotalInstrs
		}
	}
	return Result{
		Name:         "EngineThroughput/crc32",
		Iterations:   iters,
		NsPerOp:      float64(best.Nanoseconds()),
		InstrsPerSec: float64(instrs) / best.Seconds(),
	}, nil
}

// benchFig6Sweep times the 12-point design-space exploration serially and
// with the worker pool, reporting the parallel speedup.
func benchFig6Sweep(size agingcgra.Size) (serial, parallel Result, err error) {
	// Untimed warm-up so the one-time benchmark assembly cost doesn't land
	// on whichever timed run goes first and bias the speedup.
	if _, err := timeFig6(size, 1); err != nil {
		return Result{}, Result{}, err
	}
	time1, err := timeFig6(size, 1)
	if err != nil {
		return Result{}, Result{}, err
	}
	timeN, err := timeFig6(size, 0) // 0 = GOMAXPROCS
	if err != nil {
		return Result{}, Result{}, err
	}
	serial = Result{Name: "Fig6Sweep/serial", Iterations: 1, NsPerOp: float64(time1.Nanoseconds())}
	parallel = Result{
		Name:       "Fig6Sweep/parallel",
		Iterations: 1,
		NsPerOp:    float64(timeN.Nanoseconds()),
		SpeedupVs:  "Fig6Sweep/serial",
		Speedup:    float64(time1.Nanoseconds()) / float64(timeN.Nanoseconds()),
	}
	return serial, parallel, nil
}

// benchLifetimeScenario times the lifetime engine's hot loop: a 20-year
// BE-design scenario under the given configuration, fabric failures
// included (so the epoch memo, the post-death re-simulation path, the
// per-epoch placement exploration and — for shape-aware translation — the
// ladder scan are all on the clock).
func benchLifetimeScenario(cfg agingcgra.LifetimeConfig, label string) (Result, error) {
	cfg.Benchmarks = []string{"crc32"}
	cfg.EpochYears = 0.25
	cfg.MaxYears = 20
	// Warm-up: kernel assembly (cached process-wide). The timed region runs
	// the iterations as one batch so the stand-alone GPP reference is
	// memoized across them and paid once, not per iteration.
	if _, err := agingcgra.RunLifetime(cfg); err != nil {
		return Result{}, err
	}
	const iters = 3
	batch := make([]agingcgra.LifetimeConfig, iters)
	for i := range batch {
		batch[i] = cfg
	}
	var epochs int
	start := time.Now()
	results, err := agingcgra.RunLifetimes(batch, 1)
	if err != nil {
		return Result{}, err
	}
	for _, res := range results {
		epochs += len(res.Timeline)
	}
	elapsed := time.Since(start)
	return Result{
		Name:         label,
		Iterations:   iters,
		NsPerOp:      float64(elapsed.Nanoseconds()) / float64(iters),
		EpochsPerSec: float64(epochs) / elapsed.Seconds(),
	}, nil
}

func timeFig6(size agingcgra.Size, workers int) (time.Duration, error) {
	start := time.Now()
	if _, err := agingcgra.Fig6(agingcgra.ExperimentOptions{Size: size, Workers: workers}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgra-bench:", err)
	os.Exit(1)
}
