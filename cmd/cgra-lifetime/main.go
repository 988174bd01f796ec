// cgra-lifetime plays a TransRec fabric forward through years of operation:
// multi-year NBTI aging per Eq. 1, end-of-life failure injection, and
// DBT remapping around dead FUs, for one scenario per selected allocator.
// It prints a human-readable comparison — the headline is the three-way
// baseline / snake / explore time-to-first/second/third-death table — and
// emits the full timelines as machine-readable JSON. The stand-alone GPP
// reference is memoized across all selected allocators: adding the explorer
// as a third co-simulation pass does not recompute it.
//
// Usage:
//
//	cgra-lifetime                           # BE design, baseline/snake/explore/remap
//	cgra-lifetime -rows 8 -cols 32 -years 40 \
//	    -allocators baseline,utilization-aware,health-aware,explore,remap \
//	    -bench crc32,sha -epoch 0.25 -o lifetime.json
//	cgra-lifetime -dead survivor-row:1 -stale-translations \
//	    -allocators explore,remap          # clustered failure: remap vs explorer
//	cgra-lifetime -faults -recovery -check-every 1 \
//	    -allocators baseline,explore       # no oracle: detect/quarantine/recover
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"agingcgra"
	"agingcgra/internal/report"
)

// Output is the emitted JSON document.
type Output struct {
	Schema    string                      `json:"schema"`
	GoVersion string                      `json:"go_version"`
	Scenarios []*agingcgra.LifetimeResult `json:"scenarios"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cgra-lifetime:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flag parsing, scenario validation and
// execution, with all failures (unknown allocator, pattern, ladder, size)
// surfaced as errors instead of panics.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cgra-lifetime", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 2, "fabric rows W")
	cols := fs.Int("cols", 16, "fabric columns L")
	allocators := fs.String("allocators", "baseline,utilization-aware,explore,remap",
		"comma-separated allocation strategies to compare")
	dead := fs.String("dead", "",
		"clustered-failure pattern injected before the first epoch: column[:c], columns:c1+c2, quadrant, checkerboard[:p], survivor-row[:r]")
	stale := fs.Bool("stale-translations", false,
		"translate for the pristine fabric (configs predate the failures); placement still respects health")
	shaped := fs.Bool("shape-translations", false,
		"translation-time shape search: map each hot trace over the candidate shape ladder against current health/wear")
	ladder := fs.String("ladder", "",
		"candidate shape ladder for the shape searches: halving (default), full-only, columns, rows, fine")
	bench := fs.String("bench", "", "comma-separated workload mix (default: full suite)")
	size := agingcgra.Tiny
	fs.TextVar(&size, "size", size, "workload size: tiny, small, large")
	epoch := fs.Float64("epoch", 0.5, "epoch length in years")
	years := fs.Float64("years", 15, "simulated horizon in years")
	temp := fs.Float64("temp", 0, "junction temperature in kelvin (0: model default)")
	vdd := fs.Float64("vdd", 0, "supply voltage in volts (0: model default)")
	seed := fs.Uint64("seed", 0, "fault-injection PRNG seed (0: default 1)")
	faults := fs.Bool("faults", false,
		"inject wear-dependent intermittent faults once consumed lifetime crosses -fault-at (requires -recovery)")
	faultAt := fs.Float64("fault-at", 0,
		"consumed-lifetime fraction at which intermittent faults start (0: default 0.6)")
	faultProb := fs.Float64("fault-prob", 0,
		"per-execution fault probability reached just before hard death (0: default 0.02)")
	recovery := fs.Bool("recovery", false,
		"replace the health oracle with the detection/quarantine/recovery layer: placement consumes the runtime's observed health map")
	checkEvery := fs.Int("check-every", 0, "verify every k-th offload against the GPP reference (0: default 4; 1: every offload)")
	retries := fs.Int("retries", 0, "on-fabric retries after a detected fault before GPP backoff (0: default 2)")
	quarantineAfter := fs.Int("quarantine-after", 0, "detected faults per cell before quarantine (0: default 3)")
	probation := fs.Int("probation", 0, "consecutive clean probes to reinstate a quarantined cell (0: default 8)")
	failStop := fs.Bool("fail-stop", false,
		"no-recovery baseline: first detected fault routes every later offload to the GPP forever")
	workers := fs.Int("workers", 0, "scenario parallelism (0: GOMAXPROCS, 1: serial)")
	traceOut := fs.String("trace", "",
		"write observability artifacts under this path prefix: PREFIX.events.csv (epoch/death/fault/quarantine/remap/fallback events), PREFIX.snapshots.csv (per-FU duty/wear per epoch) and PREFIX.html (standalone heatmap + timeline report)")
	out := fs.String("o", "-", "JSON output path ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var mix []string
	if *bench != "" {
		mix = strings.Split(*bench, ",")
	}
	var fm *agingcgra.FaultModel
	if *faults {
		fm = &agingcgra.FaultModel{IntermittentAt: *faultAt, MaxProb: *faultProb}
	}
	var rp *agingcgra.RecoveryPolicy
	if *recovery || *faults || *failStop {
		rp = &agingcgra.RecoveryPolicy{
			CheckEvery:      *checkEvery,
			MaxRetries:      *retries,
			QuarantineAfter: *quarantineAfter,
			ProbationProbes: *probation,
			FailStop:        *failStop,
		}
	}

	var configs []agingcgra.LifetimeConfig
	for _, name := range strings.Split(*allocators, ",") {
		configs = append(configs, agingcgra.LifetimeConfig{
			Rows:              *rows,
			Cols:              *cols,
			Allocator:         strings.TrimSpace(name),
			Benchmarks:        mix,
			Size:              size,
			EpochYears:        *epoch,
			MaxYears:          *years,
			TemperatureK:      *temp,
			Vdd:               *vdd,
			DeadPattern:       *dead,
			StaleTranslations: *stale,
			ShapeTranslations: *shaped,
			ShapeLadder:       *ladder,
			Seed:              *seed,
			Faults:            fm,
			Recovery:          rp,
		})
	}

	// One recorder per scenario: each Run emits into its own sink, so the
	// combined stream (concatenated in scenario order) is identical at any
	// -workers value.
	var recorders []*agingcgra.TraceRecorder
	if *traceOut != "" {
		recorders = make([]*agingcgra.TraceRecorder, len(configs))
		for i := range configs {
			recorders[i] = &agingcgra.TraceRecorder{}
			configs[i].Trace = recorders[i]
		}
	}

	results, err := agingcgra.RunLifetimes(configs, *workers)
	if err != nil {
		return err
	}

	printSummary(stderr, results)

	if *traceOut != "" {
		var events []agingcgra.TraceEvent
		for _, rec := range recorders {
			events = append(events, rec.Events...)
		}
		if err := writeTraceArtifacts(*traceOut, events, stderr); err != nil {
			return err
		}
	}

	blob, err := json.MarshalIndent(Output{
		Schema:    "agingcgra-lifetime/v1",
		GoVersion: runtime.Version(),
		Scenarios: results,
	}, "", "  ")
	if err != nil {
		return err
	}
	if *out == "-" {
		fmt.Fprintln(stdout, string(blob))
	} else {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *out)
	}
	return nil
}

// writeTraceArtifacts renders the recorded event stream as the three
// observability artifacts: the flat event CSV, the per-FU snapshot CSV,
// and the standalone HTML report.
func writeTraceArtifacts(prefix string, events []agingcgra.TraceEvent, stderr io.Writer) error {
	write := func(suffix string, render func(io.Writer) error) error {
		path := prefix + suffix
		var b strings.Builder
		if err := render(&b); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return nil
	}
	if err := write(".events.csv", func(w io.Writer) error {
		return report.TraceEventsCSV(w, events)
	}); err != nil {
		return err
	}
	if err := write(".snapshots.csv", func(w io.Writer) error {
		return report.TraceSnapshotsCSV(w, events)
	}); err != nil {
		return err
	}
	return write(".html", func(w io.Writer) error {
		return report.TraceHTML(w, "cgra-lifetime trace", events)
	})
}

func printSummary(w io.Writer, results []*agingcgra.LifetimeResult) {
	fmt.Fprintf(w, "%-42s %10s %10s %10s %8s %8s %10s %10s\n",
		"scenario", "1st death", "2nd death", "3rd death", "deaths", "alive", "speedup@0", "speedup@end")
	for _, r := range results {
		fmt.Fprintf(w, "%-42s %10s %10s %10s %8d %7.0f%% %10.2f %10.2f\n",
			r.Name, deathAge(r, 1), deathAge(r, 2), deathAge(r, 3),
			r.TotalDeaths, 100*r.AliveFraction,
			r.InitialSpeedup, r.FinalSpeedup)
	}
	// Rank against the shortest-lived scenario per death index: the paper's
	// Table I phrasing generalised from first failure to the n-th. A
	// scenario with no n-th death *survived* — the best outcome, not
	// missing data — so the ratio line only makes sense when every
	// scenario reached that death count.
	for n := 1; n <= 3; n++ {
		var longest, shortest *agingcgra.LifetimeResult
		for _, r := range results {
			if r.NthDeathYears(n) == 0 {
				fmt.Fprintf(w, "%s reaches the horizon without death #%d (outlives all)\n",
					r.AllocatorName, n)
				longest, shortest = nil, nil
				break
			}
			if shortest == nil || r.NthDeathYears(n) < shortest.NthDeathYears(n) {
				shortest = r
			}
			if longest == nil || r.NthDeathYears(n) > longest.NthDeathYears(n) {
				longest = r
			}
		}
		if longest != nil && shortest != nil && longest != shortest {
			fmt.Fprintf(w, "%s outlives %s to death #%d by %.2fx\n",
				longest.AllocatorName, shortest.AllocatorName, n,
				longest.NthDeathYears(n)/shortest.NthDeathYears(n))
		}
	}
	printSearchCost(w, results)
	printRecovery(w, results)
}

// printSearchCost renders the derived hardware cost of each scenario's
// placement/shape searches and recovery-layer verification: the searchcost
// model's replacement for the "asserted cheap" hold-period story.
func printSearchCost(w io.Writer, results []*agingcgra.LifetimeResult) {
	var rows []report.SearchCostRow
	for _, r := range results {
		if r.Search == nil {
			continue
		}
		rows = append(rows, report.SearchCostRow{
			Name:              r.Name,
			ExplorerCycles:    r.Search.Cost.Explorer.Cycles,
			RemapCycles:       r.Search.Cost.Remap.Cycles,
			TranslationCycles: r.Search.Cost.Translation.Cycles,
			RecoveryCycles:    r.Search.Cost.Recovery.Cycles,
			TotalCycles:       r.Search.TotalCycles,
			EnergyNJ:          r.Search.TotalEnergyNJ,
			PerOffloadCycles:  r.Search.PerOffloadCycles,
			OverheadFrac:      r.Search.OverheadFrac,
		})
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\nderived search cost (explorer pivot scans, remap rescue scans, translation ladder scans, recovery checks):\n%s",
		report.SearchCostTable(rows))
}

// printRecovery renders the fault-detection/recovery summary of every
// recovery-enabled scenario: the runtime's measured view against ground
// truth.
func printRecovery(w io.Writer, results []*agingcgra.LifetimeResult) {
	var rows []report.RecoveryRow
	for _, r := range results {
		rec := r.Recovery
		if rec == nil {
			continue
		}
		rows = append(rows, report.RecoveryRow{
			Name:               r.Name,
			Faulted:            rec.Stats.FaultedExecs,
			Detected:           rec.Stats.DetectedFaults,
			Escapes:            rec.Stats.SilentEscapes,
			Retries:            rec.Stats.Retries,
			Backoffs:           rec.Stats.GPPBackoffs,
			Quarantines:        rec.Stats.Quarantines,
			Reinstated:         rec.Stats.Reinstatements,
			TrueDead:           rec.TrueDead,
			ObservedDead:       rec.ObservedDead,
			FalseNegatives:     rec.FalseNegatives,
			FalsePositivesOpen: rec.FalsePositivesOpen,
			MeanLatencyYears:   rec.MeanDetectionLatencyYears,
		})
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\nfault detection & recovery (observed vs ground truth):\n%s",
		report.RecoveryTable(rows))
}

func deathAge(r *agingcgra.LifetimeResult, n int) string {
	if y := r.NthDeathYears(n); y > 0 {
		return fmt.Sprintf("%.2f y", y)
	}
	return "none"
}
