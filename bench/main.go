package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// gomaxprocs is the schedule every workload runs under, whatever the
// machine: the fleet pool's 2 workers and the parallel placement scans
// then always have the same cores to share.
const gomaxprocs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cgra-perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (each in its own process)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed pass")
	traceFlag := fs.Int("trace", 0, "1: run the traced pass and print the per-layer metrics instead of the end-to-end ones")
	out := fs.String("o", "", "also write the full report (environment, sample counts, metrics) to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced pass's per-op spans and counts to this JSON-lines file")
	digests := fs.String("digests", "bench/testdata/digests.json", "committed output digests")
	update := fs.Bool("update-digests", false, "rewrite this workload's committed digests instead of checking them (seed 1 only)")
	compare := fs.String("compare", "", "baseline report (-o output) to gate the report against; exits 1 on regression")
	replay := fs.String("replay", "", "with -compare: gate this existing report instead of measuring")
	allowEnv := fs.Bool("allow-env-mismatch", false, "with -compare: compare across differing num_cpu/gomaxprocs/go_version")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "cgra-perfbench: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	}
	if *replay != "" {
		if *compare == "" {
			fmt.Fprintln(stderr, "cgra-perfbench: -replay needs -compare (nothing to gate against)")
			return 2
		}
		cur, err := loadReport(*replay)
		if err != nil {
			fmt.Fprintln(stderr, "cgra-perfbench:", err)
			return 1
		}
		return gate(*compare, cur, *allowEnv, stderr)
	}
	if *name == "all" {
		return runAll(fs, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "cgra-perfbench: unknown workload %q (want all or one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}

	runtime.GOMAXPROCS(gomaxprocs)
	o := options{
		seed:      *seed,
		seconds:   *seconds,
		traced:    *traceFlag == 1,
		setupRuns: 9,
		probeReps: probeReps,
		digests:   *digests,
		update:    *update,
	}
	if o.traced {
		o.setupRuns = 1 // setup_s is an end-to-end metric
	}
	rep, recs, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "cgra-perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stderr, "cgra-perfbench: %s: %s\n", w.name, p)
	}
	fmt.Fprintf(stderr, "cgra-perfbench: %s seed %d: %d ops from %d client(s), %d set-up run(s), GOMAXPROCS %d of %d CPUs, %s\n",
		w.name, rep.Seed, rep.Samples, rep.Clients, rep.SetupRuns, rep.GoMaxProcs, rep.NumCPU, rep.GoVersion)
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "cgra-perfbench:", err)
			return 1
		}
	}
	if *traceOut != "" && o.traced {
		if err := writeTrace(*traceOut, w.name, recs); err != nil {
			fmt.Fprintln(stderr, "cgra-perfbench:", err)
			return 1
		}
	}
	line, err := resultLine(rep.Correct, rep.Attempted, rep.Failed, rep.Metrics)
	if err != nil {
		fmt.Fprintln(stderr, "cgra-perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	if *compare != "" {
		return gate(*compare, rep, *allowEnv, stderr)
	}
	return 0
}

// gate compares a report against a baseline report of the same workload
// and pass, refusing across environments unless allowEnv.
func gate(basePath string, cur *report, allowEnv bool, stderr io.Writer) int {
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "cgra-perfbench:", err)
		return 1
	}
	if base.Workload != cur.Workload || base.Traced != cur.Traced {
		fmt.Fprintf(stderr, "cgra-perfbench: baseline is %s (traced %t), current is %s (traced %t): nothing to compare\n",
			base.Workload, base.Traced, cur.Workload, cur.Traced)
		return 1
	}
	if ms := envMismatches(base, cur); len(ms) > 0 {
		for _, m := range ms {
			fmt.Fprintln(stderr, "cgra-perfbench: environment mismatch:", m)
		}
		if !allowEnv {
			fmt.Fprintln(stderr, "cgra-perfbench: refusing to compare across environments; re-baseline here or pass -allow-env-mismatch")
			return 1
		}
	}
	fmt.Fprintf(stderr, "%s: baseline seed %d, %d samples; current seed %d, %d samples\n",
		cur.Workload, base.Seed, base.Samples, cur.Seed, cur.Samples)
	if compareReports(stderr, base, cur) {
		fmt.Fprintf(stderr, "cgra-perfbench: %s regressed beyond its bounds against %s\n", cur.Workload, basePath)
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, so one workload's heap
// and caches never warm another's, passing the other flags set on the
// command line through. -o and -trace-out name one file per workload: the
// workload's name is inserted before the extension.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "cgra-perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := []string{"-workload=" + w.name}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload":
			case "o", "trace-out":
				args = append(args, "-"+f.Name+"="+perWorkload(f.Value.String(), w.name))
			default:
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cgra-perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// perWorkload inserts the workload name before a path's extension.
func perWorkload(path, name string) string {
	if dot := strings.LastIndex(path, "."); dot > strings.LastIndex(path, "/") {
		return path[:dot] + "." + name + path[dot:]
	}
	return path + "." + name
}
