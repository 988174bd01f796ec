// cgra-repro regenerates every table and figure of the paper's evaluation
// in one run and prints the paper-vs-measured comparison that EXPERIMENTS.md
// records.
//
// Usage:
//
//	cgra-repro -size small          # full reproduction (~30 s)
//	cgra-repro -size small -exp fig6
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"agingcgra"
)

// paperTable1 holds the published Table I values for the comparison.
var paperTable1 = map[string][3]float64{
	// scenario -> {avg util, baseline worst, proposed worst}
	"BE": {0.397, 0.945, 0.411},
	"BP": {0.171, 0.981, 0.224},
	"BU": {0.085, 0.981, 0.123},
}

var paperImprovements = map[string]float64{"BE": 2.29, "BP": 4.37, "BU": 7.97}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed the usage
		}
		fmt.Fprintln(os.Stderr, "cgra-repro:", err)
		os.Exit(1)
	}
}

// run parses args and writes the reproduction report to stdout. Flag errors
// and usage go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cgra-repro", flag.ContinueOnError)
	size := agingcgra.Small
	fs.TextVar(&size, "size", size, "input size: tiny, small, large")
	exp := fs.String("exp", "all", "experiment: fig1, fig6, fig7, fig8, table1, table2 or all")
	workers := fs.Int("workers", 0, "parallel design points (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := agingcgra.ExperimentOptions{Size: size, Workers: *workers}

	fmt.Fprintln(stdout, "Reproduction of: Proactive Aging Mitigation in CGRAs through")
	fmt.Fprintln(stdout, "Utilization-Aware Allocation (Brandalero et al., DAC 2020)")
	fmt.Fprintf(stdout, "workload scale: %v\n\n", size)

	fmt.Fprintln(stdout, "validating the workload suite against its Go references...")
	if err := agingcgra.ValidateSuiteSmall(size); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "all 10 benchmarks validated.")
	fmt.Fprintln(stdout)

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig1") {
		r, err := agingcgra.Fig1(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper: 100% top-left corner decaying to 1% bottom-right.")
		fmt.Fprintln(stdout)
	}
	if want("fig6") {
		r, err := agingcgra.Fig6(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper: BE=(L16,W2) 2.14x speedup 0.90x energy; BP=(L32,W4) 2.45x, 1.20x;")
		fmt.Fprintln(stdout, "       BU=(L32,W8) 2.45x, 1.46x; occupations 39.7% / 17.8% / 8.9%.")
		fmt.Fprintln(stdout)
	}
	if want("fig7") {
		r, err := agingcgra.Fig7(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper: max utilization drops from 94.5% to 41.2% on the BE design.")
		fmt.Fprintln(stdout)
	}
	if want("fig8") {
		r, err := agingcgra.Fig8(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper: larger fabrics show wider baseline spreads and bigger gains;")
		fmt.Fprintln(stdout, "       BE baseline hits 10% delay at ~3 years, proposed at ~7 years.")
		fmt.Fprintln(stdout)
	}
	if want("table1") {
		r, err := agingcgra.Table1(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper vs measured (lifetime improvement):")
		for _, row := range r.Rows {
			name := row.Scenario.String()
			p := paperTable1[name]
			fmt.Fprintf(stdout, "  %s: paper avg %.1f%% worst %.1f%%->%.1f%% improv %.2fx | measured avg %.1f%% worst %.1f%%->%.1f%% improv %.2fx\n",
				name, 100*p[0], 100*p[1], 100*p[2], paperImprovements[name],
				100*row.AvgUtil, 100*row.BaselineWorst, 100*row.ProposedWorst, row.LifetimeImprovement)
		}
		fmt.Fprintln(stdout)
	}
	if want("table2") {
		r := agingcgra.Table2()
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintln(stdout, "paper: 28,995 -> 30,199 um2 (+4.15%), 79,540 -> 83,083 cells (+4.45%),")
		fmt.Fprintln(stdout, "       120 ps column latency unchanged.")
		fmt.Fprintln(stdout)
	}
	return nil
}
