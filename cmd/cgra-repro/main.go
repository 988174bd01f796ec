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
	"flag"
	"fmt"
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
	size := agingcgra.Small
	flag.TextVar(&size, "size", size, "input size: tiny, small, large")
	exp := flag.String("exp", "all", "experiment: fig1, fig6, fig7, fig8, table1, table2 or all")
	workers := flag.Int("workers", 0, "parallel design points (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	opt := agingcgra.ExperimentOptions{Size: size, Workers: *workers}

	fmt.Println("Reproduction of: Proactive Aging Mitigation in CGRAs through")
	fmt.Println("Utilization-Aware Allocation (Brandalero et al., DAC 2020)")
	fmt.Printf("workload scale: %v\n\n", size)

	fmt.Println("validating the workload suite against its Go references...")
	if err := agingcgra.ValidateSuiteSmall(size); err != nil {
		fatal(err)
	}
	fmt.Println("all 10 benchmarks validated.")
	fmt.Println()

	run := func(name string) bool { return *exp == "all" || *exp == name }

	if run("fig1") {
		r, err := agingcgra.Fig1(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
		fmt.Println("paper: 100% top-left corner decaying to 1% bottom-right.")
		fmt.Println()
	}
	if run("fig6") {
		r, err := agingcgra.Fig6(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
		fmt.Println("paper: BE=(L16,W2) 2.14x speedup 0.90x energy; BP=(L32,W4) 2.45x, 1.20x;")
		fmt.Println("       BU=(L32,W8) 2.45x, 1.46x; occupations 39.7% / 17.8% / 8.9%.")
		fmt.Println()
	}
	if run("fig7") {
		r, err := agingcgra.Fig7(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
		fmt.Println("paper: max utilization drops from 94.5% to 41.2% on the BE design.")
		fmt.Println()
	}
	if run("fig8") {
		r, err := agingcgra.Fig8(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
		fmt.Println("paper: larger fabrics show wider baseline spreads and bigger gains;")
		fmt.Println("       BE baseline hits 10% delay at ~3 years, proposed at ~7 years.")
		fmt.Println()
	}
	if run("table1") {
		r, err := agingcgra.Table1(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Render())
		fmt.Println("paper vs measured (lifetime improvement):")
		for _, row := range r.Rows {
			name := row.Scenario.String()
			p := paperTable1[name]
			fmt.Printf("  %s: paper avg %.1f%% worst %.1f%%->%.1f%% improv %.2fx | measured avg %.1f%% worst %.1f%%->%.1f%% improv %.2fx\n",
				name, 100*p[0], 100*p[1], 100*p[2], paperImprovements[name],
				100*row.AvgUtil, 100*row.BaselineWorst, 100*row.ProposedWorst, row.LifetimeImprovement)
		}
		fmt.Println()
	}
	if run("table2") {
		r := agingcgra.Table2()
		fmt.Println(r.Render())
		fmt.Println("paper: 28,995 -> 30,199 um2 (+4.15%), 79,540 -> 83,083 cells (+4.45%),")
		fmt.Println("       120 ps column latency unchanged.")
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgra-repro:", err)
	os.Exit(1)
}
