// cgra-dse runs the paper's Fig. 6 design-space exploration: the benchmark
// suite over every fabric size, reporting execution time, energy and
// occupancy relative to the stand-alone GPP, and the BE/BP/BU selection.
//
// Usage:
//
//	cgra-dse -size small -csv fig6.csv
//	cgra-dse -allocator explore        # sweep with the wear-aware explorer
//	cgra-dse -explorer-sweep           # (horizon x period) x failure DSE
//	cgra-dse -shape-sweep              # shape-ladder x failure DSE (shape-aware translation)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"agingcgra"
	"agingcgra/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h printed the usage
		}
		fmt.Fprintln(os.Stderr, "cgra-dse:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flag parsing, sweep selection and
// execution, with unknown allocator/ladder/pattern/size names surfaced as
// errors instead of panics.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cgra-dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := agingcgra.Small
	fs.TextVar(&size, "size", size, "input size: tiny, small, large")
	csvPath := fs.String("csv", "", "also write the points as CSV to this file")
	workers := fs.Int("workers", 0, "parallel design points (0 = GOMAXPROCS, 1 = serial)")
	allocator := fs.String("allocator", "baseline",
		"allocation strategy to sweep with (baseline, utilization-aware, explore, remap, ...)")
	explorerSweep := fs.Bool("explorer-sweep", false,
		"run the explorer's own DSE instead of Fig. 6: (projection horizon x recompute period) across clustered-failure scenarios")
	shapeSweep := fs.Bool("shape-sweep", false,
		"run the shape-ladder DSE instead of Fig. 6: candidate ladder variants x failure scenarios under translation-time shape search")
	horizons := fs.String("horizons", "", "explorer-sweep projection horizons in years, comma-separated (default 0.25,1,4)")
	periods := fs.String("periods", "", "explorer-sweep recompute periods, comma-separated (default 4,16,64)")
	ladders := fs.String("ladders", "", "shape-sweep ladder variants, comma-separated (default all: halving,full-only,columns,rows,fine)")
	failures := fs.String("failures", "", "sweep failure patterns, comma-separated (explorer default healthy,column,quadrant; shape default healthy,column,columns:0+8)")
	years := fs.Float64("years", 20, "sweep simulated horizon in years")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *shapeSweep {
		opt := agingcgra.ShapeSweepOptions{
			Size:     size,
			MaxYears: *years,
			Workers:  *workers,
		}
		if *ladders != "" {
			opt.Ladders = splitList(*ladders)
		}
		if *failures != "" {
			opt.Failures = splitList(*failures)
		}
		res, err := agingcgra.ShapeSweep(opt)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Render())
		if *csvPath != "" {
			return writeCSV(stdout, *csvPath, res.CSVHeader(), res.CSVRows())
		}
		return nil
	}
	if *explorerSweep {
		opt := agingcgra.ExplorerSweepOptions{
			Size:     size,
			MaxYears: *years,
			Workers:  *workers,
		}
		var err error
		if *horizons != "" {
			if opt.Horizons, err = parseFloats(*horizons); err != nil {
				return err
			}
		}
		if *periods != "" {
			if opt.Periods, err = parseInts(*periods); err != nil {
				return err
			}
		}
		if *failures != "" {
			opt.Failures = splitList(*failures)
		}
		res, err := agingcgra.ExplorerSweep(opt)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Render())
		if *csvPath != "" {
			return writeCSV(stdout, *csvPath, res.CSVHeader(), res.CSVRows())
		}
		return nil
	}
	res, err := agingcgra.Fig6(agingcgra.ExperimentOptions{
		Size: size, Workers: *workers, Allocator: *allocator,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Render())

	if *csvPath != "" {
		rows := make([][]string, 0, len(res.Points))
		for _, p := range res.Points {
			rows = append(rows, []string{
				p.Geom.String(),
				fmt.Sprintf("%d", p.Geom.Rows),
				fmt.Sprintf("%d", p.Geom.Cols),
				fmt.Sprintf("%.6f", p.RelTime),
				fmt.Sprintf("%.6f", p.RelEnergy),
				fmt.Sprintf("%.6f", p.AvgUtil),
			})
		}
		return writeCSV(stdout, *csvPath, []string{"design", "rows", "cols", "rel_time", "rel_energy", "avg_util"}, rows)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

func writeCSV(stdout io.Writer, path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSV(f, header, rows); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}
