// cgra-sim runs one benchmark of the MiBench-style suite on a TransRec
// system and prints the performance, energy and utilization outcome.
//
// Usage:
//
//	cgra-sim -bench crc32 -rows 2 -cols 16 -alloc utilization-aware -size small
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"agingcgra"
	"agingcgra/internal/dbt"
	"agingcgra/internal/dfg"
	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
	"agingcgra/internal/report"
)

func main() {
	bench := flag.String("bench", "crc32", "benchmark name (or 'all'); one of "+strings.Join(agingcgra.Benchmarks(), ", "))
	rows := flag.Int("rows", 2, "fabric rows (W)")
	cols := flag.Int("cols", 16, "fabric columns (L)")
	allocName := flag.String("alloc", "baseline", "allocation strategy: "+strings.Join(agingcgra.AllocatorNames(), ", "))
	size := agingcgra.Small
	flag.TextVar(&size, "size", size, "input size: tiny, small, large")
	heat := flag.Bool("heatmap", false, "print the per-FU utilization heat map")
	analyze := flag.Bool("analyze", false, "print dataflow analysis of the translated configurations")
	flag.Parse()

	sys, err := agingcgra.NewSystem(agingcgra.Config{
		Rows: *rows, Cols: *cols, Allocator: *allocName,
	})
	if err != nil {
		fatal(err)
	}

	names := []string{*bench}
	if *bench == "all" {
		names = agingcgra.Benchmarks()
	}
	for _, name := range names {
		res, err := sys.RunBenchmark(name, size)
		if err != nil {
			fatal(err)
		}
		rep := res.Report
		fmt.Printf("%-16s %v alloc=%s\n", name, sys.Geometry(), rep.AllocatorName)
		fmt.Printf("  checksum        %#x (validated against the Go reference)\n", res.Checksum)
		fmt.Printf("  GPP-only        %d cycles\n", res.GPPCycles)
		fmt.Printf("  TransRec        %d cycles  (speedup %.2fx)\n", rep.TotalCycles, res.Speedup())
		fmt.Printf("  rel. energy     %.3fx\n", res.RelEnergy)
		fmt.Printf("  offload rate    %.1f%% of %d instructions, %d offloads, %d early exits\n",
			100*rep.OffloadRate(), rep.TotalInstrs, rep.Offloads, rep.EarlyExits)
		fmt.Printf("  translations    %d (cache: %d hits, %d misses, %d evictions)\n",
			rep.Translations, rep.Cache.Hits, rep.Cache.Misses, rep.Cache.Evictions)
		maxD, cell := rep.Util.Max()
		fmt.Printf("  utilization     avg %.1f%%, max %.1f%% at (R%d,C%d)\n",
			100*rep.Util.Avg(), 100*maxD, cell.Row+1, cell.Col+1)
		if *heat {
			fmt.Print(report.Heatmap(rep.Util))
		}
		if *analyze {
			if err := analyzeConfigs(name, size, sys.Geometry(), *allocName); err != nil {
				fatal(err)
			}
		}
	}
}

// analyzeConfigs re-runs the benchmark with direct engine access and
// reports dataflow properties of every cached configuration: size, depth,
// the latency-weighted critical-path lower bound and the achieved columns.
func analyzeConfigs(name string, size agingcgra.Size, geom fabric.Geometry, allocName string) error {
	b, ok := prog.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	c, err := b.NewCore(size)
	if err != nil {
		return err
	}
	allocator, err := agingcgra.NewAllocator(allocName, geom)
	if err != nil {
		return err
	}
	eng, err := dbt.NewEngine(dbt.Options{Geom: geom, Allocator: allocator})
	if err != nil {
		return err
	}
	if _, err := eng.Run(c, b.MaxInstructions); err != nil {
		return err
	}
	fmt.Printf("  configurations resident after the run (%d):\n", eng.Cache().Len())
	tab := &report.Table{Header: []string{"start PC", "ops", "cols used", "CP bound", "depth", "avg ILP", "live-ins"}}
	for _, cfg := range eng.Cache().Configs() {
		insts := make([]isa.Inst, len(cfg.Ops))
		for i, op := range cfg.Ops {
			insts[i] = op.Inst
		}
		g := dfg.Build(insts)
		tab.AddRow(
			fmt.Sprintf("%#x", cfg.StartPC),
			fmt.Sprintf("%d", cfg.NumOps()),
			fmt.Sprintf("%d", cfg.UsedCols),
			fmt.Sprintf("%d", g.CriticalPathColumns(fabric.DefaultLatencies())),
			fmt.Sprintf("%d", g.CriticalPathLen()),
			fmt.Sprintf("%.2f", g.AvgILP()),
			fmt.Sprintf("%d", len(g.LiveIns())),
		)
	}
	fmt.Print(tab.String())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgra-sim:", err)
	os.Exit(1)
}
