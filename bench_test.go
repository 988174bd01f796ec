package agingcgra

import "testing"

// The benchmarks below regenerate every table and figure of the paper's
// evaluation at the Small (paper-equivalent) workload scale, reporting the
// headline numbers as benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// The ablation benches compare allocators selected by name: the movement
// patterns and the stress-feedback allocator against the snake.

func benchOpts() ExperimentOptions { return ExperimentOptions{Size: Small} }

// BenchmarkFig1UtilizationHeatmap regenerates the motivational heat map:
// traditional mapping on a 4x8 fabric.
func BenchmarkFig1UtilizationHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		maxD, _ := r.Util.Max()
		b.ReportMetric(100*maxD, "maxUtil%")
		b.ReportMetric(100*r.Util.Min(), "minUtil%")
		b.ReportMetric(100*r.Util.Avg(), "avgUtil%")
	}
}

// BenchmarkFig6DesignSpace regenerates the 12-point design-space
// exploration with relative time, energy and occupancy, using the parallel
// sweep engine (worker pool over design points, memoized GPP references).
func BenchmarkFig6DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.Geom == NewGeometry(2, 16) {
				b.ReportMetric(p.Speedup, "BEspeedup")
				b.ReportMetric(p.RelEnergy, "BErelEnergy")
			}
			if p.Geom == NewGeometry(8, 32) {
				b.ReportMetric(p.RelEnergy, "BUrelEnergy")
			}
		}
	}
}

// BenchmarkFig6DesignSpaceSerial pins the same sweep to a single worker:
// the parallel/serial ratio of these two benchmarks is the sweep engine's
// wall-clock speedup on this machine (the outputs are identical).
func BenchmarkFig6DesignSpaceSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts()
		opt.Workers = 1
		if _, err := Fig6(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7UtilizationBE regenerates the BE heat-map comparison:
// baseline vs utilization-aware allocation.
func BenchmarkFig7UtilizationBE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		bMax, _ := r.Baseline.Util.Max()
		pMax, _ := r.Proposed.Util.Max()
		b.ReportMetric(100*bMax, "baseWorst%")
		b.ReportMetric(100*pMax, "propWorst%")
	}
}

// BenchmarkFig8UtilizationPDF regenerates the utilization distributions of
// all three scenarios under both allocators.
func BenchmarkFig8UtilizationPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Series[0].ProposedWorst, "BEpropWorst%")
		b.ReportMetric(100*r.Series[2].ProposedWorst, "BUpropWorst%")
	}
}

// BenchmarkFig8DelayOverTime regenerates the NBTI delay-increase curves
// (the lower panel of Fig. 8) from the measured worst-case utilizations.
func BenchmarkFig8DelayOverTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		s := r.Series[0]
		last := len(s.BaselineDelay) - 1
		b.ReportMetric(100*s.BaselineDelay[last].Increase, "BEbaseDelay10y%")
		b.ReportMetric(100*s.ProposedDelay[last].Increase, "BEpropDelay10y%")
	}
}

// BenchmarkTable1Lifetime regenerates Table I: worst-case utilizations and
// the lifetime improvements of the three scenarios.
func BenchmarkTable1Lifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].LifetimeImprovement, "BEimprove")
		b.ReportMetric(r.Rows[1].LifetimeImprovement, "BPimprove")
		b.ReportMetric(r.Rows[2].LifetimeImprovement, "BUimprove")
	}
}

// BenchmarkTable2Area regenerates Table II: the area overhead of the
// movement hardware on the BE design.
func BenchmarkTable2Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table2()
		b.ReportMetric(100*r.Overhead.AreaIncrease(), "areaOverhead%")
		b.ReportMetric(100*r.Overhead.CellsIncrease(), "cellsOverhead%")
		b.ReportMetric(r.CriticalPathBasePs, "critPathPs")
	}
}

// ---------------------------------------------------------------------------
// Ablations.

func ablationFlatness(b *testing.B, allocator string) FlatnessMetrics {
	b.Helper()
	res, err := SuiteOnce(NewGeometry(2, 16), allocator, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return Flatness(res)
}

// BenchmarkAblationMovementPatterns compares the paper's snake pattern
// against the alternative full- and partial-coverage patterns.
func BenchmarkAblationMovementPatterns(b *testing.B) {
	patterns := []string{
		"utilization-aware",
		"utilization-aware-rowmajor",
		"utilization-aware-diagonal",
		"utilization-aware-shuffled",
		"utilization-aware-horizontal",
		"utilization-aware-vertical",
	}
	for _, p := range patterns {
		p := p
		b.Run(p, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := ablationFlatness(b, p)
				b.ReportMetric(100*f.Max, "worst%")
				b.ReportMetric(f.CoV, "cov")
			}
		})
	}
}

// BenchmarkAblationHealthAware compares the future-work stress-feedback
// allocator against blind rotation.
func BenchmarkAblationHealthAware(b *testing.B) {
	for _, name := range []string{"utilization-aware", "health-aware"} {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := ablationFlatness(b, name)
				b.ReportMetric(100*f.Max, "worst%")
				b.ReportMetric(f.Gini, "gini")
			}
		})
	}
}

// BenchmarkEngineThroughput measures raw co-simulation speed (instructions
// per second) on one benchmark, the practical cost of using the simulator.
func BenchmarkEngineThroughput(b *testing.B) {
	s, err := NewSystem(Config{Allocator: "utilization-aware"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := s.RunBenchmark("crc32", Small)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Report.TotalInstrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}
