package agingcgra

import (
	"strings"
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	s, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Geometry()
	if g.Rows != 2 || g.Cols != 16 {
		t.Errorf("default geometry %v, want the BE design (2x16)", g)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{Rows: -1}); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := NewSystem(Config{Allocator: "nope"}); err == nil {
		t.Error("unknown allocator accepted")
	}
}

func TestAllocatorRegistry(t *testing.T) {
	g := NewGeometry(2, 8)
	for _, name := range AllocatorNames() {
		a, err := NewAllocator(name, g)
		if err != nil || a == nil {
			t.Errorf("NewAllocator(%q): %v", name, err)
		}
	}
	if _, err := NewAllocator("bogus", g); err == nil {
		t.Error("unknown name accepted")
	}
	// Aliases.
	for _, alias := range []string{"", "proposed", "snake"} {
		if _, err := NewAllocator(alias, g); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	// LifetimeConfig.Scenario validates against the table NewAllocator
	// builds from: every name of it resolves, and an unknown name fails
	// with NewAllocator's error text, which the service's 400 bodies carry.
	for name := range allocators {
		if _, err := (LifetimeConfig{Allocator: name}).Scenario(); err != nil {
			t.Errorf("Scenario with allocator %q: %v", name, err)
		}
	}
	const unknown = `agingcgra: unknown allocator "bogus" (want one of [baseline utilization-aware ` +
		`utilization-aware-rowmajor utilization-aware-diagonal utilization-aware-horizontal ` +
		`utilization-aware-vertical utilization-aware-shuffled health-aware explore remap])`
	_, errBuild := NewAllocator("bogus", g)
	_, errScenario := LifetimeConfig{Allocator: "bogus"}.Scenario()
	for _, err := range []error{errBuild, errScenario} {
		if err == nil || err.Error() != unknown {
			t.Errorf("unknown allocator: error %v, want %s", err, unknown)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10", len(names))
	}
	if names[0] != "bitcount" || names[9] != "susan_smoothing" {
		t.Errorf("unexpected order: %v", names)
	}
}

func TestRunBenchmarkEndToEnd(t *testing.T) {
	s, err := NewSystem(Config{Allocator: "utilization-aware"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunBenchmark("crc32", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 1 {
		t.Errorf("speedup = %v, want > 1", res.Speedup())
	}
	if res.Report.Offloads == 0 {
		t.Error("no offloads")
	}
	if res.RelEnergy <= 0 {
		t.Error("no energy computed")
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	s, _ := NewSystem(Config{})
	if _, err := s.RunBenchmark("nope", Tiny); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunSuiteTiny(t *testing.T) {
	s, err := NewSystem(Config{Rows: 2, Cols: 16, Allocator: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunSuite(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 10 {
		t.Errorf("suite ran %d benchmarks", len(res.PerBench))
	}
	if res.Speedup() <= 1 {
		t.Errorf("suite speedup = %v", res.Speedup())
	}
}

func TestFig1Tiny(t *testing.T) {
	r, err := Fig1(ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if r.Util.Geom.Rows != 4 || r.Util.Geom.Cols != 8 {
		t.Errorf("Fig1 geometry %v, want 4x8", r.Util.Geom)
	}
	// The motivational gradient: top-left hotter than bottom-right.
	if r.Util.At(0, 0) <= r.Util.At(3, 7) {
		t.Errorf("no corner bias: (0,0)=%v (3,7)=%v", r.Util.At(0, 0), r.Util.At(3, 7))
	}
	out := r.Render()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "R4") {
		t.Error("bad rendering")
	}
}

func TestFig7AndTable1Tiny(t *testing.T) {
	f7, err := Fig7(ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	bMax, _ := f7.Baseline.Util.Max()
	pMax, _ := f7.Proposed.Util.Max()
	if pMax >= bMax {
		t.Errorf("proposed worst %v not below baseline worst %v", pMax, bMax)
	}
	if !strings.Contains(f7.Render(), "Fig. 7") {
		t.Error("bad rendering")
	}

	t1, err := Table1(ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 3 {
		t.Fatalf("Table1 rows = %d", len(t1.Rows))
	}
	// Lifetime improvement must grow with fabric size (BE < BP < BU).
	if !(t1.Rows[0].LifetimeImprovement < t1.Rows[1].LifetimeImprovement &&
		t1.Rows[1].LifetimeImprovement < t1.Rows[2].LifetimeImprovement) {
		t.Errorf("improvements not monotone: %+v", t1.Rows)
	}
	// Performance overhead must be negligible everywhere.
	for _, row := range t1.Rows {
		if row.PerfOverhead > 0.02 {
			t.Errorf("%s: perf overhead %.2f%% > 2%%", row.Scenario, 100*row.PerfOverhead)
		}
	}
	if !strings.Contains(t1.Render(), "Table I") {
		t.Error("bad rendering")
	}
}

func TestFig8Tiny(t *testing.T) {
	r, err := Fig8(ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if s.ProposedWorst >= s.BaselineWorst {
			t.Errorf("%s: rotation did not reduce worst util", s.Scenario)
		}
		// The delay curves must reflect the utilization ordering.
		last := len(s.BaselineDelay) - 1
		if s.ProposedDelay[last].Increase >= s.BaselineDelay[last].Increase {
			t.Errorf("%s: proposed delay curve not below baseline", s.Scenario)
		}
	}
	if !strings.Contains(r.Render(), "Fig. 8") {
		t.Error("bad rendering")
	}
}

func TestTable2(t *testing.T) {
	r := Table2()
	if r.Overhead.AreaIncrease() <= 0 || r.Overhead.AreaIncrease() >= 0.10 {
		t.Errorf("area increase %.2f%% outside (0,10%%)", 100*r.Overhead.AreaIncrease())
	}
	if r.CriticalPathBasePs != r.CriticalPathModPs {
		t.Error("movement hardware must not change the critical path")
	}
	out := r.Render()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "wraparound-muxes") {
		t.Error("bad rendering")
	}
}

func TestFlatness(t *testing.T) {
	base, err := SuiteOnce(NewGeometry(2, 16), "baseline", ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := SuiteOnce(NewGeometry(2, 16), "utilization-aware", ExperimentOptions{Size: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	fb, fr := Flatness(base), Flatness(rot)
	if fr.CoV >= fb.CoV {
		t.Errorf("rotation did not reduce CoV: %v vs %v", fr.CoV, fb.CoV)
	}
	if fr.Gini >= fb.Gini {
		t.Errorf("rotation did not reduce Gini: %v vs %v", fr.Gini, fb.Gini)
	}
}

func TestValidateSuite(t *testing.T) {
	if err := ValidateSuiteSmall(Tiny); err != nil {
		t.Fatal(err)
	}
}

func TestFig6TinySubset(t *testing.T) {
	// Full 12-point sweep at Tiny with a subset for test speed.
	r, err := Fig6(ExperimentOptions{Size: Tiny, Benchmarks: []string{"crc32", "sha", "qsort"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d, want 12", len(r.Points))
	}
	for _, p := range r.Points {
		if p.RelTime >= 1 {
			t.Errorf("%v: no speedup (relTime %v)", p.Geom, p.RelTime)
		}
	}
	if !strings.Contains(r.Render(), "Fig. 6") {
		t.Error("bad rendering")
	}
	if len(r.Selected) != 3 {
		t.Errorf("selected %d scenarios", len(r.Selected))
	}
}
