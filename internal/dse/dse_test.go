package dse

import (
	"testing"

	"agingcgra/internal/core"
	"agingcgra/internal/fabric"
	"agingcgra/internal/prog"
)

func TestGrid(t *testing.T) {
	g := Grid()
	if len(g) != 12 {
		t.Fatalf("grid has %d points, want 12", len(g))
	}
	seen := map[GridPoint]bool{}
	for _, p := range g {
		if seen[p] {
			t.Errorf("duplicate point %+v", p)
		}
		seen[p] = true
	}
	for _, want := range []GridPoint{{2, 8}, {2, 16}, {4, 32}, {8, 32}} {
		if !seen[want] {
			t.Errorf("missing point %+v", want)
		}
	}
}

func TestScenarioGeometries(t *testing.T) {
	g := ScenarioGeometries()
	if g[BE] != fabric.NewGeometry(2, 16) {
		t.Errorf("BE = %v", g[BE])
	}
	if g[BP] != fabric.NewGeometry(4, 32) {
		t.Errorf("BP = %v", g[BP])
	}
	if g[BU] != fabric.NewGeometry(8, 32) {
		t.Errorf("BU = %v", g[BU])
	}
	for _, sc := range []Scenario{BE, BP, BU} {
		if sc.String() == "" {
			t.Error("empty scenario name")
		}
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario should still format")
	}
}

func TestRunSuiteTiny(t *testing.T) {
	res, err := RunSuite(fabric.NewGeometry(2, 16), BaselineFactory, Options{
		Size:       prog.Tiny,
		Benchmarks: []string{"crc32", "bitcount"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBench) != 2 {
		t.Fatalf("ran %d benchmarks", len(res.PerBench))
	}
	if res.Speedup() <= 1 {
		t.Errorf("speedup = %v", res.Speedup())
	}
	if res.RelTime() >= 1 || res.RelTime() <= 0 {
		t.Errorf("relTime = %v", res.RelTime())
	}
	if res.RelEnergy() <= 0 {
		t.Errorf("relEnergy = %v", res.RelEnergy())
	}
	if res.AvgUtil() <= 0 || res.WorstUtil() > 1 {
		t.Errorf("util: avg %v worst %v", res.AvgUtil(), res.WorstUtil())
	}
	for _, b := range res.PerBench {
		if b.Speedup() <= 0 {
			t.Errorf("%s speedup = %v", b.Name, b.Speedup())
		}
	}
}

func TestRunSuiteUnknownBenchmark(t *testing.T) {
	_, err := RunSuite(fabric.NewGeometry(2, 16), BaselineFactory, Options{
		Benchmarks: []string{"nope"},
	})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestProposedBeatsBaselineWorstUtil(t *testing.T) {
	o := Options{Size: prog.Tiny, Benchmarks: []string{"crc32", "sha"}}
	g := fabric.NewGeometry(2, 16)
	base, err := RunSuite(g, BaselineFactory, o)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := RunSuite(g, ProposedFactory, o)
	if err != nil {
		t.Fatal(err)
	}
	if rot.WorstUtil() >= base.WorstUtil() {
		t.Errorf("proposed worst %v >= baseline worst %v", rot.WorstUtil(), base.WorstUtil())
	}
	// Identical architectural work: same dynamic instruction totals.
	var bi, ri uint64
	for i := range base.PerBench {
		bi += base.PerBench[i].Report.TotalInstrs
		ri += rot.PerBench[i].Report.TotalInstrs
	}
	if bi != ri {
		t.Errorf("instruction totals differ: %d vs %d", bi, ri)
	}
}

// SelectScenarios on synthetic results: exercises the selection rules
// without multi-second sweeps.
func TestSelectScenariosSynthetic(t *testing.T) {
	mk := func(rows, cols int, relTime, relEnergy, avgUtil float64) *SuiteResult {
		s := &SuiteResult{Geom: fabric.NewGeometry(rows, cols)}
		s.GPPCycles = 1_000_000
		s.TRCycles = uint64(relTime * 1_000_000)
		s.GPPEnergy = 1000
		s.TREnergy = relEnergy * 1000
		s.Util = syntheticUtil(s.Geom, avgUtil)
		return s
	}
	results := []*SuiteResult{
		mk(2, 8, 0.60, 1.00, 0.50),
		mk(2, 16, 0.50, 0.90, 0.40), // BE: cheapest
		mk(4, 32, 0.480, 1.20, 0.17),
		mk(8, 32, 0.481, 1.46, 0.08), // within tie window of BP but dearer; BU by util
	}
	sel := SelectScenarios(results)
	if sel[BE].Geom != fabric.NewGeometry(2, 16) {
		t.Errorf("BE = %v", sel[BE].Geom)
	}
	if sel[BP].Geom != fabric.NewGeometry(4, 32) {
		t.Errorf("BP = %v (tie must break toward lower energy)", sel[BP].Geom)
	}
	if sel[BU].Geom != fabric.NewGeometry(8, 32) {
		t.Errorf("BU = %v", sel[BU].Geom)
	}
}

func syntheticUtil(g fabric.Geometry, avg float64) *core.UtilizationMap {
	u := &core.UtilizationMap{Geom: g, Duty: make([]float64, g.NumFUs())}
	for i := range u.Duty {
		u.Duty[i] = avg
	}
	return u
}
