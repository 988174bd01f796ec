package agingcgra

import (
	"fmt"
	"strings"

	"agingcgra/internal/aging"
	"agingcgra/internal/area"
	"agingcgra/internal/core"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/prog"
	"agingcgra/internal/report"
	"agingcgra/internal/stats"
)

// ExperimentOptions tunes the figure/table drivers.
type ExperimentOptions struct {
	// Size is the workload scale (default Small, the paper's setting).
	Size Size
	// Benchmarks restricts the suite (default: all ten).
	Benchmarks []string
	// Workers bounds design-point parallelism: 0 selects
	// runtime.GOMAXPROCS, 1 forces the serial path. Outputs are identical either way.
	Workers int
	// Allocator names the allocation strategy Fig6 sweeps with (default
	// "baseline", the paper's setting; "explore" sweeps the wear-aware
	// placement explorer instead). See AllocatorNames.
	Allocator string
}

// dseOptions lowers the facade options onto the sweep engine, installing a
// fresh GPP-reference memo shared by every design point of one experiment.
func (o ExperimentOptions) dseOptions() dse.Options {
	return dse.Options{
		Size:       o.Size,
		Benchmarks: o.Benchmarks,
		Workers:    o.Workers,
		Refs:       dse.NewRefCache(),
	}
}

// Scenario identifies the paper's three designs of interest.
type Scenario = dse.Scenario

// The paper's scenarios.
const (
	BE = dse.BE
	BP = dse.BP
	BU = dse.BU
)

// ScenarioGeometries returns the geometries the paper selects: BE (L16,W2),
// BP (L32,W4) and BU (L32,W8).
func ScenarioGeometries() map[Scenario]Geometry { return dse.ScenarioGeometries() }

// ---------------------------------------------------------------------------
// Fig. 1 — motivational utilization heat map.

// Fig1Result is the motivational experiment: per-FU utilization of a 4x8
// fabric under traditional (greedy, utilization-unaware) mapping.
type Fig1Result struct {
	Suite *SuiteResult
	Util  *core.UtilizationMap
}

// Fig1 runs the motivational analysis on the paper's 4-row, 8-column 1D
// fabric with the baseline allocator.
func Fig1(opt ExperimentOptions) (*Fig1Result, error) {
	res, err := dse.RunSuite(fabric.NewGeometry(4, 8), dse.BaselineFactory, opt.dseOptions())
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Suite: res, Util: res.Util}, nil
}

// Render draws the heat map in the figure's orientation.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1 - FU utilization, 4x8 fabric, traditional mapping\n")
	b.WriteString(report.Heatmap(r.Util))
	maxD, cell := r.Util.Max()
	fmt.Fprintf(&b, "max %.1f%% at (R%d,C%d), min %.1f%%, avg %.1f%%\n",
		100*maxD, cell.Row+1, cell.Col+1, 100*r.Util.Min(), 100*r.Util.Avg())
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 6 — design-space exploration.

// Fig6Point is one design point of the exploration.
type Fig6Point struct {
	Geom      Geometry
	RelTime   float64
	Speedup   float64
	RelEnergy float64
	AvgUtil   float64
}

// Fig6Result is the full exploration plus the scenario selection.
type Fig6Result struct {
	// Allocator names the allocator the sweep ran (SuiteResult.AllocatorName).
	Allocator string
	Points    []Fig6Point
	Selected  map[Scenario]Geometry
	suiteByPt []*SuiteResult
}

// Fig6 sweeps the 12 fabric sizes with the configured allocator (default
// baseline, the paper's setting).
func Fig6(opt ExperimentOptions) (*Fig6Result, error) {
	factory, err := allocatorFactory(opt.Allocator)
	if err != nil {
		return nil, err
	}
	results, err := dse.Sweep(nil, factory, opt.dseOptions())
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{Selected: make(map[Scenario]Geometry)}
	for _, r := range results {
		out.Allocator = r.AllocatorName
		out.Points = append(out.Points, Fig6Point{
			Geom:      r.Geom,
			RelTime:   r.RelTime(),
			Speedup:   r.Speedup(),
			RelEnergy: r.RelEnergy(),
			AvgUtil:   r.AvgUtil(),
		})
	}
	out.suiteByPt = results
	for sc, res := range dse.SelectScenarios(results) {
		out.Selected[sc] = res.Geom
	}
	return out, nil
}

// Render prints the scatter data as a table.
func (r *Fig6Result) Render() string {
	tab := &report.Table{Header: []string{"design", "exec time [x]", "energy [x]", "speedup", "occupation"}}
	for _, p := range r.Points {
		tab.AddRow(p.Geom.String(),
			fmt.Sprintf("%.3f", p.RelTime),
			fmt.Sprintf("%.3f", p.RelEnergy),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.1f%%", 100*p.AvgUtil))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 - design-space exploration (%s allocation)\n", r.Allocator)
	b.WriteString(tab.String())
	for _, sc := range []Scenario{BE, BP, BU} {
		if g, ok := r.Selected[sc]; ok {
			fmt.Fprintf(&b, "selected %s: %v\n", sc, g)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 7 — BE utilization, baseline vs proposed.

// Fig7Result compares per-FU utilization under both allocators on the BE
// design.
type Fig7Result struct {
	Geom     Geometry
	Baseline *SuiteResult
	Proposed *SuiteResult
}

// Fig7 runs the BE scenario with both allocators.
func Fig7(opt ExperimentOptions) (*Fig7Result, error) {
	cmps, err := scenarioComparisons([]Geometry{dse.ScenarioGeometries()[BE]}, opt)
	if err != nil {
		return nil, err
	}
	return cmps[0], nil
}

// scenarioComparisons runs every geometry with both allocators — one
// baseline/proposed point pair per geometry — through the parallel sweep
// engine, sharing one GPP-reference memo across all the points.
func scenarioComparisons(geoms []Geometry, opt ExperimentOptions) ([]*Fig7Result, error) {
	points := make([]dse.Point, 0, 2*len(geoms))
	for _, g := range geoms {
		points = append(points,
			dse.Point{Geom: g, Factory: dse.BaselineFactory},
			dse.Point{Geom: g, Factory: dse.ProposedFactory})
	}
	results, err := dse.RunPoints(points, opt.dseOptions())
	if err != nil {
		return nil, err
	}
	out := make([]*Fig7Result, len(geoms))
	for i, g := range geoms {
		out[i] = &Fig7Result{Geom: g, Baseline: results[2*i], Proposed: results[2*i+1]}
	}
	return out, nil
}

// Render stacks the two heat maps like the figure.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 - FU utilization on %v\n", r.Geom)
	b.WriteString(report.HeatmapComparison(
		"Baseline allocation:", r.Baseline.Util,
		"Proposed (utilization-aware) allocation:", r.Proposed.Util))
	bMax, _ := r.Baseline.Util.Max()
	pMax, _ := r.Proposed.Util.Max()
	fmt.Fprintf(&b, "max utilization: baseline %.1f%% -> proposed %.1f%%\n", 100*bMax, 100*pMax)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 8 — utilization PDFs and delay-over-time curves.

// Fig8Series is one scenario's worth of Fig. 8 data.
type Fig8Series struct {
	Scenario Scenario
	Geom     Geometry

	BaselineDuty []float64
	ProposedDuty []float64

	BaselineWorst float64
	ProposedWorst float64

	// Delay degradation sampled quarterly over the horizon, per allocator.
	BaselineDelay []aging.DelayPoint
	ProposedDelay []aging.DelayPoint
}

// Fig8Result covers all three scenarios.
type Fig8Result struct {
	Series []Fig8Series
	// HorizonYears is the time axis length.
	HorizonYears int
}

// Fig8 runs all scenarios with both allocators and evaluates the NBTI
// delay model on the worst-case utilizations.
func Fig8(opt ExperimentOptions) (*Fig8Result, error) {
	model := aging.NewModel()
	const horizon = 10
	out := &Fig8Result{HorizonYears: horizon}
	geoms := dse.ScenarioGeometries()
	scenarios := []Scenario{BE, BP, BU}
	cmps, err := scenarioComparisons(scenarioGeomList(scenarios, geoms), opt)
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		cmp := cmps[i]
		bWorst, _ := cmp.Baseline.Util.Max()
		pWorst, _ := cmp.Proposed.Util.Max()
		out.Series = append(out.Series, Fig8Series{
			Scenario:      sc,
			Geom:          geoms[sc],
			BaselineDuty:  append([]float64(nil), cmp.Baseline.Util.Duty...),
			ProposedDuty:  append([]float64(nil), cmp.Proposed.Util.Duty...),
			BaselineWorst: bWorst,
			ProposedWorst: pWorst,
			BaselineDelay: model.DelaySeries(bWorst, horizon, 4),
			ProposedDelay: model.DelaySeries(pWorst, horizon, 4),
		})
	}
	return out, nil
}

// Render prints the utilization PDFs and compact delay curves.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 - utilization distributions and NBTI delay increase\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n[%s %v]\n", s.Scenario, s.Geom)
		b.WriteString(report.UtilizationPDF("  baseline utilization PDF", s.BaselineDuty, 10))
		b.WriteString(report.UtilizationPDF("  proposed utilization PDF", s.ProposedDuty, 10))
		fmt.Fprintf(&b, "  delay increase over %d years (baseline): %s (%.1f%% at end)\n",
			r.HorizonYears, report.Sparkline(delayValues(s.BaselineDelay)),
			100*s.BaselineDelay[len(s.BaselineDelay)-1].Increase)
		fmt.Fprintf(&b, "  delay increase over %d years (proposed): %s (%.1f%% at end)\n",
			r.HorizonYears, report.Sparkline(delayValues(s.ProposedDelay)),
			100*s.ProposedDelay[len(s.ProposedDelay)-1].Increase)
	}
	return b.String()
}

func scenarioGeomList(scs []Scenario, geoms map[Scenario]Geometry) []Geometry {
	out := make([]Geometry, len(scs))
	for i, sc := range scs {
		out[i] = geoms[sc]
	}
	return out
}

func delayValues(pts []aging.DelayPoint) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Increase
	}
	return out
}

// ---------------------------------------------------------------------------
// Table I — utilization and lifetime improvements.

// Table1Row is one scenario row of Table I.
type Table1Row struct {
	Scenario      Scenario
	Geom          Geometry
	AvgUtil       float64
	BaselineWorst float64
	ProposedWorst float64
	// LifetimeImprovement is baseline-worst / proposed-worst, per Eq. 1.
	LifetimeImprovement float64
	// BaselineLifetimeYears and ProposedLifetimeYears are the 10%-delay
	// end-of-life estimates.
	BaselineLifetimeYears float64
	ProposedLifetimeYears float64
	// PerfOverhead is the proposed allocator's execution-time overhead.
	PerfOverhead float64
}

// Table1Result is the full Table I.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces the paper's Table I on the three scenarios.
func Table1(opt ExperimentOptions) (*Table1Result, error) {
	model := aging.NewModel()
	out := &Table1Result{}
	geoms := dse.ScenarioGeometries()
	scenarios := []Scenario{BE, BP, BU}
	cmps, err := scenarioComparisons(scenarioGeomList(scenarios, geoms), opt)
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		cmp := cmps[i]
		bWorst, _ := cmp.Baseline.Util.Max()
		pWorst, _ := cmp.Proposed.Util.Max()
		out.Rows = append(out.Rows, Table1Row{
			Scenario:              sc,
			Geom:                  geoms[sc],
			AvgUtil:               cmp.Baseline.Util.Avg(),
			BaselineWorst:         bWorst,
			ProposedWorst:         pWorst,
			LifetimeImprovement:   model.Improvement(bWorst, pWorst),
			BaselineLifetimeYears: model.Lifetime(bWorst),
			ProposedLifetimeYears: model.Lifetime(pWorst),
			PerfOverhead:          float64(cmp.Proposed.TRCycles)/float64(cmp.Baseline.TRCycles) - 1,
		})
	}
	return out, nil
}

// Render prints Table I.
func (r *Table1Result) Render() string {
	tab := &report.Table{Header: []string{
		"Scenario", "Avg util", "Baseline worst", "Proposed worst",
		"Lifetime improv.", "Life (base)", "Life (prop)", "Perf overhead",
	}}
	for _, row := range r.Rows {
		tab.AddRow(
			fmt.Sprintf("%s %v", row.Scenario, row.Geom),
			fmt.Sprintf("%.1f%%", 100*row.AvgUtil),
			fmt.Sprintf("%.1f%%", 100*row.BaselineWorst),
			fmt.Sprintf("%.1f%%", 100*row.ProposedWorst),
			fmt.Sprintf("%.2fx", row.LifetimeImprovement),
			fmt.Sprintf("%.1fy", row.BaselineLifetimeYears),
			fmt.Sprintf("%.1fy", row.ProposedLifetimeYears),
			fmt.Sprintf("%.2f%%", 100*row.PerfOverhead),
		)
	}
	return "Table I - utilization and lifetime improvements\n" + tab.String()
}

// ---------------------------------------------------------------------------
// Table II — area overhead.

// Table2Result is the area comparison on the BE design.
type Table2Result struct {
	Overhead area.Overhead
	// CriticalPathBasePs and CriticalPathModPs are the single-column data
	// critical paths.
	CriticalPathBasePs float64
	CriticalPathModPs  float64
	// Movement itemises the added hardware.
	Movement area.Breakdown
}

// Table2 evaluates the structural area model on the BE design.
func Table2() *Table2Result {
	m := area.NewModel()
	g := dse.ScenarioGeometries()[BE]
	return &Table2Result{
		Overhead:           m.Overhead(g),
		CriticalPathBasePs: m.ColumnCriticalPathPs(g, false),
		CriticalPathModPs:  m.ColumnCriticalPathPs(g, true),
		Movement:           m.MovementHardware(g),
	}
}

// Render prints Table II plus the latency check.
func (r *Table2Result) Render() string {
	o := r.Overhead
	tab := &report.Table{Header: []string{"", "Baseline", "Modified"}}
	tab.AddRow("Area [um2]",
		fmt.Sprintf("%.0f", o.BaselineArea),
		fmt.Sprintf("%.0f (%+.2f%%)", o.ModifiedArea, 100*o.AreaIncrease()))
	tab.AddRow("# Cells",
		fmt.Sprintf("%d", o.BaselineCells),
		fmt.Sprintf("%d (%+.2f%%)", o.ModifiedCells, 100*o.CellsIncrease()))
	tab.AddRow("Column critical path [ps]",
		fmt.Sprintf("%.0f", r.CriticalPathBasePs),
		fmt.Sprintf("%.0f", r.CriticalPathModPs))
	var b strings.Builder
	fmt.Fprintf(&b, "Table II - CGRA area overhead (%v)\n", o.Geom)
	b.WriteString(tab.String())
	b.WriteString("movement hardware:\n")
	for _, c := range r.Movement.Components {
		fmt.Fprintf(&b, "  %-24s %7d cells %9.0f um2\n", c.Name, c.Cells, c.Area)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Convenience: suite-wide utilization flatness metrics for ablations.

// FlatnessMetrics summarises how evenly a run spread its stress.
type FlatnessMetrics struct {
	Max  float64
	Avg  float64
	CoV  float64
	Gini float64
}

// Flatness computes dispersion metrics over a suite result's duty map.
func Flatness(s *SuiteResult) FlatnessMetrics {
	duty := s.Util.Duty
	m, _ := s.Util.Max()
	return FlatnessMetrics{
		Max:  m,
		Avg:  s.Util.Avg(),
		CoV:  stats.CoV(duty),
		Gini: stats.Gini(duty),
	}
}

// SuiteOnce runs the suite for an arbitrary geometry/allocator pair; the
// ablation benches build on it.
func SuiteOnce(g Geometry, allocator string, opt ExperimentOptions) (*SuiteResult, error) {
	factory, err := allocatorFactory(allocator)
	if err != nil {
		return nil, err
	}
	return dse.RunSuite(g, factory, opt.dseOptions())
}

// ValidateSuiteSmall is a convenience used by tests and the repro command:
// it checks every benchmark still produces its golden checksum at the
// given size on the plain interpreter.
func ValidateSuiteSmall(size Size) error {
	for _, b := range prog.All() {
		if _, _, err := b.RunReference(size); err != nil {
			return err
		}
	}
	return nil
}
