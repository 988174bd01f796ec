// Package dse runs the paper's design-space exploration (Section IV.B,
// Fig. 6): the MiBench-style suite over every fabric size L ∈ {8,16,24,32}
// × W ∈ {2,4,8}, producing relative execution time, relative energy and
// average FU occupancy versus the stand-alone GPP, and selecting the BE /
// BP / BU scenarios the aging evaluation uses.
package dse

import (
	"fmt"

	"agingcgra/internal/alloc"
	"agingcgra/internal/core"
	"agingcgra/internal/dbt"
	"agingcgra/internal/energy"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/prog"
	"agingcgra/internal/remap"
)

// AllocatorFactory builds a fresh allocator for a geometry.
type AllocatorFactory func(fabric.Geometry) alloc.Allocator

// BaselineFactory builds the utilization-unaware allocator.
func BaselineFactory(fabric.Geometry) alloc.Allocator { return alloc.Baseline{} }

// ProposedFactory builds the paper's utilization-aware allocator with the
// default snake pattern.
func ProposedFactory(g fabric.Geometry) alloc.Allocator { return alloc.NewUtilizationAware(g) }

// ExploreFactory builds the wear-aware placement explorer: instead of
// rotating blindly it searches the live pivots for the placement minimising
// the maximum projected ΔVt, fed by the lifetime simulator's accumulated
// wear map.
func ExploreFactory(g fabric.Geometry) alloc.Allocator { return explore.New(g) }

// RemapFactory builds the shape-adaptive remapper: the explorer's wear-
// scored pivot choice plus configuration re-mapping to alternative shapes
// when clustered failures block every pivot of the original rectangle.
func RemapFactory(g fabric.Geometry) alloc.Allocator { return remap.New(g) }

// LadderRemapFactory builds the shape-adaptive remapper searching a
// specific candidate shape ladder — the shape-ladder DSE pairs it with the
// same ladder on the DBT side (dbt.Options.Ladder), so the allocation-time
// rescue and the translation-time search explore one space.
func LadderRemapFactory(l fabric.ShapeLadder) AllocatorFactory {
	return func(g fabric.Geometry) alloc.Allocator { return remap.New(g, remap.WithLadder(l)) }
}

// BenchResult holds one benchmark's outcome on one design.
type BenchResult struct {
	Name      string
	GPPCycles uint64
	TRCycles  uint64
	Report    *dbt.Report
}

// Speedup is GPP cycles / TransRec cycles.
func (b BenchResult) Speedup() float64 {
	if b.TRCycles == 0 {
		return 0
	}
	return float64(b.GPPCycles) / float64(b.TRCycles)
}

// SuiteResult aggregates the whole suite on one design with one allocator.
type SuiteResult struct {
	Geom          fabric.Geometry
	AllocatorName string
	Size          prog.Size

	PerBench []BenchResult

	// Suite totals.
	GPPCycles  uint64 // stand-alone GPP
	TRCycles   uint64 // TransRec
	GPPEnergy  float64
	TREnergy   float64
	Offloads   uint64
	EarlyExits uint64

	// Util is the stress-aggregated utilization over the whole suite: the
	// map the paper's Fig. 1 and Fig. 7 heat maps show.
	Util *core.UtilizationMap
}

// RelTime is suite execution time relative to the GPP (lower is faster).
func (s *SuiteResult) RelTime() float64 {
	if s.GPPCycles == 0 {
		return 0
	}
	return float64(s.TRCycles) / float64(s.GPPCycles)
}

// Speedup is the inverse of RelTime.
func (s *SuiteResult) Speedup() float64 {
	if s.TRCycles == 0 {
		return 0
	}
	return float64(s.GPPCycles) / float64(s.TRCycles)
}

// RelEnergy is suite energy relative to the GPP (lower is better).
func (s *SuiteResult) RelEnergy() float64 {
	if s.GPPEnergy == 0 {
		return 0
	}
	return s.TREnergy / s.GPPEnergy
}

// AvgUtil is the mean FU duty cycle.
func (s *SuiteResult) AvgUtil() float64 { return s.Util.Avg() }

// WorstUtil is the highest FU duty cycle; it determines lifetime.
func (s *SuiteResult) WorstUtil() float64 {
	m, _ := s.Util.Max()
	return m
}

// Options tunes a suite run.
type Options struct {
	// Size selects the input scale (default Small, the paper's setting).
	Size prog.Size
	// Benchmarks restricts the suite (default: all ten).
	Benchmarks []string
	// Model is the energy model (default Calibrated).
	Model *energy.Model
	// Engine propagates engine options other than Geom/Allocator/Controller.
	Engine dbt.Options
	// Workers bounds sweep parallelism: 0 selects runtime.GOMAXPROCS, 1
	// forces the serial path. Individual suite runs are always sequential (the
	// benchmarks accumulate stress on one shared fabric); parallelism is
	// across design points.
	Workers int
	// Refs memoizes the stand-alone GPP reference runs and retire streams
	// across design points; nil means each RunSuite records its own (Sweep
	// and RunPoints install a shared cache automatically).
	Refs *RefCache
}

// RunSuite executes the benchmark suite on one design point with one
// allocator, accumulating stress on a single shared fabric.
func RunSuite(geom fabric.Geometry, factory AllocatorFactory, opt Options) (*SuiteResult, error) {
	if factory == nil {
		factory = BaselineFactory
	}
	model := energy.Calibrated()
	if opt.Model != nil {
		model = *opt.Model
	}
	size := opt.Size
	names := opt.Benchmarks
	if len(names) == 0 {
		names = prog.Names()
	}

	refs := opt.Refs
	if refs == nil {
		refs = NewRefCache()
	}

	allocator := factory(geom)
	ctrl, err := core.NewController(geom, allocator)
	if err != nil {
		return nil, err
	}

	res := &SuiteResult{
		Geom:          geom,
		AllocatorName: allocator.Name(),
		Size:          size,
	}

	for _, name := range names {
		b, ok := prog.ByName(name)
		if !ok {
			return nil, fmt.Errorf("dse: unknown benchmark %q", name)
		}

		// Stand-alone GPP reference and retire stream, shared across
		// design points through opt.Refs: both depend only on the
		// benchmark, size and timing, never on the geometry or allocator.
		ref, err := refs.Get(b, size, opt.Engine.Timing)
		if err != nil {
			return nil, fmt.Errorf("dse: %s gpp-only: %w", name, err)
		}

		// TransRec run sharing the suite controller.
		eopts := opt.Engine
		eopts.Geom = geom
		eopts.Controller = ctrl
		eng, err := dbt.NewEngine(eopts)
		if err != nil {
			return nil, err
		}
		rep, err := eng.RunStream(ref.Stream)
		if err != nil {
			return nil, fmt.Errorf("dse: %s transrec: %w", name, err)
		}

		res.PerBench = append(res.PerBench, BenchResult{
			Name:      name,
			GPPCycles: ref.Cycles,
			TRCycles:  rep.TotalCycles,
			Report:    rep,
		})
		res.GPPCycles += ref.Cycles
		res.TRCycles += rep.TotalCycles
		res.GPPEnergy += model.GPPEnergy(ref.Cycles, ref.Classes)
		res.TREnergy += model.TransRecEnergy(rep)
		res.Offloads += rep.Offloads
		res.EarlyExits += rep.EarlyExits
	}

	res.Util = ctrl.Utilization()
	return res, nil
}

// GridPoint is one (W, L) fabric size of the exploration.
type GridPoint struct{ Rows, Cols int }

// Grid returns the paper's 12 design points: L from 8 to 32, W from 2 to 8.
func Grid() []GridPoint {
	var out []GridPoint
	for _, cols := range []int{8, 16, 24, 32} {
		for _, rows := range []int{2, 4, 8} {
			out = append(out, GridPoint{Rows: rows, Cols: cols})
		}
	}
	return out
}

// Sweep runs the suite over every grid point, fanning the points out over
// opt.Workers goroutines (0 selects runtime.GOMAXPROCS). Results are in point
// order and identical to a serial sweep.
func Sweep(points []GridPoint, factory AllocatorFactory, opt Options) ([]*SuiteResult, error) {
	if len(points) == 0 {
		points = Grid()
	}
	pts := make([]Point, len(points))
	for i, p := range points {
		pts[i] = Point{Geom: fabric.NewGeometry(p.Rows, p.Cols), Factory: factory}
	}
	return RunPoints(pts, opt)
}

// Scenario identifies the three designs of interest the paper selects.
type Scenario int

const (
	// BE is the best-energy design, (L16, W2) in the paper.
	BE Scenario = iota
	// BP is the best-performance design, (L32, W4) in the paper.
	BP
	// BU is the lowest-utilization design, (L32, W8) in the paper.
	BU
)

func (s Scenario) String() string {
	switch s {
	case BE:
		return "BE"
	case BP:
		return "BP"
	case BU:
		return "BU"
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// ScenarioGeometries returns the paper's chosen design points.
func ScenarioGeometries() map[Scenario]fabric.Geometry {
	return map[Scenario]fabric.Geometry{
		BE: fabric.NewGeometry(2, 16),
		BP: fabric.NewGeometry(4, 32),
		BU: fabric.NewGeometry(8, 32),
	}
}

// SelectScenarios picks BE (minimum energy), BP (minimum time; designs
// within half a percent count as equally fast, as in the paper where
// (L32,W4) and (L32,W8) share the same speedup, and the cheaper one wins)
// and BU (minimum average utilization) from sweep results.
func SelectScenarios(results []*SuiteResult) map[Scenario]*SuiteResult {
	const timeTie = 0.005
	out := make(map[Scenario]*SuiteResult, 3)
	for _, r := range results {
		if be, ok := out[BE]; !ok || r.RelEnergy() < be.RelEnergy() {
			out[BE] = r
		}
		if bp, ok := out[BP]; !ok ||
			r.RelTime() < bp.RelTime()-timeTie ||
			(abs(r.RelTime()-bp.RelTime()) <= timeTie && r.RelEnergy() < bp.RelEnergy()) {
			out[BP] = r
		}
		if bu, ok := out[BU]; !ok || r.AvgUtil() < bu.AvgUtil() {
			out[BU] = r
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
