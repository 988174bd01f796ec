package agingcgra

import (
	"fmt"
	"math"
	"slices"

	"agingcgra/internal/alloc"
	"agingcgra/internal/dbt"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
)

// ExplorerSweepOptions configures the wear-aware explorer's own
// design-space exploration: the (projection horizon × recompute period)
// grid the explorer's defaults were never swept over, crossed with
// clustered-failure scenarios so the adaptivity actually has failures to
// adapt to. Every point is one lifetime simulation under stale
// translations (configurations mapped for the pristine fabric), the
// regime where the pattern decides how long the fabric stays useful.
type ExplorerSweepOptions struct {
	// Horizons lists the projection horizons in years
	// (default 0.25, 1, 4 — around the unswept default of 1).
	Horizons []float64
	// Periods lists the recompute periods in executions
	// (default 4, 16, 64 — around the unswept default of 16).
	Periods []int
	// Failures lists named failure patterns injected before the first
	// epoch (fabric.PatternCells; default healthy, column, quadrant).
	Failures []string
	// Size is the workload scale (default Tiny).
	Size Size
	// MaxYears is the simulated horizon (default 20).
	MaxYears float64
	// Workers bounds scenario parallelism (0: runtime.GOMAXPROCS, 1:
	// serial).
	Workers int
}

func (o *ExplorerSweepOptions) applyDefaults() {
	if len(o.Horizons) == 0 {
		o.Horizons = []float64{0.25, 1, 4}
	}
	if len(o.Periods) == 0 {
		o.Periods = []int{4, 16, 64}
	}
	if len(o.Failures) == 0 {
		o.Failures = []string{"healthy", "column", "quadrant"}
	}
	if o.MaxYears == 0 {
		o.MaxYears = 20
	}
}

// ExplorerSweepPoint is one (horizon, period, failure) outcome.
type ExplorerSweepPoint struct {
	HorizonYears float64 `json:"horizon_years"`
	Period       int     `json:"period"`
	Failure      string  `json:"failure"`
	sweepOutcome
}

// ExplorerSweepResult is the full grid in deterministic order: failures
// outermost, then horizons, then periods.
type ExplorerSweepResult struct {
	Geom   Geometry             `json:"geom"`
	Points []ExplorerSweepPoint `json:"points"`
}

// ExplorerSweep runs the (horizon × period × failure) grid through the
// lifetime engine's scenario batch: deterministic point order,
// byte-identical results between serial and parallel runs.
func ExplorerSweep(opt ExplorerSweepOptions) (*ExplorerSweepResult, error) {
	opt.applyDefaults()
	g := fabric.NewGeometry(sweepRows, sweepCols)
	variants := func() ([]gridVariant[ExplorerSweepPoint], error) {
		var vs []gridVariant[ExplorerSweepPoint]
		for i, h := range opt.Horizons {
			if !(h > 0) || math.IsInf(h, 1) {
				return nil, fmt.Errorf("agingcgra: explorer sweep horizon %v must be finite and positive", h)
			}
			if slices.Contains(opt.Horizons[:i], h) {
				return nil, fmt.Errorf("agingcgra: explorer sweep horizon %v is repeated", h)
			}
			for j, p := range opt.Periods {
				if p < 1 {
					return nil, fmt.Errorf("agingcgra: explorer sweep period %d must be >= 1", p)
				}
				if slices.Contains(opt.Periods[:j], p) {
					return nil, fmt.Errorf("agingcgra: explorer sweep period %d is repeated", p)
				}
				vs = append(vs, gridVariant[ExplorerSweepPoint]{
					name: fmt.Sprintf("explore/h=%vy/p=%d", h, p),
					factory: func(g fabric.Geometry) alloc.Allocator {
						return explore.New(g, explore.WithHorizon(h), explore.WithRecomputeEvery(p))
					},
					engine: dbt.Options{StaleTranslations: true},
					point: func(failure string, o sweepOutcome, _ float64) ExplorerSweepPoint {
						return ExplorerSweepPoint{HorizonYears: h, Period: p, Failure: failure, sweepOutcome: o}
					},
				})
			}
		}
		return vs, nil
	}
	points, err := runFailureGrid(g, opt.Failures, opt.Size, opt.MaxYears, opt.Workers, variants)
	if err != nil {
		return nil, err
	}
	return &ExplorerSweepResult{Geom: g, Points: points}, nil
}

// explorerColumns keys each point on its horizon and period.
var explorerColumns = gridColumns{
	keys:    []string{"horizon", "period"},
	csvKeys: []string{"horizon_years", "period"},
}

// rows lays the points out in explorerColumns.
func (r *ExplorerSweepResult) rows() []gridRow {
	rows := make([]gridRow, len(r.Points))
	for i, p := range r.Points {
		h, period := fmt.Sprintf("%g", p.HorizonYears), fmt.Sprintf("%d", p.Period)
		rows[i] = gridRow{failure: p.Failure, sweepOutcome: p.sweepOutcome,
			keys: []string{h + "y", period}, csvKeys: []string{h, period}}
	}
	return rows
}

// Render prints the grid as a table, one block per failure scenario.
func (r *ExplorerSweepResult) Render() string {
	title := fmt.Sprintf("Explorer DSE - projection horizon x recompute period on %v (stale translations)", r.Geom)
	return explorerColumns.render(title, r.rows())
}

// CSVRows flattens the grid for report.WriteCSV, matching CSVHeader.
func (r *ExplorerSweepResult) CSVRows() [][]string { return csvRows(r.rows()) }

// CSVHeader names the CSVRows columns.
func (r *ExplorerSweepResult) CSVHeader() []string { return explorerColumns.csvHeader() }
