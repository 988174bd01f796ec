package agingcgra

import (
	"fmt"
	"slices"

	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
)

// ShapeSweepOptions configures the shape-ladder design-space exploration:
// the candidate ladder the translation-time shape search and the remap
// rescue share was a fixed halving ladder until this sweep existed, so the
// grid crosses the named ladder variants with clustered-failure scenarios
// and reports both the lifetime outcomes and the derived search cost of
// each ladder — richer ladders search more and place better, and the sweep
// quantifies both sides of that trade.
type ShapeSweepOptions struct {
	// Ladders names the candidate shape ladders swept
	// (fabric.ShapeLadderNames; default all of them).
	Ladders []string
	// Failures lists named failure patterns injected before the first
	// epoch (fabric.PatternCells; default healthy, column, columns:0+8).
	Failures []string
	// Size is the workload scale (default Tiny).
	Size Size
	// MaxYears is the simulated horizon (default 20).
	MaxYears float64
	// Workers bounds scenario parallelism (0: runtime.GOMAXPROCS, 1:
	// serial).
	Workers int
}

func (o *ShapeSweepOptions) applyDefaults() {
	if len(o.Ladders) == 0 {
		o.Ladders = fabric.ShapeLadderNames()
	}
	if len(o.Failures) == 0 {
		o.Failures = []string{"healthy", "column", "columns:0+8"}
	}
	if o.MaxYears == 0 {
		o.MaxYears = 20
	}
}

// ShapeSweepPoint is one (ladder, failure) outcome: lifetime summary plus
// the derived search overhead the ladder cost.
type ShapeSweepPoint struct {
	Ladder  string `json:"ladder"`
	Rungs   int    `json:"rungs"`
	Failure string `json:"failure"`
	sweepOutcome
	// SearchPerOffloadCycles is the derived per-offload search overhead
	// (explorer + rescue + ladder scans) under searchcost.DefaultModel.
	SearchPerOffloadCycles float64 `json:"search_per_offload_cycles"`
}

// ShapeSweepResult is the full grid in deterministic order: failures
// outermost, then ladders.
type ShapeSweepResult struct {
	Geom   Geometry          `json:"geom"`
	Points []ShapeSweepPoint `json:"points"`
}

// ShapeSweep runs the (ladder × failure) grid through the lifetime
// engine's scenario batch: every point is the shape-adaptive remapper with
// the ladder wired into both layers (translation-time search and rescue
// scan), translation-time shape search enabled. Deterministic point order,
// byte-identical results between serial and parallel runs.
func ShapeSweep(opt ShapeSweepOptions) (*ShapeSweepResult, error) {
	opt.applyDefaults()
	g := fabric.NewGeometry(sweepRows, sweepCols)
	variants := func() ([]gridVariant[ShapeSweepPoint], error) {
		var vs []gridVariant[ShapeSweepPoint]
		var seen []string
		for _, name := range opt.Ladders {
			ladder, err := fabric.ShapeLadderByName(name)
			if err != nil {
				return nil, err
			}
			if slices.Contains(seen, ladder.Name) {
				return nil, fmt.Errorf("agingcgra: shape sweep ladder %q is repeated", name)
			}
			seen = append(seen, ladder.Name)
			vs = append(vs, gridVariant[ShapeSweepPoint]{
				name:    "shapedbt/ladder=" + ladder.Name,
				factory: dse.LadderRemapFactory(ladder),
				engine:  dbt.Options{ShapeTranslations: true, Ladder: ladder},
				point: func(failure string, o sweepOutcome, search float64) ShapeSweepPoint {
					return ShapeSweepPoint{Ladder: ladder.Name, Rungs: ladder.Len(g), Failure: failure,
						sweepOutcome: o, SearchPerOffloadCycles: search}
				},
			})
		}
		return vs, nil
	}
	points, err := runFailureGrid(g, opt.Failures, opt.Size, opt.MaxYears, opt.Workers, variants)
	if err != nil {
		return nil, err
	}
	return &ShapeSweepResult{Geom: g, Points: points}, nil
}

// shapeColumns keys each point on its ladder and closes with its search
// cost.
var shapeColumns = gridColumns{
	keys:     []string{"ladder", "rungs"},
	csvKeys:  []string{"ladder", "rungs"},
	extra:    []string{"search/offload"},
	csvExtra: []string{"search_per_offload_cycles"},
}

// rows lays the points out in shapeColumns.
func (r *ShapeSweepResult) rows() []gridRow {
	rows := make([]gridRow, len(r.Points))
	for i, p := range r.Points {
		keys := []string{p.Ladder, fmt.Sprintf("%d", p.Rungs)}
		rows[i] = gridRow{failure: p.Failure, sweepOutcome: p.sweepOutcome, keys: keys, csvKeys: keys,
			extra:    []string{fmt.Sprintf("%.1fcy", p.SearchPerOffloadCycles)},
			csvExtra: []string{fmt.Sprintf("%.6f", p.SearchPerOffloadCycles)}}
	}
	return rows
}

// Render prints the grid as a table, one block per failure scenario.
func (r *ShapeSweepResult) Render() string {
	title := fmt.Sprintf("Shape-ladder DSE - ladder variants x failure scenarios on %v (shape-aware translation)", r.Geom)
	return shapeColumns.render(title, r.rows())
}

// CSVRows flattens the grid for report.WriteCSV, matching CSVHeader.
func (r *ShapeSweepResult) CSVRows() [][]string { return csvRows(r.rows()) }

// CSVHeader names the CSVRows columns.
func (r *ShapeSweepResult) CSVHeader() []string { return shapeColumns.csvHeader() }
