package agingcgra

import (
	"fmt"
	"slices"
	"strings"

	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/report"
)

// The explorer and shape sweeps both run on the BE design (2×16) with a
// crc32 mix in half-year epochs: parameters no sweep varies.
const (
	sweepRows, sweepCols = 2, 16
	sweepBenchmark       = "crc32"
	sweepEpochYears      = 0.5
)

// sweepOutcome is the lifetime summary every sweep point reports.
type sweepOutcome struct {
	FirstDeath     float64 `json:"first_death_years"`
	SecondDeath    float64 `json:"second_death_years"`
	ThirdDeath     float64 `json:"third_death_years"`
	TotalDeaths    int     `json:"total_deaths"`
	AliveFraction  float64 `json:"alive_fraction"`
	InitialSpeedup float64 `json:"initial_speedup"`
	FinalSpeedup   float64 `json:"final_speedup"`
}

// gridVariant is one point of a sweep's own axis: the scenario name
// fragment, the allocator and engine options it runs under, and how its
// outcome under one failure becomes the sweep's point P. search is the
// derived per-offload search overhead (0 without a search report).
type gridVariant[P any] struct {
	name    string
	factory dse.AllocatorFactory
	engine  dbt.Options
	point   func(failure string, o sweepOutcome, search float64) P
}

// runFailureGrid runs every variant under every named failure pattern on
// g, failures outermost, as one lifetime scenario batch: deterministic
// point order, byte-identical results between serial and parallel runs.
// variants is called once the first failure resolves, so a bad first
// failure name is reported before a bad variant. A failure named twice is
// an error: both copies would run and print every row twice.
func runFailureGrid[P any](g fabric.Geometry, failures []string, size Size, maxYears float64, workers int,
	variants func() ([]gridVariant[P], error)) ([]P, error) {
	var vs []gridVariant[P]
	var scs []lifetime.Scenario
	for i, failure := range failures {
		dead, err := fabric.PatternCells(failure, g)
		if err != nil {
			return nil, err
		}
		if slices.Contains(failures[:i], failure) {
			return nil, fmt.Errorf("agingcgra: failure pattern %q is repeated", failure)
		}
		if i == 0 {
			if vs, err = variants(); err != nil {
				return nil, err
			}
		}
		for _, v := range vs {
			scs = append(scs, lifetime.Scenario{
				Name:        fmt.Sprintf("%v/%s/%s", g, v.name, failure),
				Geom:        g,
				Factory:     v.factory,
				Mix:         []string{sweepBenchmark},
				Size:        size,
				EpochYears:  sweepEpochYears,
				MaxYears:    maxYears,
				InitialDead: dead,
				Engine:      v.engine,
			})
		}
	}

	results, err := lifetime.RunScenarios(scs, workers)
	if err != nil {
		return nil, err
	}
	points := make([]P, len(results))
	for i, r := range results {
		var search float64
		if r.Search != nil {
			search = r.Search.PerOffloadCycles
		}
		points[i] = vs[i%len(vs)].point(failures[i/len(vs)], sweepOutcome{
			FirstDeath:     r.NthDeathYears(1),
			SecondDeath:    r.NthDeathYears(2),
			ThirdDeath:     r.NthDeathYears(3),
			TotalDeaths:    r.TotalDeaths,
			AliveFraction:  r.AliveFraction,
			InitialSpeedup: r.InitialSpeedup,
			FinalSpeedup:   r.FinalSpeedup,
		}, search)
	}
	return points, nil
}

// gridColumns names a sweep's own columns around the shared outcome
// columns: its key columns before them and an optional extra after, each
// with its table and its CSV header.
type gridColumns struct {
	keys, csvKeys   []string
	extra, csvExtra []string
}

// gridRow is one point's cells in its sweep's gridColumns.
type gridRow struct {
	failure string
	sweepOutcome
	keys, csvKeys   []string
	extra, csvExtra []string
}

// render prints the rows under title, one table per failure scenario in
// order of first appearance.
func (c gridColumns) render(title string, rows []gridRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	byFailure := make(map[string][]gridRow)
	var order []string
	for _, row := range rows {
		if _, ok := byFailure[row.failure]; !ok {
			order = append(order, row.failure)
		}
		byFailure[row.failure] = append(byFailure[row.failure], row)
	}
	header := slices.Concat(c.keys,
		[]string{"1st death", "2nd death", "3rd death", "deaths", "alive", "speedup@0", "speedup@end"}, c.extra)
	death := func(y float64) string {
		if y == 0 {
			return "none"
		}
		return fmt.Sprintf("%.2fy", y)
	}
	for _, failure := range order {
		fmt.Fprintf(&b, "\n[failure: %s]\n", failure)
		tab := &report.Table{Header: header}
		for _, row := range byFailure[failure] {
			tab.AddRow(slices.Concat(row.keys, []string{
				death(row.FirstDeath), death(row.SecondDeath), death(row.ThirdDeath),
				fmt.Sprintf("%d", row.TotalDeaths),
				fmt.Sprintf("%.0f%%", 100*row.AliveFraction),
				fmt.Sprintf("%.2f", row.InitialSpeedup),
				fmt.Sprintf("%.2f", row.FinalSpeedup),
			}, row.extra)...)
		}
		b.WriteString(tab.String())
	}
	return b.String()
}

// csvHeader names the csvRows columns.
func (c gridColumns) csvHeader() []string {
	return slices.Concat([]string{"failure"}, c.csvKeys, []string{
		"first_death_years", "second_death_years", "third_death_years",
		"total_deaths", "alive_fraction", "initial_speedup", "final_speedup",
	}, c.csvExtra)
}

// csvRows flattens the rows for report.WriteCSV, matching csvHeader.
func csvRows(rows []gridRow) [][]string {
	f := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	out := make([][]string, 0, len(rows))
	for _, row := range rows {
		out = append(out, slices.Concat([]string{row.failure}, row.csvKeys, []string{
			f(row.FirstDeath), f(row.SecondDeath), f(row.ThirdDeath),
			fmt.Sprintf("%d", row.TotalDeaths),
			f(row.AliveFraction), f(row.InitialSpeedup), f(row.FinalSpeedup),
		}, row.csvExtra))
	}
	return out
}
