package fabric

import (
	"fmt"
	"strconv"
	"strings"
)

// Clustered-failure patterns: the named dead-cell layouts the shape-adaptive
// remap evaluation injects. Real end-of-life failures correlate spatially —
// a shared power rail takes out a column, a hot corner takes out a quadrant
// — and clustered deaths are exactly what pivot translation alone cannot
// route around, so these patterns are the stress inputs for the remap
// allocator and the lifetime simulator's InitialDead injection.

// DeadColumnCells returns every cell of physical column col (both rows of
// the BE design, all W rows in general): the shared-column failure that
// blocks any configuration spanning the full fabric length.
func DeadColumnCells(g Geometry, col int) []Cell {
	out := make([]Cell, 0, g.Rows)
	for r := 0; r < g.Rows; r++ {
		out = append(out, Cell{Row: r, Col: col})
	}
	return out
}

// DeadColumnsCells returns the union of several dead columns.
func DeadColumnsCells(g Geometry, cols ...int) []Cell {
	var out []Cell
	for _, c := range cols {
		out = append(out, DeadColumnCells(g, c)...)
	}
	return out
}

// DeadQuadrantCells returns the top-left quadrant: rows [0, ceil(R/2)) ×
// columns [0, ceil(C/2)).
func DeadQuadrantCells(g Geometry) []Cell {
	rows := (g.Rows + 1) / 2
	cols := (g.Cols + 1) / 2
	out := make([]Cell, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out = append(out, Cell{Row: r, Col: c})
		}
	}
	return out
}

// CheckerboardCells returns every cell whose row+column parity matches
// parity (0 or 1): the worst-case scattered cluster, leaving no two
// horizontally adjacent live cells, so no multi-column op can be placed
// anywhere.
func CheckerboardCells(g Geometry, parity int) []Cell {
	var out []Cell
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if (r+c)%2 == parity&1 {
				out = append(out, Cell{Row: r, Col: c})
			}
		}
	}
	return out
}

// SurvivorRowCells returns every cell outside row survivor: the whole
// fabric dead except one row, the extreme case where only a 1×L shape
// still fits.
func SurvivorRowCells(g Geometry, survivor int) []Cell {
	var out []Cell
	for r := 0; r < g.Rows; r++ {
		if r == survivor {
			continue
		}
		for c := 0; c < g.Cols; c++ {
			out = append(out, Cell{Row: r, Col: c})
		}
	}
	return out
}

// PatternCells resolves a named failure pattern for a geometry. Recognised
// names (an optional ":index" selects the column / parity / survivor row,
// defaulting to the fabric middle, parity 0 and row 0 respectively):
//
//	healthy | none            no dead cells
//	column[:c]               one dead column (default C/2)
//	columns:c1+c2+...        several dead columns
//	quadrant                 the top-left quadrant
//	checkerboard[:parity]    every cell of one checkerboard parity
//	survivor-row[:r]         everything except row r
func PatternCells(name string, g Geometry) ([]Cell, error) {
	base, arg, hasArg := strings.Cut(name, ":")
	idx := func(def, max int) (int, error) {
		if !hasArg {
			return def, nil
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 || n >= max {
			return 0, fmt.Errorf("fabric: pattern %q: index must be in [0,%d)", name, max)
		}
		return n, nil
	}
	switch base {
	case "healthy", "none", "":
		return nil, nil
	case "column", "dead-column":
		c, err := idx(g.Cols/2, g.Cols)
		if err != nil {
			return nil, err
		}
		return DeadColumnCells(g, c), nil
	case "columns", "dead-columns":
		if !hasArg {
			return nil, fmt.Errorf("fabric: pattern %q needs columns, e.g. columns:0+8", name)
		}
		var cols []int
		for _, s := range strings.Split(arg, "+") {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 || n >= g.Cols {
				return nil, fmt.Errorf("fabric: pattern %q: column %q must be in [0,%d)", name, s, g.Cols)
			}
			cols = append(cols, n)
		}
		// A repeated column (columns:0+0) must not yield duplicate cells:
		// injecting the list into a health map would double-count deaths.
		return dedupCells(DeadColumnsCells(g, cols...)), nil
	case "quadrant", "dead-quadrant":
		return DeadQuadrantCells(g), nil
	case "checkerboard", "checker":
		p, err := idx(0, 2)
		if err != nil {
			return nil, err
		}
		return CheckerboardCells(g, p), nil
	case "survivor-row", "row-survivor":
		r, err := idx(0, g.Rows)
		if err != nil {
			return nil, err
		}
		return SurvivorRowCells(g, r), nil
	}
	return nil, fmt.Errorf("fabric: unknown failure pattern %q (want healthy, column[:c], columns:c1+c2, quadrant, checkerboard[:p], survivor-row[:r])", name)
}

// dedupCells drops repeated cells, preserving first-occurrence order.
func dedupCells(cells []Cell) []Cell {
	seen := make(map[Cell]bool, len(cells))
	out := cells[:0]
	for _, c := range cells {
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
