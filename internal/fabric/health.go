package fabric

import "fmt"

// Health tracks which FU cells of a fabric are still functional. It is the
// first-class form of the failure-injection mechanism: the mapper consults it
// when placing new configurations, the aging-mitigation controller consults
// it when choosing pivots, and the lifetime simulator mutates it as cells
// cross the end-of-life delay threshold.
//
// A Health is owned by one simulated fabric instance and is not safe for
// concurrent mutation; scenario sweeps give every scenario its own Health.
type Health struct {
	geom      Geometry
	dead      []bool
	deadCount int
	version   uint64
}

// NewHealth builds an all-alive health map for the geometry.
func NewHealth(g Geometry) *Health {
	return &Health{geom: g, dead: make([]bool, g.NumFUs())}
}

// NewHealthWithDead builds a health map with the given cells already failed.
// Out-of-range cells are rejected.
func NewHealthWithDead(g Geometry, dead []Cell) (*Health, error) {
	h := NewHealth(g)
	for _, c := range dead {
		if !h.inRange(c) {
			return nil, fmt.Errorf("fabric: dead cell %v outside geometry %v", c, g)
		}
		h.Kill(c)
	}
	return h, nil
}

// Geometry returns the fabric geometry the health map covers.
func (h *Health) Geometry() Geometry { return h.geom }

func (h *Health) inRange(c Cell) bool {
	return c.Row >= 0 && c.Row < h.geom.Rows && c.Col >= 0 && c.Col < h.geom.Cols
}

// Kill marks a cell as failed. It reports whether the cell was newly killed
// (false for repeated kills and out-of-range cells).
func (h *Health) Kill(c Cell) bool {
	if !h.inRange(c) {
		return false
	}
	i := c.Row*h.geom.Cols + c.Col
	if h.dead[i] {
		return false
	}
	h.dead[i] = true
	h.deadCount++
	h.version++
	return true
}

// Revive marks a failed cell functional again and reports whether the cell
// was newly revived (false for live and out-of-range cells). Ground-truth
// aging never revives — hard failures are permanent — but the recovery
// layer's *observed* health map uses it when a quarantined cell passes
// probation: the quarantine was the runtime's belief, not physics.
func (h *Health) Revive(c Cell) bool {
	if !h.inRange(c) {
		return false
	}
	i := c.Row*h.geom.Cols + c.Col
	if !h.dead[i] {
		return false
	}
	h.dead[i] = false
	h.deadCount--
	h.version++
	return true
}

// Dead reports whether the cell has failed. Out-of-range cells read as dead.
func (h *Health) Dead(c Cell) bool {
	if !h.inRange(c) {
		return true
	}
	return h.dead[c.Row*h.geom.Cols+c.Col]
}

// Alive is the complement of Dead.
func (h *Health) Alive(c Cell) bool { return !h.Dead(c) }

// DeadCount returns the number of failed cells.
func (h *Health) DeadCount() int { return h.deadCount }

// AliveFraction returns the surviving fraction of the fabric.
func (h *Health) AliveFraction() float64 {
	n := h.geom.NumFUs()
	if n == 0 {
		return 0
	}
	return float64(n-h.deadCount) / float64(n)
}

// DeadCells lists the failed cells in row-major order.
func (h *Health) DeadCells() []Cell {
	out := make([]Cell, 0, h.deadCount)
	for r := 0; r < h.geom.Rows; r++ {
		for c := 0; c < h.geom.Cols; c++ {
			if h.dead[r*h.geom.Cols+c] {
				out = append(out, Cell{Row: r, Col: c})
			}
		}
	}
	return out
}

// DeadMask exposes the row-major liveness bitmap for read-only scanning:
// hot placement scans index it directly instead of paying a bounds check
// and index computation per Dead call. The slice aliases the health map's
// state — callers must not modify it, and must not hold it across
// mutations they cannot observe (a StateKey guards that).
func (h *Health) DeadMask() []bool { return h.dead }

// PlacementOK reports whether shifting a configuration occupying the given
// virtual cells by off would keep every op on a live FU.
func (h *Health) PlacementOK(cells []Cell, off Offset) bool {
	for _, c := range cells {
		p := off.Apply(c, h.geom)
		if h.dead[p.Row*h.geom.Cols+p.Col] {
			return false
		}
	}
	return true
}

// LivePivots answers PlacementOK for every pivot at once: dst[r*Cols+c]
// becomes PlacementOK(cells, Offset{r, c}). dst must hold NumFUs entries.
// Rather than testing every pivot against every cell, it clears the pivot
// each (dead cell, occupied cell) pair rules out, (dead − occupied) mod the
// geometry, so the cost is dead cells × cells instead of pivots × cells.
func (h *Health) LivePivots(cells []Cell, dst []bool) {
	for i := range dst {
		dst[i] = true
	}
	if h.deadCount == 0 {
		return
	}
	rows, cols := h.geom.Rows, h.geom.Cols
	for i, dead := range h.dead {
		if !dead {
			continue
		}
		dr, dc := i/cols, i%cols
		for _, c := range cells {
			r := (dr - c.Row%rows + rows) % rows
			col := (dc - c.Col%cols + cols) % cols
			dst[r*cols+col] = false
		}
	}
}
