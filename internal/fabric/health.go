package fabric

import "fmt"

// Health tracks which FU cells of a fabric are still functional. It is the
// first-class form of the failure-injection mechanism: the mapper consults it
// when placing new configurations, the aging-mitigation controller consults
// it when choosing pivots, and the lifetime simulator mutates it as cells
// cross the end-of-life delay threshold.
//
// A Health is owned by one simulated fabric instance and is not safe for
// concurrent use (Config.LivePivots caches in it); scenario sweeps give
// every scenario its own Health.
// Memos key on its dead cells by content (StateKey).
type Health struct {
	// The fields a placement reads come first, so they share a cache line
	// with the mask's first word.
	deadCount int
	// key is an immutable copy of the current dead set, which
	// Config.LivePivots shares among the masks it builds. A change drops it.
	key  *liveKey
	geom Geometry
	dead Mask
}

// NewHealth builds an all-alive health map for the geometry, which must
// pass Validate.
func NewHealth(g Geometry) *Health { return &Health{geom: g} }

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
	if h.dead.Has(i) {
		return false
	}
	h.dead[i>>6] |= 1 << (i & 63)
	h.deadCount++
	h.key = nil
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
	if !h.dead.Has(i) {
		return false
	}
	h.dead[i>>6] &^= 1 << (i & 63)
	h.deadCount--
	h.key = nil
	return true
}

// Dead reports whether the cell has failed. Out-of-range cells read as dead.
func (h *Health) Dead(c Cell) bool {
	if !h.inRange(c) {
		return true
	}
	return h.dead.Has(c.Row*h.geom.Cols + c.Col)
}

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
	h.dead.each(func(i int) {
		out = append(out, Cell{Row: i / h.geom.Cols, Col: i % h.geom.Cols})
	})
	return out
}

// Mask returns the dead-cell set. A nil map reads as all-alive.
func (h *Health) Mask() Mask {
	if h == nil {
		return Mask{}
	}
	return h.dead
}

// Matches reports whether m holds exactly h's dead cells. It compares only
// the words h's geometry uses, so m must come from a map of the same
// geometry (or be empty). A nil map matches the empty set.
func (h *Health) Matches(m *Mask) bool {
	if h == nil {
		var or uint64
		for _, w := range m {
			or |= w
		}
		return or == 0
	}
	n := (h.geom.Rows*h.geom.Cols + 63) >> 6
	a, b := h.dead[:n], m[:n]
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PlacementOK reports whether shifting a configuration occupying the given
// virtual cells by off would keep every op on a live FU.
func (h *Health) PlacementOK(cells []Cell, off Offset) bool {
	return !h.dead.Hits(cells, off, h.geom)
}
