// Package core is the home of the paper's primary contribution: the
// aging-mitigation controller that sits between the configuration cache and
// the fabric. For every configuration execution it asks the allocation
// strategy for a pivot offset, applies the (wrap-around) movement, and
// accounts the NBTI-relevant stress: an FU belonging to the resident
// configuration is under stress for the whole residency, because the
// TransRec fabric is combinational and a configured FU is continuously
// driven while its configuration is loaded.
package core

import (
	"fmt"

	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
)

// Tracker accumulates per-FU stress over a run.
type Tracker struct {
	geom fabric.Geometry
	// stressCycles[r*Cols+c] is how many cycles cell (r,c) spent configured.
	stressCycles []uint64
	activeCycles uint64
	// rowBase/colMod are the toroidal index tables of the wrap-around
	// movement: the physical index of virtual cell (r, c) under pivot
	// (pr, pc) is rowBase[r+pr] + colMod[c+pc], replacing the two modulo
	// reductions of Offset.Apply on the per-execution accounting path.
	rowBase []int
	colMod  []int
}

// NewTracker builds a zeroed tracker for the geometry.
func NewTracker(g fabric.Geometry) *Tracker {
	t := &Tracker{
		geom:         g,
		stressCycles: make([]uint64, g.NumFUs()),
		rowBase:      make([]int, 2*g.Rows),
		colMod:       make([]int, 2*g.Cols),
	}
	for i := range t.rowBase {
		t.rowBase[i] = (i % g.Rows) * g.Cols
	}
	for i := range t.colMod {
		t.colMod[i] = i % g.Cols
	}
	return t
}

// Geometry returns the tracked fabric geometry.
func (t *Tracker) Geometry() fabric.Geometry { return t.geom }

// Record accounts one configuration execution: cells (virtual coordinates)
// ran at pivot off for the given residency cycles.
func (t *Tracker) Record(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	if uint(off.Row) >= uint(t.geom.Rows) || uint(off.Col) >= uint(t.geom.Cols) {
		off = fabric.Offset{Row: off.Row % t.geom.Rows, Col: off.Col % t.geom.Cols}
	}
	rb := t.rowBase[off.Row:]
	cm := t.colMod[off.Col:]
	for _, c := range cells {
		t.stressCycles[rb[c.Row]+cm[c.Col]] += cycles
	}
	t.activeCycles += cycles
}

// ActiveCycles returns the total CGRA residency time.
func (t *Tracker) ActiveCycles() uint64 { return t.activeCycles }

// StressCycles returns the accumulated stress of cell (r, c).
func (t *Tracker) StressCycles(r, c int) uint64 {
	return t.stressCycles[r*t.geom.Cols+c]
}

// Utilization snapshots the per-FU duty cycles.
func (t *Tracker) Utilization() *UtilizationMap {
	u := &UtilizationMap{Geom: t.geom, Duty: make([]float64, t.geom.NumFUs())}
	if t.activeCycles > 0 {
		for i := range u.Duty {
			u.Duty[i] = float64(t.stressCycles[i]) / float64(t.activeCycles)
		}
	}
	return u
}

// UtilizationMap is a snapshot of per-FU utilization.
type UtilizationMap struct {
	Geom fabric.Geometry
	// Duty is the NBTI-relevant metric: stress time / CGRA-active time.
	Duty []float64
}

// At returns the duty cycle of cell (r, c).
func (u *UtilizationMap) At(r, c int) float64 { return u.Duty[r*u.Geom.Cols+c] }

// Max returns the highest duty cycle and its cell: the FU that determines
// end-of-life.
func (u *UtilizationMap) Max() (float64, fabric.Cell) {
	best, cell := 0.0, fabric.Cell{}
	for r := 0; r < u.Geom.Rows; r++ {
		for c := 0; c < u.Geom.Cols; c++ {
			if d := u.At(r, c); d > best {
				best, cell = d, fabric.Cell{Row: r, Col: c}
			}
		}
	}
	return best, cell
}

// Avg returns the mean duty cycle over all FUs.
func (u *UtilizationMap) Avg() float64 {
	var sum float64
	for _, d := range u.Duty {
		sum += d
	}
	return sum / float64(len(u.Duty))
}

// Min returns the lowest duty cycle.
func (u *UtilizationMap) Min() float64 {
	best := 1.0
	for _, d := range u.Duty {
		if d < best {
			best = d
		}
	}
	return best
}

// Controller is the aging-mitigation controller: allocator + tracker, plus
// an optional fabric health map the placement must respect.
type Controller struct {
	geom    fabric.Geometry
	alloc   alloc.Allocator
	skipper alloc.LiveSkipper // alloc's skip walk, nil when it has none
	tracker *Tracker
	health  *fabric.Health
	wear    *fabric.Wear
}

// NewController builds a controller for geometry g using allocator a.
func NewController(g fabric.Geometry, a alloc.Allocator) (*Controller, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if a == nil {
		return nil, fmt.Errorf("core: nil allocator")
	}
	// A skip walk indexes the live mask over its allocator's geometry, so
	// an allocator built for another one keeps the Next-by-Next walk.
	skipper, _ := a.(alloc.LiveSkipper)
	if skipper != nil && skipper.Geometry() != g {
		skipper = nil
	}
	return &Controller{geom: g, alloc: a, skipper: skipper, tracker: NewTracker(g)}, nil
}

// Allocator returns the strategy in use.
func (c *Controller) Allocator() alloc.Allocator { return c.alloc }

// Tracker exposes the stress tracker.
func (c *Controller) Tracker() *Tracker { return c.tracker }

// SetHealth attaches a fabric health map; Place then refuses pivots that
// would drive a failed FU, and health-adaptive allocators (alloc.
// HealthSetter) receive the map so their pivot search can exclude dead
// cells. A nil health map (the default) disables the check.
func (c *Controller) SetHealth(h *fabric.Health) {
	c.health = h
	if hs, ok := c.alloc.(alloc.HealthSetter); ok {
		hs.SetHealth(h)
	}
}

// Health returns the attached health map (nil when none).
func (c *Controller) Health() *fabric.Health { return c.health }

// SetWear attaches the fabric's accumulated-wear map; wear-adaptive
// allocators (alloc.WearSetter) receive it so their placement search can
// steer new configurations away from the most-degraded FUs. The controller
// itself never rejects a placement on wear — unlike a dead cell, a worn
// cell still computes correctly — so unlike SetHealth this only feeds the
// allocator.
func (c *Controller) SetWear(w *fabric.Wear) {
	c.wear = w
	if ws, ok := c.alloc.(alloc.WearSetter); ok {
		ws.SetWear(w)
	}
}

// Wear returns the attached wear map (nil when none).
func (c *Controller) Wear() *fabric.Wear { return c.wear }

// Place asks the allocation strategy for the pivot of the upcoming execution
// of cfg. When a health map with failed cells is attached, pivots that would
// map any op onto a dead FU are skipped, advancing the allocator's walk; if a
// full sweep of proposals finds no live placement, ok is false and the caller
// must fall back to the GPP. The caller must follow up with Commit once the
// residency duration is known (it depends on early exits).
//
// The skip walk is the allocator's when it implements alloc.LiveSkipper
// for the geometry of the controller and of the health map, which index
// the live mask: it consumes the dead proposals without materialising
// them. Otherwise every proposal goes through the allocator's Next, one
// call each, because allocator state advances per proposal. Either way
// the liveness test is a lookup into the configuration's memoized
// live-pivot mask.
func (c *Controller) Place(cfg *fabric.Config) (off fabric.Offset, ok bool) {
	live := cfg.LivePivots(c.health)
	if live == nil {
		return c.alloc.Next(cfg), true
	}
	g := c.health.Geometry()
	if c.skipper != nil && g == c.geom {
		return c.skipper.NextLive(live)
	}
	for i := 0; i < c.geom.NumFUs(); i++ {
		off := c.alloc.Next(cfg)
		r, col := off.Row, off.Col
		if uint(r) >= uint(g.Rows) || uint(col) >= uint(g.Cols) {
			r, col = r%g.Rows, col%g.Cols // Offset.Apply's wrap-around
		}
		if live[r*g.Cols+col] {
			return off, true
		}
	}
	return fabric.Offset{}, false
}

// PlaceOrRemap asks the allocation strategy where to load cfg, like Place,
// but routes the outcome through shape-adaptive allocators
// (alloc.ConfigRemapper): when no pivot of the original rectangle avoids
// the failed cells the allocator may substitute a re-mapped,
// architecturally equivalent configuration of a different shape, and even
// when a pivot exists it may substitute a shape whose worst cell projects
// less wear. The returned configuration is cfg itself on the ordinary
// path; the caller must replay and Commit whichever configuration comes
// back. ok is false only when neither translation nor remapping finds a
// live placement — the GPP fallback.
func (c *Controller) PlaceOrRemap(cfg *fabric.Config) (*fabric.Config, fabric.Offset, bool) {
	off, ok := c.Place(cfg)
	if rm, isRemapper := c.alloc.(alloc.ConfigRemapper); isRemapper {
		return rm.RemapConfig(cfg, off, ok)
	}
	if !ok {
		return nil, fabric.Offset{}, false
	}
	return cfg, off, true
}

// Commit records the stress of a completed execution and feeds back to
// stress-adaptive allocators.
func (c *Controller) Commit(cfg *fabric.Config, off fabric.Offset, cycles uint64) {
	cells := cfg.Cells()
	c.tracker.Record(cells, off, cycles)
	if so, ok := c.alloc.(alloc.StressObserver); ok {
		so.ObserveStress(cells, off, cycles)
	}
}

// Utilization snapshots the utilization map.
func (c *Controller) Utilization() *UtilizationMap { return c.tracker.Utilization() }
