package fabric

import "fmt"

// Wear tracks the accumulated NBTI stress of every FU cell in
// calibration-equivalent stress-years: Eq. 1's ΔVt depends on time and duty
// cycle only through their product t·u, so one number per cell captures the
// whole aging history. The lifetime simulator owns and advances the map at
// epoch boundaries; wear-adaptive allocators (alloc.WearSetter) read it to
// steer placements away from the most-degraded cells.
//
// A Wear is owned by one simulated fabric instance and is not safe for
// concurrent mutation; scenario sweeps give every scenario its own Wear.
type Wear struct {
	geom    Geometry
	years   []float64
	version uint64
}

// NewWear builds an all-fresh wear map for the geometry.
func NewWear(g Geometry) *Wear {
	return &Wear{geom: g, years: make([]float64, g.NumFUs())}
}

// Geometry returns the fabric geometry the wear map covers.
func (w *Wear) Geometry() Geometry { return w.geom }

func (w *Wear) inRange(c Cell) bool {
	return c.Row >= 0 && c.Row < w.geom.Rows && c.Col >= 0 && c.Col < w.geom.Cols
}

// Add accrues stress-years on a cell and reports whether the map changed.
// Non-positive deltas and out-of-range cells are ignored.
func (w *Wear) Add(c Cell, years float64) bool {
	if years <= 0 || !w.inRange(c) {
		return false
	}
	w.years[c.Row*w.geom.Cols+c.Col] += years
	w.version++
	return true
}

// YearsAt returns the accumulated stress-years of a cell. Out-of-range cells
// read as zero.
func (w *Wear) YearsAt(c Cell) float64 {
	if !w.inRange(c) {
		return 0
	}
	return w.years[c.Row*w.geom.Cols+c.Col]
}

// Max returns the highest accumulated stress and its cell: the FU closest to
// end-of-life on a fabric with uniform conditions.
func (w *Wear) Max() (float64, Cell) {
	best, cell := 0.0, Cell{}
	for r := 0; r < w.geom.Rows; r++ {
		for c := 0; c < w.geom.Cols; c++ {
			if y := w.years[r*w.geom.Cols+c]; y > best {
				best, cell = y, Cell{Row: r, Col: c}
			}
		}
	}
	return best, cell
}

// CopyYears copies the per-cell stress-years (row-major) into dst, growing
// it as needed, and returns the filled slice. Incremental scorers snapshot
// the map through it once per version move instead of calling YearsAt per
// cell per scan.
func (w *Wear) CopyYears(dst []float64) []float64 {
	if cap(dst) < len(w.years) {
		dst = make([]float64, len(w.years))
	}
	dst = dst[:len(w.years)]
	copy(dst, w.years)
	return dst
}

// String summarises the map for debugging.
func (w *Wear) String() string {
	max, cell := w.Max()
	return fmt.Sprintf("wear{%v, max %.3fy at %v}", w.geom, max, cell)
}
