package fabric

import "fmt"

// Faults tracks each FU cell's per-execution intermittent-fault probability:
// the third fabric-state layer beside Health (dead/alive) and Wear
// (accumulated stress), versioned like Wear. Aged transistors misbehave intermittently before
// they die — increased delay causes marginal timing paths to flip bits on
// some executions — so the lifetime simulator derives each cell's
// probability from its consumed lifetime once it crosses a configurable
// intermittent threshold, and the fault-injection layer draws against the
// map on every offload that occupies the cell.
//
// Like Health and Wear, a Faults map is owned by one simulated fabric
// instance and is not safe for concurrent mutation; its version increments
// on every state change so epoch memos and caches can key on it (KeyOf).
type Faults struct {
	geom    Geometry
	prob    []float64
	risky   int
	version uint64
}

// NewFaults builds an all-reliable fault map for the geometry.
func NewFaults(g Geometry) *Faults {
	return &Faults{geom: g, prob: make([]float64, g.NumFUs())}
}

// Geometry returns the fabric geometry the fault map covers.
func (f *Faults) Geometry() Geometry { return f.geom }

func (f *Faults) inRange(c Cell) bool {
	return c.Row >= 0 && c.Row < f.geom.Rows && c.Col >= 0 && c.Col < f.geom.Cols
}

// Set assigns a cell's per-execution fault probability, clamped to [0, 1],
// and reports whether the map changed (the version only advances on actual
// change, so re-deriving an unchanged map keeps epoch memos valid).
// Out-of-range cells are ignored.
func (f *Faults) Set(c Cell, p float64) bool {
	if !f.inRange(c) {
		return false
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	i := c.Row*f.geom.Cols + c.Col
	if f.prob[i] == p {
		return false
	}
	if f.prob[i] == 0 {
		f.risky++
	} else if p == 0 {
		f.risky--
	}
	f.prob[i] = p
	f.version++
	return true
}

// At returns a cell's per-execution fault probability. Out-of-range cells
// read as zero.
func (f *Faults) At(c Cell) float64 {
	if !f.inRange(c) {
		return 0
	}
	return f.prob[c.Row*f.geom.Cols+c.Col]
}

// Risky reports whether any cell has a non-zero fault probability: the
// injection layer's fast path skips per-cell draws entirely on a fully
// reliable fabric.
func (f *Faults) Risky() bool { return f.risky > 0 }

// String summarises the map for debugging.
func (f *Faults) String() string {
	worst, cell := 0.0, Cell{}
	for r := 0; r < f.geom.Rows; r++ {
		for c := 0; c < f.geom.Cols; c++ {
			if p := f.prob[r*f.geom.Cols+c]; p > worst {
				worst, cell = p, Cell{Row: r, Col: c}
			}
		}
	}
	return fmt.Sprintf("faults{%v, %d risky, worst %.3g at %v}", f.geom, f.risky, worst, cell)
}
