// Package alloc implements the configuration allocation strategies: the
// paper's utilization-aware movement (Section III) plus the baseline and
// several ablation variants.
//
// An Allocator answers one question per configuration execution: at which
// pivot offset should the virtual configuration be loaded into the physical
// fabric? The baseline always answers (0,0) — configurations land where the
// greedy mapper placed them. The utilization-aware allocator advances the
// pivot along a pattern that covers the whole fabric (Fig. 3), wrapping
// around both dimensions, so every FU sees close-to-average duty over time.
package alloc

import "agingcgra/internal/fabric"

// Allocator decides the pivot offset for each execution of a configuration.
// Implementations must be deterministic.
type Allocator interface {
	// Name identifies the strategy in reports.
	Name() string
	// Next returns the offset for the upcoming execution of cfg.
	Next(cfg *fabric.Config) fabric.Offset
}

// LiveSkipper is implemented by allocators that can skip proposals landing
// on dead pivots without materialising each one. NextLive consumes
// proposals exactly as up to Geometry().NumFUs() calls of Next would,
// stopping after the first whose pivot is live: live is indexed row-major
// over Geometry(), with the offset wrapped around both dimensions, and
// live[r*Cols+c] reports whether pivot (r, c) keeps the configuration on
// live FUs. It returns that pivot, or ok false once every proposal found
// none, leaving the allocator where those Next calls would have. A mask
// over another geometry must not be passed: the caller falls back to Next
// instead.
type LiveSkipper interface {
	Geometry() fabric.Geometry
	NextLive(live []bool) (off fabric.Offset, ok bool)
}

// StressObserver is implemented by allocators that adapt to accumulated
// stress; the engine feeds back every committed execution.
type StressObserver interface {
	// ObserveStress reports that cells (virtual coordinates) ran at offset
	// off for the given number of cycles.
	ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64)
}

// Baseline is the utilization-unaware allocator: every configuration
// executes exactly where the mapper placed it.
type Baseline struct{}

// Name implements Allocator.
func (Baseline) Name() string { return "baseline" }

// Next implements Allocator.
func (Baseline) Next(*fabric.Config) fabric.Offset { return fabric.Offset{} }

// Pattern enumerates pivot offsets covering the fabric.
type Pattern interface {
	// Name identifies the pattern.
	Name() string
	// Sequence returns the pivot offsets in visiting order. It must visit
	// every position of the grid exactly once for full coverage (ablation
	// patterns may cover less).
	Sequence(g fabric.Geometry) []fabric.Offset
}

// Snake is the paper's movement pattern (Fig. 3b): left-to-right along the
// first row, right-to-left along the second, and so on, covering the whole
// fabric before wrapping back to the start.
type Snake struct{}

// Name implements Pattern.
func (Snake) Name() string { return "snake" }

// Sequence implements Pattern.
func (Snake) Sequence(g fabric.Geometry) []fabric.Offset {
	out := make([]fabric.Offset, 0, g.NumFUs())
	for r := 0; r < g.Rows; r++ {
		if r%2 == 0 {
			for c := 0; c < g.Cols; c++ {
				out = append(out, fabric.Offset{Row: r, Col: c})
			}
		} else {
			for c := g.Cols - 1; c >= 0; c-- {
				out = append(out, fabric.Offset{Row: r, Col: c})
			}
		}
	}
	return out
}

// RowMajor walks the grid in plain row-major order.
type RowMajor struct{}

// Name implements Pattern.
func (RowMajor) Name() string { return "row-major" }

// Sequence implements Pattern.
func (RowMajor) Sequence(g fabric.Geometry) []fabric.Offset {
	out := make([]fabric.Offset, 0, g.NumFUs())
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			out = append(out, fabric.Offset{Row: r, Col: c})
		}
	}
	return out
}

// HorizontalOnly rotates through columns without vertical movement: the
// ablation that needs only the Fig. 5b multiplexers, not the barrel
// shifters.
type HorizontalOnly struct{}

// Name implements Pattern.
func (HorizontalOnly) Name() string { return "horizontal-only" }

// Sequence implements Pattern.
func (HorizontalOnly) Sequence(g fabric.Geometry) []fabric.Offset {
	out := make([]fabric.Offset, 0, g.Cols)
	for c := 0; c < g.Cols; c++ {
		out = append(out, fabric.Offset{Col: c})
	}
	return out
}

// VerticalOnly rotates through rows without horizontal movement: the
// ablation that needs only the barrel shifters of Fig. 5c.
type VerticalOnly struct{}

// Name implements Pattern.
func (VerticalOnly) Name() string { return "vertical-only" }

// Sequence implements Pattern.
func (VerticalOnly) Sequence(g fabric.Geometry) []fabric.Offset {
	out := make([]fabric.Offset, 0, g.Rows)
	for r := 0; r < g.Rows; r++ {
		out = append(out, fabric.Offset{Row: r})
	}
	return out
}

// Diagonal walks anti-diagonals, an alternative full-coverage pattern that
// changes row and column simultaneously on most steps.
type Diagonal struct{}

// Name implements Pattern.
func (Diagonal) Name() string { return "diagonal" }

// Sequence implements Pattern.
func (Diagonal) Sequence(g fabric.Geometry) []fabric.Offset {
	out := make([]fabric.Offset, 0, g.NumFUs())
	for d := 0; d < g.Rows+g.Cols-1; d++ {
		for r := 0; r < g.Rows; r++ {
			c := d - r
			if c >= 0 && c < g.Cols {
				out = append(out, fabric.Offset{Row: r, Col: c})
			}
		}
	}
	return out
}

// Shuffled visits every position once per epoch in a fixed pseudo-random
// order: the "random allocation" strawman of Section III, made
// deterministic.
type Shuffled struct{}

// Name implements Pattern.
func (Shuffled) Name() string { return "shuffled" }

// Sequence implements Pattern.
func (Shuffled) Sequence(g fabric.Geometry) []fabric.Offset {
	out := RowMajor{}.Sequence(g)
	state := uint32(0x2545f491)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(next() % uint32(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// UtilizationAware is the paper's proposed allocator: it advances a pivot
// along a full-coverage movement pattern, one position per configuration
// execution, shifting every newly loaded configuration (with wrap-around)
// so utilization spreads over the fabric.
type UtilizationAware struct {
	geom    fabric.Geometry
	pattern Pattern
	seq     []fabric.Offset
	// pos indexes the pivot of the next proposal in seq.
	pos int
	// cell[i] is seq[i]'s row-major index in the geometry, wrapped around
	// both dimensions: the live-mask slot NextLive tests. It is built by
	// the first NextLive, so an allocator that never meets a dead cell (or
	// is built only to validate a name) does not pay for it.
	cell []int
}

// Option configures the UtilizationAware allocator.
type Option func(*UtilizationAware)

// WithPattern selects the movement pattern (default Snake).
func WithPattern(p Pattern) Option {
	return func(u *UtilizationAware) { u.pattern = p }
}

// NewUtilizationAware builds the proposed allocator for a fabric geometry.
func NewUtilizationAware(g fabric.Geometry, opts ...Option) *UtilizationAware {
	u := &UtilizationAware{geom: g, pattern: Snake{}}
	for _, o := range opts {
		o(u)
	}
	u.seq = u.pattern.Sequence(g)
	if len(u.seq) == 0 {
		u.seq = []fabric.Offset{{}}
	}
	return u
}

// Name implements Allocator.
func (u *UtilizationAware) Name() string { return "utilization-aware/" + u.pattern.Name() }

// Next implements Allocator.
func (u *UtilizationAware) Next(*fabric.Config) fabric.Offset {
	off := u.seq[u.pos]
	if u.pos++; u.pos == len(u.seq) {
		u.pos = 0
	}
	return off
}

// Geometry implements LiveSkipper: the geometry the allocator was built for.
func (u *UtilizationAware) Geometry() fabric.Geometry { return u.geom }

// NextLive implements LiveSkipper: one mask load per position walked.
func (u *UtilizationAware) NextLive(live []bool) (fabric.Offset, bool) {
	if u.cell == nil {
		g := u.geom
		u.cell = make([]int, len(u.seq))
		for i, off := range u.seq {
			u.cell[i] = off.Row%g.Rows*g.Cols + off.Col%g.Cols
		}
	}
	p, cell := u.pos, u.cell
	for range u.geom.NumFUs() {
		i := p
		if p++; p == len(cell) {
			p = 0
		}
		if live[cell[i]] {
			u.pos = p
			return u.seq[i], true
		}
	}
	u.pos = p
	return fabric.Offset{}, false
}
