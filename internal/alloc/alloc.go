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

import (
	"fmt"

	"agingcgra/internal/fabric"
)

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
// proposals exactly as up to limit calls of Next(cfg) would, stopping after
// the first whose pivot is live: live is indexed row-major over Geometry(),
// with the offset wrapped around both dimensions, and live[r*Cols+c]
// reports whether pivot (r, c) keeps cfg on live FUs. It returns that
// pivot, or ok false once limit proposals (none when limit < 1) found
// none, leaving the allocator where those Next calls would have. A mask
// over another geometry must not be passed: the caller falls back to Next
// instead.
type LiveSkipper interface {
	Geometry() fabric.Geometry
	NextLive(cfg *fabric.Config, live []bool, limit int) (off fabric.Offset, ok bool)
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

// Shuffled visits every position once per epoch in a seeded pseudo-random
// order: the "random allocation" strawman of Section III, made
// deterministic.
type Shuffled struct {
	// Seed selects the permutation; zero gets a default.
	Seed uint32
}

// Name implements Pattern.
func (s Shuffled) Name() string { return "shuffled" }

// Sequence implements Pattern.
func (s Shuffled) Sequence(g fabric.Geometry) []fabric.Offset {
	out := RowMajor{}.Sequence(g)
	state := s.Seed
	if state == 0 {
		state = 0x2545f491
	}
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
// along a full-coverage movement pattern, shifting every newly loaded
// configuration (with wrap-around) so utilization spreads over the fabric.
type UtilizationAware struct {
	geom    fabric.Geometry
	pattern Pattern
	seq     []fabric.Offset
	// period is how many executions share one pivot position before the
	// pivot advances (1 = move every execution, the paper's default).
	period uint64
	// perCount, when non-nil (WithPerConfigPivot), counts the proposals of
	// each configuration StartPC, which then walks its own pivot instead
	// of the global one.
	perCount map[uint32]uint64

	// pos and sub walk the global pivot: seq[pos] is the current position,
	// already proposed sub times in its period. Stepping them avoids the two
	// divisions of the closed form seq[(n/period)%len(seq)] per proposal.
	pos int
	sub uint64
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

// WithPeriod makes the pivot advance only every n executions.
func WithPeriod(n uint64) Option {
	return func(u *UtilizationAware) {
		if n >= 1 {
			u.period = n
		}
	}
}

// WithPerConfigPivot gives each configuration its own pivot walk.
func WithPerConfigPivot() Option {
	return func(u *UtilizationAware) { u.perCount = make(map[uint32]uint64) }
}

// NewUtilizationAware builds the proposed allocator for a fabric geometry.
func NewUtilizationAware(g fabric.Geometry, opts ...Option) *UtilizationAware {
	u := &UtilizationAware{
		geom:    g,
		pattern: Snake{},
		period:  1,
	}
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
func (u *UtilizationAware) Name() string {
	name := "utilization-aware/" + u.pattern.Name()
	if u.perCount != nil {
		name += "/per-config"
	}
	if u.period > 1 {
		name += fmt.Sprintf("/period=%d", u.period)
	}
	return name
}

// Next implements Allocator.
func (u *UtilizationAware) Next(cfg *fabric.Config) fabric.Offset {
	if u.perCount != nil && cfg != nil {
		n := u.perCount[cfg.StartPC]
		u.perCount[cfg.StartPC] = n + 1
		return u.seq[(n/u.period)%uint64(len(u.seq))]
	}
	off := u.seq[u.pos]
	if u.sub++; u.sub == u.period {
		u.sub = 0
		if u.pos++; u.pos == len(u.seq) {
			u.pos = 0
		}
	}
	return off
}

// Geometry implements LiveSkipper: the geometry the allocator was built for.
func (u *UtilizationAware) Geometry() fabric.Geometry { return u.geom }

// NextLive implements LiveSkipper. Instead of proposing one pivot per call,
// it steps whole periods: every proposal left at a dead position is
// consumed at once, so a walk costs one mask load per position visited.
func (u *UtilizationAware) NextLive(cfg *fabric.Config, live []bool, limit int) (fabric.Offset, bool) {
	if limit <= 0 {
		return fabric.Offset{}, false
	}
	if u.cell == nil {
		g := u.geom
		u.cell = make([]int, len(u.seq))
		for i, off := range u.seq {
			u.cell[i] = off.Row%g.Rows*g.Cols + off.Col%g.Cols
		}
	}
	if u.perCount != nil && cfg != nil {
		n := u.perCount[cfg.StartPC]
		pos, sub := int((n/u.period)%uint64(len(u.seq))), n%u.period
		off, used, ok := u.skipDead(&pos, &sub, live, uint64(limit))
		u.perCount[cfg.StartPC] = n + used
		return off, ok
	}
	off, _, ok := u.skipDead(&u.pos, &u.sub, live, uint64(limit))
	return off, ok
}

// skipDead walks the pivot position (*pos, proposed *sub times in its
// period) for at most limit (at least 1) proposals, until one lands on a
// live pivot. It advances the position past every proposal consumed and
// returns the live pivot, how many proposals were consumed, and whether one
// was live.
func (u *UtilizationAware) skipDead(pos *int, sub *uint64, live []bool, limit uint64) (off fabric.Offset, used uint64, ok bool) {
	// Proposals are numbered from the first of seq[p]'s period: the walk
	// may consume those in [head, end), and each later position's period
	// begins at start. A dead position costs one mask load.
	p, head, cell, period := *pos, *sub, u.cell, u.period
	end := head + limit
	var s uint64 // proposals made at the position the walk ends on
	for start := uint64(0); ; start += period {
		if live[cell[p]] {
			n := max(start, head) // the live proposal
			off, ok, used, s = u.seq[p], true, n+1-head, n+1-start
			break
		}
		if start+period >= end { // the limit runs out at this dead position
			used, s = limit, end-start
			break
		}
		if p++; p == len(cell) {
			p = 0
		}
	}
	if s == period { // the walk ended on its position's last proposal
		s = 0
		if p++; p == len(cell) {
			p = 0
		}
	}
	*pos, *sub = p, s
	return off, used, ok
}

// Pattern returns the movement pattern in use.
func (u *UtilizationAware) Pattern() Pattern { return u.pattern }
