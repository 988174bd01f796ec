package alloc

import (
	"fmt"

	"agingcgra/internal/fabric"
)

// HealthAware is the paper's future-work extension: instead of blindly
// rotating, it uses accumulated per-FU stress to pick the pivot that
// minimises the projected worst-case stress. Because an exhaustive search
// per execution would be costly in hardware, the search runs every
// RecomputeEvery executions and the chosen pivot is held in between.
type HealthAware struct {
	geom   fabric.Geometry
	stress []uint64 // physical per-cell stressed cycles, row-major
	// recomputeEvery is the pivot re-evaluation period.
	recomputeEvery uint64
	count          uint64
	current        fabric.Offset
	// health, when set, excludes placements touching dead cells from the
	// pivot search; a health change forces an immediate recompute (the
	// held pivot may have gone stale).
	health *fabric.Health
	key    fabric.StateKey
}

// HealthSetter is implemented by allocators that adapt to fabric failures;
// the controller forwards its health map on SetHealth.
type HealthSetter interface {
	SetHealth(*fabric.Health)
}

// WearSetter is implemented by allocators that adapt to accumulated
// cross-epoch NBTI wear; the controller forwards the fabric's wear map on
// SetWear. Within-run stress feedback stays on StressObserver — the wear map
// carries the multi-year history the lifetime simulator accrues between
// epochs, which a fresh per-epoch allocator could not otherwise see.
type WearSetter interface {
	SetWear(*fabric.Wear)
}

// ConfigRemapper is implemented by allocators that can substitute a
// shape-remapped configuration when the held pivot's footprint hits dead or
// worn cells. Pivot translation can only slide the rectangle the mapper
// produced; once failures cluster (a dead column under a full-length
// configuration), no offset avoids them and the controller would fall back
// to the GPP even though plenty of scattered live cells remain — and even
// when some pivot is still live, every surviving pivot of a
// cluster-constrained rectangle may sit on heavily worn cells a different
// shape could avoid. A ConfigRemapper re-maps the configuration's
// instruction sequence to an alternative shape in both cases.
type ConfigRemapper interface {
	// RemapConfig decides the placement of cfg given the translation-only
	// outcome: off is the pivot the ordinary placement chose and placed
	// reports whether it found one at all. The remapper returns either cfg
	// itself at off (translation stands), or an architecturally equivalent
	// remapped configuration — the same replayed instruction sequence,
	// possibly a shorter prefix when the constrained shape cannot hold
	// every op — at the offset it fits at. Every cell the returned
	// configuration occupies under the returned offset must be live. ok is
	// false when neither translation nor any alternative shape yields a
	// live placement.
	RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (mapped *fabric.Config, mappedOff fabric.Offset, ok bool)
}

// NewHealthAware builds the stress-feedback allocator. recomputeEvery <= 0
// defaults to 16.
func NewHealthAware(g fabric.Geometry, recomputeEvery int) *HealthAware {
	if recomputeEvery <= 0 {
		recomputeEvery = 16
	}
	return &HealthAware{
		geom:           g,
		stress:         make([]uint64, g.NumFUs()),
		recomputeEvery: uint64(recomputeEvery),
	}
}

// Name implements Allocator.
func (h *HealthAware) Name() string {
	return fmt.Sprintf("health-aware/every=%d", h.recomputeEvery)
}

// SetHealth implements HealthSetter.
func (h *HealthAware) SetHealth(hm *fabric.Health) { h.health = hm }

// Next implements Allocator.
func (h *HealthAware) Next(cfg *fabric.Config) fabric.Offset {
	if cfg != nil && (h.key.Update(h.health, nil, nil) || h.count%h.recomputeEvery == 0) {
		h.current = h.bestOffset(cfg)
	}
	h.count++
	return h.current
}

// bestOffset scans all pivots and picks the one whose placement touches the
// least-stressed cells: minimise the maximum projected stress, break ties
// by total stress, then by row-major order for determinism. Pivots whose
// placement would drive a dead FU are excluded (dead cells stop accruing
// stress, so without the exclusion their frozen-low stress would make the
// search actively prefer them); when no live pivot exists the first offset
// is returned and the controller's own health check rejects the offload.
func (h *HealthAware) bestOffset(cfg *fabric.Config) fabric.Offset {
	cells := cfg.Cells()
	live := cfg.LivePivots(h.health)
	best := fabric.Offset{}
	bestMax := ^uint64(0)
	bestSum := ^uint64(0)
	for r := 0; r < h.geom.Rows; r++ {
		for c := 0; c < h.geom.Cols; c++ {
			off := fabric.Offset{Row: r, Col: c}
			if live != nil && !live[r*h.geom.Cols+c] {
				continue
			}
			var maxS, sumS uint64
			for _, cell := range cells {
				p := off.Apply(cell, h.geom)
				s := h.stress[p.Row*h.geom.Cols+p.Col]
				if s > maxS {
					maxS = s
				}
				sumS += s
			}
			if maxS < bestMax || (maxS == bestMax && sumS < bestSum) {
				best, bestMax, bestSum = off, maxS, sumS
			}
		}
	}
	return best
}

// ObserveStress implements StressObserver.
func (h *HealthAware) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	for _, cell := range cells {
		p := off.Apply(cell, h.geom)
		h.stress[p.Row*h.geom.Cols+p.Col] += cycles
	}
}

var _ Allocator = (*HealthAware)(nil)
var _ StressObserver = (*HealthAware)(nil)
