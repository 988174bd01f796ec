// Package remap implements shape-adaptive configuration remapping: the
// allocation layer that keeps kernels on-fabric when clustered failures
// block every pivot of the originally translated rectangle.
//
// The allocators below the remap layer can only *translate*: the mapper
// produces one virtual rectangle per trace and the controller slides it
// around the fabric (with wrap-around). Once failures cluster — a dead
// column under a full-length configuration, a dead quadrant, everything
// dead but one row — no offset avoids the failed cells and the controller
// falls back to the GPP, even when plenty of scattered live capacity
// remains. That lost capacity is exactly what layout-space exploration
// recovers (HeLEx; BandMap's resource-constrained remapping): the same
// instruction sequence re-mapped to a different shape — narrower and
// taller, or flowed around the dead cells inside the rectangle — often
// still fits.
//
// Remapper wraps the wear-aware explorer: on the ordinary path it *is* the
// explorer (wear-scored pivot choice over the full-shape configuration);
// when the controller reports that no pivot of the original rectangle is
// live (alloc.ConfigRemapper), it rebuilds the configuration's dynamic
// trace and re-invokes mapper.Map once per candidate (shape × anchor) with
// a health mask expressed in that anchor's frame, so the greedy row search
// flows around dead cells inside the rectangle. Candidates are ranked by
// how much of the sequence they hold (architectural throughput first),
// then by the explorer's projected-ΔVt wear score (the placement whose
// worst cell ages least), with deterministic shape-order and row-major
// anchor tie-breaks. The search outcome — positive or negative — is
// memoized per StartPC under one fabric.StateKey of the health and wear
// maps: deaths change which placements exist, wear advances change which
// the scoring prefers, and either move clears the memo. The scans this
// costs are counted and priced by the derived hardware-cost model in
// internal/searchcost.
//
// The candidates come from the scenario's mapping memo (mapper.Memo,
// handed in through UseMemo) as one list per scan: mapper.Memo.Scan keeps
// the placing windows of a trace over the ladder around one physical dead
// mask, keyed on the trace, the ladder with its latency table, the
// physical geometry and the dead mask. A window's placement never depends
// on wear, so wear stays out of the key, and a scan that reruns because
// wear moved — most of them — re-scores the stored list without one
// mapping lookup. Candidates rank by their worst cell's projected
// stress-years (explore.Explorer.WorstYears); Eq. 1 runs only where the
// years strictly improve, and a candidate replaces an equally long
// incumbent only if its ΔVt is strictly lower too, because two year
// values can round to one ΔVt. Candidates are borrowed from the memo,
// uncloned; the rescue keeps a clone of its winner alone
// (mapper.Memo.Keep). Every viable candidate is counted and scored — no
// running-best gate short-circuits the per-candidate work, and a stored
// list re-adds the probes its windows counted — so the searchcost counters
// are sums over a fixed candidate set. The scan is serial.
package remap

import (
	"math"

	"agingcgra/internal/alloc"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
	"agingcgra/internal/searchcost"
)

// Remapper is the shape-adaptive allocator. It implements alloc.Allocator
// (delegating the healthy-path pivot choice to the wear-aware explorer),
// the controller feedback interfaces, and alloc.ConfigRemapper.
type Remapper struct {
	geom fabric.Geometry
	ex   *explore.Explorer
	// minOps is the shortest prefix the rescue substitutes
	// (mapper.MinOps, the DBT's translation threshold).
	minOps int
	shapes []fabric.Geometry

	health *fabric.Health
	wear   *fabric.Wear
	// memo maps the rescue's candidates (nil: map each one directly).
	memo *mapper.Memo

	// rescues memoizes RemapConfig's outcome per StartPC, valid while the
	// health and wear maps stay at rescueKey. The search is far too
	// expensive to repeat on every offload of a blocked configuration, and
	// its ranking snapshots the duty observed at the region's first
	// offload — the decision is held, like the explorer's pivot hold
	// period, rather than re-ranked as within-run duty drifts.
	rescues   map[uint32]rescue
	rescueKey fabric.StateKey

	// counts tallies the rescue-search work for the derived cost model.
	counts searchcost.Counts
}

// rescue is one memoized shape-search outcome: the remapped configuration
// and the pivot it fits at, or ok false when no shape places the sequence
// (the region stays on the GPP without re-searching). A nil cfg with ok
// set is the keep-the-translation marker.
type rescue struct {
	cfg *fabric.Config
	off fabric.Offset
	ok  bool
}

// Option configures the Remapper.
type Option func(*Remapper)

// WithLadder selects the shape ladder the rescue search expands (default
// fabric.DefaultShapeLadder). The same ladder drives the DBT's
// translation-time shape search (dbt.Options.Ladder); giving both layers
// one ladder keeps the allocation-time rescue and the translation-time
// choice searching the same space. A malformed ladder that expands to no
// shapes is ignored (the default ladder stays in force): an empty rescue
// scan would silently degrade the allocator to a plain explorer.
func WithLadder(l fabric.ShapeLadder) Option {
	return func(m *Remapper) {
		if shapes := l.Shapes(m.geom); len(shapes) > 0 {
			m.shapes = shapes
		}
	}
}

// New builds a shape-adaptive remapper for the physical geometry.
func New(g fabric.Geometry, opts ...Option) *Remapper {
	m := &Remapper{
		geom:    g,
		ex:      explore.New(g),
		minOps:  mapper.MinOps,
		shapes:  CandidateShapes(g),
		rescues: make(map[uint32]rescue),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// CandidateShapes returns the default deterministic shape ladder for a
// physical geometry: fabric.DefaultShapeLadder materialised, widest first.
// The ladder definition itself lives in internal/fabric so the DBT's
// translation-time shape search and this allocation-time rescue search
// share (and sweep) one configurable ladder.
func CandidateShapes(g fabric.Geometry) []fabric.Geometry {
	return fabric.DefaultShapeLadder().Shapes(g)
}

// Name implements alloc.Allocator.
func (m *Remapper) Name() string { return "remap" }

// Next implements alloc.Allocator: the wear-aware explorer's held pivot for
// the full-shape configuration. Remapping happens only when the controller
// reports that no pivot works (RemapConfig).
func (m *Remapper) Next(cfg *fabric.Config) fabric.Offset { return m.ex.Next(cfg) }

// SetHealth implements alloc.HealthSetter.
func (m *Remapper) SetHealth(h *fabric.Health) {
	m.health = h
	m.ex.SetHealth(h)
}

// SetWear implements alloc.WearSetter.
func (m *Remapper) SetWear(w *fabric.Wear) {
	m.wear = w
	m.ex.SetWear(w)
}

// UseMemo makes the rescue scan map its candidates through memo, which the
// scenario shares with every other layer that maps.
func (m *Remapper) UseMemo(memo *mapper.Memo) { m.memo = memo }

// ObserveStress implements alloc.StressObserver.
func (m *Remapper) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	m.ex.ObserveStress(cells, off, cycles)
}

// Explorer exposes the underlying wear-aware explorer (tests compare its
// scores against the remapper's choices).
func (m *Remapper) Explorer() *explore.Explorer { return m.ex }

// SearchCounts implements searchcost.Instrumented: the rescue scans' own
// work plus the embedded explorer's pivot-scan work.
func (m *Remapper) SearchCounts() searchcost.Counts {
	c := m.counts
	c.Add(m.ex.SearchCounts())
	return c
}

// Trace reconstructs the dynamic instruction sequence a configuration was
// translated from. The mapper places every entry of the consumed prefix (a
// direct jump becomes a width-0 op), so the configuration's op list in
// sequence order is the trace.
func Trace(cfg *fabric.Config) []mapper.TraceEntry {
	trace := make([]mapper.TraceEntry, len(cfg.Ops))
	for i, op := range cfg.Ops {
		trace[i] = mapper.TraceEntry{PC: op.PC, Inst: op.Inst, Taken: op.Taken}
	}
	return trace
}

// Reshape re-maps cfg's instruction sequence for an alternative shape
// anchored at the given pivot, flowing around dead cells: the mapper's
// free-row search sees a cell (r,c) of the shape as disabled when the
// physical cell it lands on under the anchor — ((r,c) shifted by anchor,
// wrapping in the physical geometry — is dead. It returns the remapped
// configuration and how many ops of the sequence it holds; (nil, 0) when
// not even the first op fits. A nil health map reshapes on a pristine
// fabric — the architectural-equivalence property tests use exactly that.
func Reshape(cfg *fabric.Config, shape fabric.Geometry, anchor fabric.Offset, phys fabric.Geometry, health *fabric.Health, lat fabric.LatencyTable) (*fabric.Config, int) {
	dead := health.Mask()
	return mapper.Map(Trace(cfg), mapper.Options{
		Geom: shape,
		Lat:  lat,
		Dead: dead.Window(anchor, shape, phys),
	})
}

// RemapConfig implements alloc.ConfigRemapper, with two triggers:
//
//   - capacity: the translated rectangle has no live pivot (placed is
//     false). The search substitutes the candidate holding the longest
//     prefix of the sequence, breaking ties by projected wear — the GPP
//     rescue.
//   - wear: a pivot exists, but some full-sequence reshape projects a
//     strictly lower worst-cell ΔVt than the translated placement. The
//     remapper substitutes it: at decision time its placement set is a
//     superset of the explorer's, so the chosen placement never projects
//     more worst-cell wear than the translation-only choice did.
//
// Search outcomes are memoized per StartPC and held until the health or
// wear map moves. On a pristine fabric the remapper is exactly the
// explorer and the search never runs.
func (m *Remapper) RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (*fabric.Config, fabric.Offset, bool) {
	if cfg == nil || len(cfg.Ops) == 0 || m.health == nil || m.health.DeadCount() == 0 {
		if !placed {
			return nil, fabric.Offset{}, false
		}
		return cfg, off, true
	}
	if m.rescueKey.Update(m.health, m.wear, nil) {
		clear(m.rescues)
	}
	// The keep-the-translation marker's offset follows the explorer's live
	// pivot, not a cached one. The marker is only ever written when a pivot
	// existed; placement success is a pure function of the health state,
	// so a marker hit with placed false cannot happen — recompute
	// defensively if it ever does.
	if r, ok := m.rescues[cfg.StartPC]; ok {
		if r.ok && r.cfg == nil {
			if placed {
				return cfg, off, true
			}
		} else {
			return r.cfg, r.off, r.ok
		}
	}
	r := m.search(cfg)
	if placed {
		full := r.ok && len(r.cfg.Ops) == len(cfg.Ops)
		if full {
			m.counts.RemapCells += uint64(len(r.cfg.Cells()) + len(cfg.Cells()))
		}
		// Substitute only on strictly fewer worst-cell years and a strictly
		// lower ΔVt: Eq. 1 runs only when the years improve.
		if !full || m.ex.WorstYears(r.cfg, r.off) >= m.ex.WorstYears(cfg, off) ||
			m.ex.Score(r.cfg, r.off) >= m.ex.Score(cfg, off) {
			r = rescue{ok: true} // keep the translation
		}
	}
	r.cfg = m.memo.Keep(r.cfg) // the winner is the memo's; the rescue keeps its own
	m.rescues[cfg.StartPC] = r
	if r.ok && r.cfg == nil {
		return cfg, off, true
	}
	return r.cfg, r.off, r.ok
}

// search scans every candidate (shape × anchor), keeping the placement
// that holds the longest prefix of the sequence and, among equally long
// ones, minimises the explorer's projected worst-cell ΔVt. Ties beyond the
// score break by shape order then row-major anchor, so the search is
// deterministic. Every viable candidate — a window of the memo's list
// (mapper.Memo.Scan, live placements only) holding enough ops — is counted
// and scored, with no running-best gate, so the searchcost counters are
// sums over a fixed candidate set. The returned configuration is borrowed
// from the memo.
//
// An equally long candidate replaces the incumbent only if its worst-cell
// years and its ΔVt are both strictly lower: that is the ΔVt comparison
// itself, as Eq. 1 increases with years, with Eq. 1 run only on a years
// improvement.
func (m *Remapper) search(cfg *fabric.Config) rescue {
	minOps := m.minOps
	if n := len(cfg.Ops); n < minOps {
		minOps = n
	}
	// The modelled search counts one Eq. 1 projection pass for the whole
	// candidate scan: the projection depends only on the fabric state and
	// the observed duty, neither of which changes mid-search.
	m.counts.RemapScans++
	m.counts.RemapProjections += uint64(m.geom.NumFUs())

	m.counts.RemapCandidates += uint64(len(m.shapes) * m.geom.NumFUs())
	windows := m.memo.Scan(m.memo.Key(Trace(cfg)), m.shapes, fabric.DefaultLatencies(),
		m.geom, m.health.Mask(), &m.counts.RemapProbes)

	var (
		best         rescue
		bestConsumed int
		bestY        float64
		bestScore    = math.NaN() // the incumbent's ΔVt, evaluated on demand
	)
	for _, w := range windows {
		if w.Consumed < minOps {
			continue
		}
		m.counts.RemapCells += uint64(len(w.Cfg.Cells()))
		y := m.ex.WorstYears(w.Cfg, w.Anchor)
		switch {
		case !best.ok || w.Consumed > bestConsumed:
			bestScore = math.NaN()
		case w.Consumed < bestConsumed || y >= bestY:
			continue
		default:
			if math.IsNaN(bestScore) {
				bestScore = m.ex.Score(best.cfg, best.off)
			}
			score := m.ex.Score(w.Cfg, w.Anchor)
			if score >= bestScore {
				continue
			}
			bestScore = score
		}
		best = rescue{cfg: w.Cfg, off: w.Anchor, ok: true}
		bestConsumed, bestY = w.Consumed, y
	}
	return best
}

var (
	_ alloc.Allocator         = (*Remapper)(nil)
	_ alloc.HealthSetter      = (*Remapper)(nil)
	_ alloc.WearSetter        = (*Remapper)(nil)
	_ alloc.StressObserver    = (*Remapper)(nil)
	_ alloc.ConfigRemapper    = (*Remapper)(nil)
	_ searchcost.Instrumented = (*Remapper)(nil)
)
