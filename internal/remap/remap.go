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
// memoized in a cfgcache.RemapCache keyed by (StartPC, health version,
// wear version): deaths change which placements exist, wear advances
// change which the scoring prefers, and both invalidate wholesale. The
// scans this costs are counted and priced by the derived hardware-cost
// model in internal/searchcost.
//
// The rescue scan fans out over one goroutine per runnable CPU
// (runtime.GOMAXPROCS): candidates stripe by flattened (shape, anchor)
// index and the reduction is an index-ordered argmin, so any worker count
// returns the identical placement. It is the only search in the allocation
// stack that stripes, because it is the only one where the benchmark shows
// striping winning: each candidate runs a full mapper placement, so a
// rescue costs enough to amortise the fan-out. Every viable candidate is
// mapped, counted and scored — no running-best gate short-circuits the
// per-candidate work — which keeps the searchcost counters sums over a
// fixed candidate set, byte-identical between serial and parallel runs.
package remap

import (
	"runtime"
	"sync"

	"agingcgra/internal/alloc"
	"agingcgra/internal/cfgcache"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
	"agingcgra/internal/searchcost"
)

// minParallelCandidates is the smallest (shape × anchor) candidate count
// worth fanning the rescue scan out over goroutines; each candidate runs a
// full mapper placement, so a few of them already amortise the fan-out.
const minParallelCandidates = 16

// Remapper is the shape-adaptive allocator. It implements alloc.Allocator
// (delegating the healthy-path pivot choice to the wear-aware explorer),
// the controller feedback interfaces, and alloc.ConfigRemapper.
type Remapper struct {
	geom   fabric.Geometry
	lat    fabric.LatencyTable
	ex     *explore.Explorer
	minOps int
	shapes []fabric.Geometry

	health *fabric.Health
	wear   *fabric.Wear
	cache  *cfgcache.RemapCache

	// counts tallies the rescue-search work for the derived cost model.
	counts searchcost.Counts
}

// Option configures the Remapper.
type Option func(*Remapper)

// WithLatencies sets the latency table the shape search maps with; it must
// match the engine's (default fabric.DefaultLatencies).
func WithLatencies(lat fabric.LatencyTable) Option {
	return func(m *Remapper) { m.lat = lat }
}

// WithMinOps sets the smallest remapped prefix worth offloading (default 4,
// matching the engine's translation threshold).
func WithMinOps(n int) Option {
	return func(m *Remapper) {
		if n >= 1 {
			m.minOps = n
		}
	}
}

// WithShapes overrides the candidate shape list (default CandidateShapes).
func WithShapes(shapes ...fabric.Geometry) Option {
	return func(m *Remapper) {
		if len(shapes) > 0 {
			m.shapes = shapes
		}
	}
}

// WithLadder selects the shape ladder the rescue search expands (default
// fabric.DefaultShapeLadder). The same ladder drives the DBT's
// translation-time shape search (dbt.Options.Ladder); giving both layers
// one ladder keeps the allocation-time rescue and the translation-time
// choice searching the same space. A malformed ladder that expands to no
// shapes is ignored (the default ladder stays in force), mirroring
// WithShapes — an empty rescue scan would silently degrade the allocator
// to a plain explorer.
func WithLadder(l fabric.ShapeLadder) Option {
	return func(m *Remapper) {
		if shapes := l.Shapes(m.geom); len(shapes) > 0 {
			m.shapes = shapes
		}
	}
}

// WithExplorerOptions forwards options to the underlying wear-aware
// explorer (projection horizon, recompute period, NBTI model).
func WithExplorerOptions(opts ...explore.Option) Option {
	return func(m *Remapper) { m.ex = explore.New(m.geom, opts...) }
}

// New builds a shape-adaptive remapper for the physical geometry.
func New(g fabric.Geometry, opts ...Option) *Remapper {
	m := &Remapper{
		geom:   g,
		lat:    fabric.DefaultLatencies(),
		ex:     explore.New(g),
		minOps: 4,
		shapes: CandidateShapes(g),
		cache:  cfgcache.NewRemapCache(),
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

// ObserveStress implements alloc.StressObserver.
func (m *Remapper) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	m.ex.ObserveStress(cells, off, cycles)
}

// Explorer exposes the underlying wear-aware explorer (tests compare its
// scores against the remapper's choices).
func (m *Remapper) Explorer() *explore.Explorer { return m.ex }

// RemapStats exposes the shape-search cache counters.
func (m *Remapper) RemapStats() cfgcache.RemapStats { return m.cache.Stats() }

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
	return reshapeCounted(cfg, shape, anchor, phys, health, lat, nil)
}

// reshapeCounted is Reshape with an optional mapper probe counter, so the
// rescue scan's work feeds the derived search-cost model.
func reshapeCounted(cfg *fabric.Config, shape fabric.Geometry, anchor fabric.Offset, phys fabric.Geometry, health *fabric.Health, lat fabric.LatencyTable, probes *uint64) (*fabric.Config, int) {
	var disabled func(fabric.Cell) bool
	if health != nil && health.DeadCount() > 0 {
		disabled = func(c fabric.Cell) bool {
			return health.Dead(anchor.Apply(c, phys))
		}
	}
	return mapper.Map(Trace(cfg), mapper.Options{
		Geom:     shape,
		Lat:      lat,
		Disabled: disabled,
		Probes:   probes,
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
// Search outcomes are memoized per (StartPC, health version, wear
// version) and held until either version moves — the decision snapshots
// the duty observed at the region's first offload, mirroring the
// explorer's own pivot hold period, rather than re-ranking as within-run
// duty drifts. On a pristine fabric the remapper is exactly the explorer
// and the search never runs.
func (m *Remapper) RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (*fabric.Config, fabric.Offset, bool) {
	if cfg == nil || len(cfg.Ops) == 0 || m.health == nil || m.health.DeadCount() == 0 {
		if !placed {
			return nil, fabric.Offset{}, false
		}
		return cfg, off, true
	}
	healthVer := m.health.Version()
	var wearVer uint64
	if m.wear != nil {
		wearVer = m.wear.Version()
	}
	// A nil Cfg with OK set is the keep-the-translation marker: the offset
	// then follows the explorer's live pivot, not a cached one. The marker
	// is only ever written when a pivot existed; placement success is a
	// pure function of the health state, so a marker hit with placed false
	// cannot happen — recompute defensively if it ever does.
	if e, ok := m.cache.Lookup(cfg.StartPC, healthVer, wearVer); ok {
		if e.OK && e.Cfg == nil {
			if placed {
				return cfg, off, true
			}
		} else {
			return e.Cfg, e.Off, e.OK
		}
	}
	entry := m.search(cfg)
	if placed {
		// The projection is still fresh from the search pass.
		full := entry.OK && len(entry.Cfg.Ops) == len(cfg.Ops)
		if full {
			m.counts.RemapCells += uint64(len(entry.Cfg.Cells()) + len(cfg.Cells()))
		}
		if !full || m.ex.ProjectedScore(entry.Cfg, entry.Off) >= m.ex.ProjectedScore(cfg, off) {
			entry = cfgcache.RemapEntry{OK: true} // keep the translation
		}
	}
	m.cache.Insert(cfg.StartPC, healthVer, wearVer, entry)
	if entry.OK && entry.Cfg == nil {
		return cfg, off, true
	}
	return entry.Cfg, entry.Off, entry.OK
}

// searchStripe is one stripe's share of the rescue scan: the stripe-local
// winner plus the order-invariant work counters.
type searchStripe struct {
	idx      int // winning candidate index, -1 when the stripe holds none
	consumed int
	score    float64
	cfg      *fabric.Config
	off      fabric.Offset
	probes   uint64
	cells    uint64
}

// search scans every candidate (shape × anchor), keeping the placement
// that holds the longest prefix of the sequence and, among equally long
// ones, minimises the explorer's projected worst-cell ΔVt. Ties beyond the
// score break by shape order then row-major anchor — the flattened
// candidate index — so the search is deterministic.
//
// The scan fans out over runtime.GOMAXPROCS goroutines (serially below
// minParallelCandidates): candidates are partitioned into contiguous
// stripes, each worker maps, checks and scores its own range against
// shared read-only state (the trace, the health map and the explorer's
// projection, synchronised once by Reproject), and the reduction picks the
// winner by (consumed desc, score asc, index asc) in stripe order. Every viable candidate is mapped, counted and scored —
// there is no running-best gate short-circuiting the per-candidate work —
// so the searchcost counters are sums over a fixed candidate set,
// byte-identical for every worker count including the serial path.
func (m *Remapper) search(cfg *fabric.Config) cfgcache.RemapEntry {
	minOps := m.minOps
	if n := len(cfg.Ops); n < minOps {
		minOps = n
	}
	// One Eq. 1 projection pass serves the whole candidate scan: the
	// projection depends only on the fabric state and the observed duty,
	// neither of which changes mid-search.
	m.ex.Reproject()
	m.counts.RemapScans++
	m.counts.RemapProjections += uint64(m.geom.NumFUs())

	shapes := make([]fabric.Geometry, 0, len(m.shapes))
	for _, shape := range m.shapes {
		if shape.Rows <= m.geom.Rows && shape.Cols <= m.geom.Cols {
			shapes = append(shapes, shape)
		}
	}
	anchors := m.geom.NumFUs()
	n := len(shapes) * anchors
	if n == 0 {
		return cfgcache.RemapEntry{}
	}
	m.counts.RemapCandidates += uint64(n)
	trace := Trace(cfg)

	workers := runtime.GOMAXPROCS(0)
	if n < minParallelCandidates {
		workers = 1
	}
	stripes := scanStripes(n, workers, func(lo, hi int) searchStripe {
		return m.searchRange(trace, shapes, minOps, lo, hi)
	})

	best := searchStripe{idx: -1}
	for _, sr := range stripes {
		m.counts.RemapProbes += sr.probes
		m.counts.RemapCells += sr.cells
		if sr.idx < 0 {
			continue
		}
		if best.idx < 0 || sr.consumed > best.consumed ||
			(sr.consumed == best.consumed && (sr.score < best.score ||
				(sr.score == best.score && sr.idx < best.idx))) {
			best = sr
		}
	}
	if best.idx < 0 {
		return cfgcache.RemapEntry{}
	}
	return cfgcache.RemapEntry{Cfg: best.cfg, Off: best.off, OK: true}
}

// searchRange evaluates the flattened candidate range [lo, hi): candidate i
// is shape i/NumFUs anchored at the row-major offset i%NumFUs. Each viable
// candidate — mappable, long enough, live — is placed, counted and scored;
// the stripe keeps the (consumed desc, score asc, index asc) winner.
func (m *Remapper) searchRange(trace []mapper.TraceEntry, shapes []fabric.Geometry, minOps, lo, hi int) searchStripe {
	sr := searchStripe{idx: -1}
	cols := m.geom.Cols
	for i := lo; i < hi; i++ {
		shape := shapes[i/m.geom.NumFUs()]
		a := i % m.geom.NumFUs()
		anchor := fabric.Offset{Row: a / cols, Col: a % cols}
		var disabled func(fabric.Cell) bool
		if m.health != nil && m.health.DeadCount() > 0 {
			disabled = func(c fabric.Cell) bool {
				return m.health.Dead(anchor.Apply(c, m.geom))
			}
		}
		mc, consumed := mapper.Map(trace, mapper.Options{
			Geom:     shape,
			Lat:      m.lat,
			Disabled: disabled,
			Probes:   &sr.probes,
		})
		if mc == nil || consumed < minOps {
			continue
		}
		// The anchor-frame mask guarantees liveness by construction;
		// re-checking keeps the never-dead-placement invariant even if a
		// shape list with out-of-range cells sneaks in.
		if !m.health.PlacementOK(mc.Cells(), anchor) {
			continue
		}
		sr.cells += uint64(len(mc.Cells()))
		score := m.ex.ProjectedScore(mc, anchor)
		if sr.idx < 0 || consumed > sr.consumed ||
			(consumed == sr.consumed && score < sr.score) {
			sr.idx, sr.consumed, sr.score = i, consumed, score
			sr.cfg, sr.off = mc, anchor
		}
	}
	return sr
}

// scanStripes partitions [0, n) into min(n, workers) contiguous stripes,
// ordered and sized as evenly as possible, calls fn(lo, hi) once per
// stripe and returns the results in stripe order. A single stripe runs
// synchronously on the caller's goroutine; several run on one goroutine
// each. Stripe boundaries are a pure function of (n, workers) and every
// index lands in exactly one stripe, so a caller whose per-index work is
// independent of evaluation order and that reduces the results in stripe
// order gets the same outcome for every worker count.
func scanStripes[T any](n, workers int, fn func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	out := make([]T, workers)
	if workers == 1 {
		out[0] = fn(0, n)
		return out
	}
	var wg sync.WaitGroup
	base, rem := n/workers, n%workers
	lo := 0
	for s := range out {
		hi := lo + base
		if s < rem {
			hi++
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			out[s] = fn(lo, hi)
		}(s, lo, hi)
		lo = hi
	}
	wg.Wait()
	return out
}

var (
	_ alloc.Allocator         = (*Remapper)(nil)
	_ alloc.HealthSetter      = (*Remapper)(nil)
	_ alloc.WearSetter        = (*Remapper)(nil)
	_ alloc.StressObserver    = (*Remapper)(nil)
	_ alloc.ConfigRemapper    = (*Remapper)(nil)
	_ searchcost.Instrumented = (*Remapper)(nil)
)
