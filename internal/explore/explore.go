// Package explore implements the wear-aware placement explorer: the
// HeLEx-style health/layout exploration the paper leaves as future work.
//
// The utilization-aware allocators balance duty a priori by rotating a
// pivot; once cells start dying, the controller's skip-scan merely advances
// that rotation to the first live pivot, so post-failure wear
// re-concentrates on whichever survivors happen to sit next in the pattern.
// The Explorer instead *chooses* among live placements: for every candidate
// pivot of a translation it projects the post-placement wear of each FU the
// configuration would touch — the accumulated stress-years threaded out of
// the lifetime simulator (fabric.Wear) plus the pattern's observed duty
// footprint projected over a short horizon — evaluates the projected ΔVt
// under the paper's Eq. 1 NBTI model, and picks the placement minimising the
// maximum projected ΔVt. Minimising the worst projected degradation is
// exactly maximising the time until the next FU crosses the end-of-life
// threshold.
//
// # Incremental projection
//
// The projection inputs are maintained as deltas, not recomputed per scan:
// ObserveStress adjusts only the cells of the committed footprint (the
// dirty set of one commit is exactly the placement's physical cells), and
// the cross-epoch wear snapshot is reconciled only when fabric.Wear's
// version moves — between commits the snapshot is provably clean. The scan
// itself never evaluates Eq. 1 per cell: a cell's projected stress-years
// are wearY[i] + stress[i]·(horizon/active), one fused multiply-add against
// the incrementally maintained tables, and because Eq. 1's ΔVt is strictly
// increasing in stress-years (it depends on t and u only through t·u), the
// pivot minimising the maximum projected years is exactly the pivot
// minimising the maximum projected ΔVt — the model is applied once to the
// winning maximum instead of once per cell. Ties on the maximum break by
// the footprint's total projected stress-years, then by row-major pivot
// order, so the scan stays deterministic.
//
// The scan does not walk the pivots one by one. Each placement keeps a
// cover table (fabric.Config.Cover), built once and shared by every clone
// of it: for every physical cell, the set of pivots whose footprint covers
// it. The scan is then a blocked-pivot descent over
// pivot sets. It starts from the live pivots and a bound t, the held
// pivot's worst cell. Every pivot covering a cell projected above t cannot
// win and leaves the set. If a pivot left in the set covers no cell at
// exactly t, its worst cell lies strictly below t: the pivots covering a
// cell at t leave too, and t drops to the worst cell of the lowest pivot
// left. When every pivot left covers a cell at t, they are the tie set at
// the minimum maximum, and the footprint totals rank them. Each round
// blocks only the cells of a new band, so no cell's cover is merged twice.
// The bound and the bands read one projection table, so the pivot that set
// t never blocks itself. The descent and the incremental tables are
// simulator-side shortcuts around the *same* argmin; the searchcost
// counters keep reporting the work the modeled hardware search engine
// would issue — one projection-table refresh per cell per scan and one
// score evaluation per cell of every live candidate — so counted work is
// identical to a full rescan's (the argmin-equals-full-scan property and
// differential tests pin both).
//
// Because an exhaustive pivot search per execution would be costly in
// hardware, the search runs every RecomputeEvery *committed* executions and
// the chosen pivot is held in between; a health or wear state change forces
// an immediate re-exploration, mirroring alloc.HealthAware. The hold period
// counts executions the controller actually committed (ObserveStress), not
// allocator proposals: the controller's dead-cell skip-scan may call Next
// up to NumFUs times per offload, and counting those proposals would
// silently erode RecomputeEvery toward "recompute every offload" on
// failing fabrics. The held pivot is additionally keyed per configuration
// (object identity — StartPC alone collides across a mix's programs,
// which share a text base): a pivot explored for one kernel's footprint
// is never blindly inherited by another kernel whose footprint it may be
// wear-suboptimal (or dead-hitting) for. The cost of the scans is no longer
// asserted cheap: the explorer counts its explorations and per-cell
// evaluations, and internal/searchcost derives the per-offload overhead
// from them.
//
// # Snapshot consistency
//
// Score evaluates against the same incrementally maintained state the
// pivot scan reads — there is no separately cached per-cell ΔVt table
// that can go stale between a scan and an external scoring call. The
// shape-adaptive remapper's rescue search and the explorer's own argmin
// therefore score against the same snapshot by construction. Each Score
// call first reconciles the wear snapshot, which costs one fabric state
// key compare when the wear map has not moved.
package explore

import (
	"fmt"
	"math"
	"math/bits"

	"agingcgra/internal/aging"
	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
	"agingcgra/internal/searchcost"
)

// Explorer is the wear-aware placement explorer. It implements
// alloc.Allocator plus the three feedback interfaces the controller
// forwards: HealthSetter (dead cells), WearSetter (cross-epoch
// stress-years) and StressObserver (within-run duty).
type Explorer struct {
	geom fabric.Geometry
	// model is the paper's NBTI calibration (aging.NewModel), which
	// scores projected wear.
	model aging.Model
	// horizonYears scales the within-run duty footprint into projected
	// stress-years: the explorer assumes the observed allocation pattern
	// persists for this long when ranking candidate placements.
	horizonYears float64
	// recomputeEvery is the pivot re-exploration period in executions.
	recomputeEvery uint64

	health *fabric.Health
	wear   *fabric.Wear

	// rowBase/colMod are the toroidal index tables: the physical row-major
	// index of virtual cell (r, c) under pivot (pr, pc) is
	// rowBase[r+pr] + colMod[c+pc], replacing two modulo reductions per
	// cell with two table loads on every scan, commit and score path.
	rowBase []int
	colMod  []int

	// Within-run observed stress (physical cells, row-major), fed back by
	// the controller on every committed execution: the delta-updated half
	// of the incremental projection. One commit dirties exactly the cells
	// of its footprint.
	stress []uint64
	active uint64

	// wearY is the reconciled snapshot of fabric.Wear (stress-years per
	// physical cell): the cross-epoch half of the incremental projection.
	// It is refreshed only when the wear version moves (or the map is
	// swapped), never per scan.
	wearY    []float64
	wearSeen fabric.StateKey
	wearOld  bool // snapshot must resync regardless of key equality
	// yProj is the per-scan projection table: yProj[i] = wearY[i] +
	// stress[i]·k, materialised once per Explore (the modeled hardware's
	// projection refresh, PivotProjections += NumFUs) so the pivot loop
	// reads one float per cell instead of recomputing the FMA per
	// candidate. It is only valid within the Explore call that filled it.
	yProj []float64
	// words is the length of one pivot set, ceil(NumFUs/64) words in
	// fabric.Mask's layout; sets holds the scan's three scratch sets (the
	// candidates, the cells above the bound, the cells at it).
	words int
	sets  []uint64

	// count is the number of committed executions observed so far: the
	// clock the hold period runs on. Allocator proposals (Next calls) do
	// not advance it — only ObserveStress does.
	count uint64
	// pivots holds the per-configuration exploration state: the held
	// pivot, the commit count at which it expires, and the fabric-state
	// key it was explored under. The key is the configuration object
	// itself, not its StartPC: one allocator serves every benchmark of a
	// lifetime mix and the programs share a text base, so distinct
	// kernels can collide on a PC while their footprints (and therefore
	// their pivot argmins and no-live verdicts) differ. The map is never
	// iterated, so pointer keying stays deterministic. lastCfg/lastSt
	// short-circuit the map hash for the common case of one configuration
	// offloading repeatedly (a kernel's inner loop).
	pivots  map[*fabric.Config]*pivotState
	lastCfg *fabric.Config
	lastSt  *pivotState

	// counts tallies the search work for the derived cost model.
	counts searchcost.Counts
}

// pivotState is one configuration's held exploration outcome.
type pivotState struct {
	off fabric.Offset
	// nextAt is the committed-execution count at which the pivot expires.
	nextAt uint64
	// key is the fabric state the pivot was explored under; its moving
	// marks the pivot stale.
	key fabric.StateKey
	// noLive records that the exploration found no live placement for this
	// footprint under key: further proposals skip the (futile) rescan
	// until the health state changes, so an unplaceable configuration
	// costs one exploration per fabric state instead of one per proposal.
	noLive bool
	// explored marks that off is a real exploration outcome (the zero
	// state is "never explored", whose zero off must not seed the scan).
	explored bool
}

// Option configures the Explorer.
type Option func(*Explorer)

// WithHorizon sets the projection horizon in years (default 1). A
// horizon that is not finite and positive is ignored: an infinite one
// would project every unstressed cell to NaN and every stressed one to
// +Inf.
func WithHorizon(years float64) Option {
	return func(e *Explorer) {
		if years > 0 && !math.IsInf(years, 1) {
			e.horizonYears = years
		}
	}
}

// WithRecomputeEvery sets the pivot re-exploration period (default 16,
// matching alloc.HealthAware).
func WithRecomputeEvery(n int) Option {
	return func(e *Explorer) {
		if n >= 1 {
			e.recomputeEvery = uint64(n)
		}
	}
}

// New builds a wear-aware placement explorer for the geometry.
func New(g fabric.Geometry, opts ...Option) *Explorer {
	e := &Explorer{
		geom:           g,
		model:          aging.NewModel(),
		horizonYears:   1,
		recomputeEvery: 16,
		rowBase:        make([]int, 2*g.Rows),
		colMod:         make([]int, 2*g.Cols),
		stress:         make([]uint64, g.NumFUs()),
		wearY:          make([]float64, g.NumFUs()),
		yProj:          make([]float64, g.NumFUs()),
		words:          (g.NumFUs() + 63) >> 6,
		pivots:         make(map[*fabric.Config]*pivotState),
	}
	e.sets = make([]uint64, 3*e.words)
	for i := range e.rowBase {
		e.rowBase[i] = (i % g.Rows) * g.Cols
	}
	for i := range e.colMod {
		e.colMod[i] = i % g.Cols
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements alloc.Allocator.
func (e *Explorer) Name() string {
	return fmt.Sprintf("explore/every=%d", e.recomputeEvery)
}

// SetHealth implements alloc.HealthSetter.
func (e *Explorer) SetHealth(h *fabric.Health) { e.health = h }

// SetWear implements alloc.WearSetter.
func (e *Explorer) SetWear(w *fabric.Wear) {
	e.wear = w
	e.wearOld = true // force a resync: a swapped map may share a key
}

// ObserveStress implements alloc.StressObserver. Committed executions are
// also the clock of the pivot hold period: one commit advances the count
// by one, however many proposals the controller's skip-scan consumed to
// place it. The update touches exactly the committed footprint's physical
// cells — the dirty set of the incremental projection — plus the shared
// active-cycles denominator.
func (e *Explorer) ObserveStress(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	if uint(off.Row) >= uint(e.geom.Rows) || uint(off.Col) >= uint(e.geom.Cols) {
		off = fabric.Offset{Row: off.Row % e.geom.Rows, Col: off.Col % e.geom.Cols}
	}
	rb := e.rowBase[off.Row:]
	cm := e.colMod[off.Col:]
	for _, cell := range cells {
		e.stress[rb[cell.Row]+cm[cell.Col]] += cycles
	}
	e.active += cycles
	e.count++
}

// syncWear reconciles the wear snapshot with fabric.Wear. The snapshot is
// clean whenever the wear version has not moved, so the reconciliation
// runs once per cross-epoch wear advance instead of once per scan.
func (e *Explorer) syncWear() {
	if e.wear == nil {
		if e.wearOld {
			for i := range e.wearY {
				e.wearY[i] = 0
			}
			e.wearOld = false
		}
		return
	}
	if moved := e.wearSeen.Update(nil, e.wear, nil); e.wearOld || moved {
		e.wearY = e.wear.CopyYears(e.wearY)
		e.wearOld = false
	}
}

// dutyScale returns the per-cycle horizon scaling of the projection: a
// cell's projected stress-years are wearY + stress·dutyScale.
func (e *Explorer) dutyScale() float64 {
	if e.active == 0 {
		return 0
	}
	return e.horizonYears / float64(e.active)
}

// Next implements alloc.Allocator: the configuration's held pivot,
// re-explored once its hold period of recomputeEvery committed executions
// expires, immediately on health/wear changes, and whenever the held pivot
// would drive the footprint onto a dead FU. The last rule matters on
// fabrics smaller than the hold period: the controller's skip-scan is
// bounded by NumFUs proposals, so without it a stale pivot could exhaust
// the scan and force a GPP fallback although live placements exist.
//
// The pivot (and its hold state) is keyed by the configuration object:
// with a multi-kernel mix, one kernel never inherits a pivot explored for
// another kernel's footprint — the inherited liveness check used to save
// correctness there, but the wear score was never revalidated, so the
// second kernel could ride a wear-suboptimal pivot for a whole hold
// period. Proposals do not advance the hold clock (ObserveStress does), so
// repeated skip-scan calls within one offload can neither erode the period
// nor trigger a mid-scan re-exploration.
func (e *Explorer) Next(cfg *fabric.Config) fabric.Offset {
	if cfg == nil {
		return fabric.Offset{}
	}
	st := e.state(cfg)
	stale := st.key.Update(e.health, e.wear, nil)
	recompute := stale || e.count >= st.nextAt
	live := cfg.LivePivots(e.health)
	if !recompute && live != nil && !live[st.off.Row*e.geom.Cols+st.off.Col] {
		// The footprint dead-hits the held pivot. If the last exploration
		// under this exact health state already proved no live placement
		// exists, rescanning is futile — the controller will fall back to
		// the GPP; otherwise re-explore immediately.
		if st.noLive {
			return st.off
		}
		recompute = true
	}
	if recompute {
		if st.noLive && !stale {
			// Known-unplaceable under an unchanged health state: the expiry
			// of the hold period cannot create a live placement.
			st.nextAt = e.count + e.recomputeEvery
			return st.off
		}
		st.off = e.Explore(cfg)
		st.explored = true
		st.nextAt = e.count + e.recomputeEvery
		st.noLive = live != nil && !live[st.off.Row*e.geom.Cols+st.off.Col]
	}
	return st.off
}

// state returns cfg's exploration state, creating it unexplored.
func (e *Explorer) state(cfg *fabric.Config) *pivotState {
	if cfg == e.lastCfg {
		return e.lastSt
	}
	st, ok := e.pivots[cfg]
	if !ok {
		st = &pivotState{}
		e.pivots[cfg] = st
		st.nextAt = e.count // unexplored: force the first search
	}
	e.lastCfg, e.lastSt = cfg, st
	return st
}

// scanResult is the outcome of one pivot scan: the argmin plus the work
// counter.
type scanResult struct {
	idx int // winning pivot index, -1 when no pivot is live
	// cells is the scan's live-candidate score evaluations: len(cells)
	// for every fully-live pivot, however early the descent blocks it,
	// exactly what an exhaustive rescan would count.
	cells uint64
}

// Explore scans every pivot and returns the live placement minimising the
// maximum projected ΔVt over the cells the configuration would occupy.
// Because ΔVt is strictly increasing in projected stress-years, the scan
// ranks candidates on years directly; ties on the maximum break by the
// footprint's total projected stress-years, then by row-major pivot order
// for determinism. Pivots whose placement would drive a dead FU are
// excluded; when no live placement exists the zero offset is returned and
// the controller's own health check rejects the offload (GPP fallback).
//
// The scan starts its descent from the held pivot's worst cell: in steady
// state the argmin moves slowly, so the first bound already blocks most
// candidates. The start changes neither the argmin nor the counted work,
// so the scan is byte-identical in outcome and searchcost counters to an
// exhaustive one.
func (e *Explorer) Explore(cfg *fabric.Config) fabric.Offset {
	e.syncWear()
	cells := cfg.Cells()
	live := cfg.LivePivots(e.health)
	k := e.dutyScale()
	e.counts.PivotScans++
	e.counts.PivotProjections += uint64(e.geom.NumFUs())
	for i, w := range e.wearY {
		e.yProj[i] = w + float64(e.stress[i])*k
	}

	st := e.state(cfg)
	held := -1
	if st.explored {
		held = st.off.Row*e.geom.Cols + st.off.Col
	}
	sr := e.scanPivots(cells, cfg.Cover(e.geom), live, held)
	e.counts.PivotCells += sr.cells
	if sr.idx < 0 {
		return fabric.Offset{}
	}
	return fabric.Offset{Row: sr.idx / e.geom.Cols, Col: sr.idx % e.geom.Cols}
}

// scanPivots returns the argmin over the live pivots (every pivot when
// live is nil) by (max projected years, total projected years, row-major
// order), reading yProj, by the blocked-pivot descent the package comment
// describes. cover is the footprint's cover table on e.geom
// (fabric.Config.Cover) and held the previously held pivot (-1 for none),
// whose worst cell is the first bound when it is live. After the first
// round a band holds the cells above the bound and below the last one: the
// cells at or above the last bound are merged already. A worst cell is
// floored at zero, as the exhaustive scan's running maximum starts there,
// so at a zero bound every pivot left ties (a footprint of NaN projections
// covers no cell at 0 yet scores 0).
func (e *Explorer) scanPivots(cells []fabric.Cell, cover []uint64, live []bool, held int) scanResult {
	sr := scanResult{idx: -1}
	n, nw := e.geom.NumFUs(), e.words
	s, gt, eq := e.sets[:nw], e.sets[nw:2*nw], e.sets[2*nw:]
	clear(s)
	if live == nil {
		for p := 0; p < n; p++ {
			s[p>>6] |= 1 << (p & 63)
		}
	} else {
		for p, ok := range live[:n] {
			var b uint64
			if ok {
				b = 1
			}
			s[p>>6] |= b << (p & 63)
		}
	}
	nLive := count(s)
	sr.cells = uint64(nLive * len(cells))
	if nLive == 0 {
		return sr
	}
	if len(cells) == 0 {
		sr.idx = lowest(s)
		return sr
	}
	if held < 0 || s[held>>6]&(1<<(held&63)) == 0 {
		held = lowest(s)
	}
	t := e.worstAt(cells, held)
	top, hi := true, 0.0 // hi bounds the bands from above after the first round
	for {
		clear(gt)
		clear(eq)
		for i, y := range e.yProj {
			if y < t {
				continue
			}
			var dst []uint64
			switch {
			case y == t:
				dst = eq
			case y > t && (top || y < hi):
				dst = gt
			default:
				continue
			}
			for j, w := range cover[i*nw : i*nw+nw] {
				dst[j] |= w
			}
		}
		below := false
		for j := range s {
			s[j] &^= gt[j]
			below = below || s[j]&^eq[j] != 0
		}
		if !below || t == 0 {
			break
		}
		for j := range s {
			s[j] &^= eq[j]
		}
		hi, top = t, false
		t = e.worstAt(cells, lowest(s))
	}
	// S is the tie set: the footprint totals rank it, unless it is a
	// single pivot.
	sr.idx = lowest(s)
	if count(s) == 1 {
		return sr
	}
	sr.idx = -1
	var best float64
	for j, w := range s {
		for ; w != 0; w &= w - 1 {
			p := j<<6 | bits.TrailingZeros64(w)
			if sum := e.sumAt(cells, p); sr.idx < 0 || sum < best {
				sr.idx, best = p, sum
			}
		}
	}
	return sr
}

// count returns the number of pivots in a set.
func count(s []uint64) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// lowest returns the lowest pivot of a non-empty set.
func lowest(s []uint64) int {
	for j, w := range s {
		if w != 0 {
			return j<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// worstAt returns the worst yProj cell of cells placed at pivot p, floored
// at zero as the exhaustive scan's running maximum is.
func (e *Explorer) worstAt(cells []fabric.Cell, p int) float64 {
	rb := e.rowBase[p/e.geom.Cols:]
	cm := e.colMod[p%e.geom.Cols:]
	maxY := 0.0
	for _, cell := range cells {
		if y := e.yProj[rb[cell.Row]+cm[cell.Col]]; y > maxY {
			maxY = y
		}
	}
	return maxY
}

// sumAt returns the total yProj of cells placed at pivot p, summed in
// footprint order.
func (e *Explorer) sumAt(cells []fabric.Cell, p int) float64 {
	rb := e.rowBase[p/e.geom.Cols:]
	cm := e.colMod[p%e.geom.Cols:]
	sumY := 0.0
	for _, cell := range cells {
		sumY += e.yProj[rb[cell.Row]+cm[cell.Col]]
	}
	return sumY
}

// scoreYears evaluates one candidate: the maximum and total projected
// stress-years over the footprint.
func (e *Explorer) scoreYears(cells []fabric.Cell, off fabric.Offset, k float64) (maxY, sumY float64) {
	if uint(off.Row) >= uint(e.geom.Rows) || uint(off.Col) >= uint(e.geom.Cols) {
		off = fabric.Offset{Row: off.Row % e.geom.Rows, Col: off.Col % e.geom.Cols}
	}
	rb := e.rowBase[off.Row:]
	cm := e.colMod[off.Col:]
	for _, cell := range cells {
		idx := rb[cell.Row] + cm[cell.Col]
		y := e.wearY[idx] + float64(e.stress[idx])*k
		sumY += y
		if y > maxY {
			maxY = y
		}
	}
	return maxY, sumY
}

// Score returns the maximum projected ΔVt of placing cfg at off under the
// explorer's current state: the objective Explore minimises. Exposed for
// the shape-adaptive remapper's rescue search (which ranks by WorstYears
// first), and so tests can compare the explorer's choice against
// alternatives such as the skip-scan fallback it replaces. ΔVt is strictly increasing in projected
// stress-years, so evaluating Eq. 1 once on the footprint's worst cell
// equals the maximum of per-cell evaluations.
func (e *Explorer) Score(cfg *fabric.Config, off fabric.Offset) float64 {
	return e.model.Cond.DeltaVt(e.WorstYears(cfg, off), 1)
}

// WorstYears returns the projected stress-years of the worst cell of
// placing cfg at off, the quantity Score feeds to Eq. 1. A search that
// ranks many candidates compares these and evaluates Score only where the
// years improve; two year values can still round to one ΔVt.
func (e *Explorer) WorstYears(cfg *fabric.Config, off fabric.Offset) float64 {
	e.syncWear()
	maxY, _ := e.scoreYears(cfg.Cells(), off, e.dutyScale())
	return maxY
}

// SearchCounts implements searchcost.Instrumented: the accumulated pivot
// scans, per-cell score evaluations and projection refreshes the derived
// cost model prices. The counters report the work the modeled hardware
// search engine would issue — a full projection refresh per scan and one
// evaluation per cell of every live candidate — invariant to the
// simulator's descent and memoization.
func (e *Explorer) SearchCounts() searchcost.Counts { return e.counts }

var (
	_ alloc.Allocator         = (*Explorer)(nil)
	_ alloc.HealthSetter      = (*Explorer)(nil)
	_ alloc.WearSetter        = (*Explorer)(nil)
	_ alloc.StressObserver    = (*Explorer)(nil)
	_ searchcost.Instrumented = (*Explorer)(nil)
)
