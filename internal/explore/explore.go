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
// The scan prunes: a candidate whose running maximum already exceeds the
// best-so-far (seeded from the previously held pivot's score) cannot win
// and its remaining cells are not scored. Pruning and the incremental
// tables are simulator-side shortcuts around the *same* argmin; the
// searchcost counters keep reporting the work the modeled hardware search
// engine would issue — one projection-table refresh per cell per scan and
// one score evaluation per cell of every live candidate — so counted work
// is identical between the pruned scan and a full rescan (the
// argmin-equals-full-scan property test pins both).
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
// Score and ProjectedScore always evaluate against the same incrementally
// maintained state the pivot scan reads — there is no separately cached
// per-cell ΔVt table that can go stale between a scan and an external
// scoring call. The shape-adaptive remapper's reshape comparison and the
// explorer's own argmin therefore score against the same snapshot by
// construction; Reproject remains as the explicit synchronisation point
// callers use before scoring candidates concurrently.
package explore

import (
	"fmt"
	"math"

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
	geom  fabric.Geometry
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
	wearSeen uint64
	wearOld  bool // snapshot must resync regardless of version equality
	// yProj is the per-scan projection table: yProj[i] = wearY[i] +
	// stress[i]·k, materialised once per Explore (the modeled hardware's
	// projection refresh, PivotProjections += NumFUs) so the pivot loop
	// reads one float per cell instead of recomputing the FMA per
	// candidate. It is only valid within the Explore call that filled it.
	yProj []float64

	// count is the number of committed executions observed so far: the
	// clock the hold period runs on. Allocator proposals (Next calls) do
	// not advance it — only ObserveStress does.
	count uint64
	// pivots holds the per-configuration exploration state: the held
	// pivot, the commit count at which it expires, and the fabric-state
	// versions it was explored under. The key is the configuration object
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
	// healthVer/wearVer are the fabric-state versions the pivot was
	// explored under; either moving marks it stale.
	healthVer uint64
	wearVer   uint64
	// noLive records that the exploration found no live placement for this
	// footprint at healthVer: further proposals skip the (futile) rescan
	// until the health state changes, so an unplaceable configuration
	// costs one exploration per fabric state instead of one per proposal.
	noLive bool
	// explored marks that off is a real exploration outcome (the zero
	// state is "never explored", whose zero off must not seed pruning).
	explored bool
}

// Option configures the Explorer.
type Option func(*Explorer)

// WithModel selects the NBTI model scoring projected wear (default
// aging.NewModel, the paper's calibration).
func WithModel(m aging.Model) Option {
	return func(e *Explorer) { e.model = m }
}

// WithHorizon sets the projection horizon in years (default 1).
func WithHorizon(years float64) Option {
	return func(e *Explorer) {
		if years > 0 {
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
		pivots:         make(map[*fabric.Config]*pivotState),
	}
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
	e.wearOld = true // force a resync: a swapped map may share a version
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
	if v := e.wear.Version(); e.wearOld || v != e.wearSeen {
		e.wearY = e.wear.CopyYears(e.wearY)
		e.wearSeen = v
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

// versions snapshots the observable fabric-state versions (zero when a map
// is not attached).
func (e *Explorer) versions() (healthVer, wearVer uint64) {
	if e.health != nil {
		healthVer = e.health.Version()
	}
	if e.wear != nil {
		wearVer = e.wear.Version()
	}
	return healthVer, wearVer
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
	st := e.lastSt
	if cfg != e.lastCfg {
		var ok bool
		st, ok = e.pivots[cfg]
		if !ok {
			st = &pivotState{}
			e.pivots[cfg] = st
			st.nextAt = e.count // unexplored: force the first search
		}
		e.lastCfg, e.lastSt = cfg, st
	}
	healthVer, wearVer := e.versions()
	stale := st.healthVer != healthVer || st.wearVer != wearVer
	recompute := stale || e.count >= st.nextAt
	if !recompute && e.health != nil && e.health.DeadCount() > 0 &&
		!e.health.PlacementOK(cfg.Cells(), st.off) {
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
		st.healthVer, st.wearVer = healthVer, wearVer
		st.off = e.Explore(cfg)
		st.explored = true
		st.nextAt = e.count + e.recomputeEvery
		st.noLive = e.health != nil && e.health.DeadCount() > 0 &&
			!e.health.PlacementOK(cfg.Cells(), st.off)
	}
	return st.off
}

// scanResult is the outcome of one pivot scan: the argmin plus the work
// counter.
type scanResult struct {
	idx  int // winning pivot index, -1 when no pivot is live
	maxY float64
	sumY float64
	// cells is the scan's live-candidate score evaluations: len(cells)
	// for every fully-live pivot, pruned or not, exactly what an unpruned
	// rescan would count.
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
// The scan seeds its pruning bound with the previously held pivot's score.
// That never changes the argmin (pruning only discards candidates whose
// running maximum is already strictly worse) nor the counted work (a
// pruned candidate still counts its full footprint), so pruned and
// unpruned scans are byte-identical in outcome and searchcost counters.
func (e *Explorer) Explore(cfg *fabric.Config) fabric.Offset {
	e.syncWear()
	cells := cfg.Cells()
	var dead []bool
	if e.health != nil && e.health.DeadCount() > 0 {
		dead = e.health.DeadMask()
	}
	k := e.dutyScale()
	e.counts.PivotScans++
	e.counts.PivotProjections += uint64(e.geom.NumFUs())
	for i, w := range e.wearY {
		e.yProj[i] = w + float64(e.stress[i])*k
	}

	// Seed the pruning bound with the held pivot's current score: in
	// steady state the argmin moves slowly, so most candidates abort on
	// their first cell worse than the incumbent.
	seed := math.Inf(1)
	st := e.lastSt
	if cfg != e.lastCfg {
		st = e.pivots[cfg]
	}
	if st != nil && st.explored {
		if maxY, _, live := e.scoreYears(cells, st.off, dead, k); live {
			seed = maxY
		}
	}

	sr := e.scanPivots(cells, dead, seed)
	e.counts.PivotCells += sr.cells
	if sr.idx < 0 {
		return fabric.Offset{}
	}
	return fabric.Offset{Row: sr.idx / e.geom.Cols, Col: sr.idx % e.geom.Cols}
}

// scanPivots evaluates every pivot and returns the argmin by (max
// projected years, total projected years, row-major order). seed bounds
// the pruning from the start; the bound then tightens to the scan's own
// best. A pruned candidate still completes its liveness walk so the
// counted work stays that of the full rescan.
func (e *Explorer) scanPivots(cells []fabric.Cell, dead []bool, seed float64) scanResult {
	if dead == nil {
		return e.scanPivotsHealthy(cells, seed)
	}
	sr := scanResult{idx: -1, maxY: math.Inf(1), sumY: math.Inf(1)}
	thr := seed
	cols := e.geom.Cols
	yProj := e.yProj
	n := e.geom.NumFUs()
	pr, pc := 0, 0
	for p := 0; p < n; p++ {
		rb := e.rowBase[pr:]
		cm := e.colMod[pc:]
		if pc++; pc == cols {
			pc = 0
			pr++
		}
		maxY, sumY := 0.0, 0.0
		live, pruned := true, false
		for ci := 0; ci < len(cells); ci++ {
			cell := cells[ci]
			idx := rb[cell.Row] + cm[cell.Col]
			if dead[idx] {
				live = false
				break
			}
			y := yProj[idx]
			sumY += y
			if y > maxY {
				maxY = y
				if y > thr {
					// Cannot win: the final maximum is at least y. Finish
					// the liveness walk so the pivot is classified — and
					// counted — exactly as a full scan would.
					pruned = true
					for _, c2 := range cells[ci+1:] {
						if dead[rb[c2.Row]+cm[c2.Col]] {
							live = false
							break
						}
					}
					break
				}
			}
		}
		if !live {
			continue
		}
		sr.cells += uint64(len(cells))
		if pruned {
			continue
		}
		if sr.idx < 0 || maxY < sr.maxY || (maxY == sr.maxY && sumY < sr.sumY) {
			sr.idx, sr.maxY, sr.sumY = p, maxY, sumY
			if maxY < thr {
				thr = maxY
			}
		}
	}
	return sr
}

// scanPivotsHealthy is scanPivots for a fully-live fabric: every pivot is a
// live candidate, so the dead checks, the liveness walk after a prune and
// the per-pivot live classification all drop out of the inner loop. The
// steady-state scan (no failures yet) spends most of the simulation here.
func (e *Explorer) scanPivotsHealthy(cells []fabric.Cell, seed float64) scanResult {
	sr := scanResult{idx: -1, maxY: math.Inf(1), sumY: math.Inf(1)}
	thr := seed
	cols := e.geom.Cols
	yProj := e.yProj
	n := e.geom.NumFUs()
	pr, pc := 0, 0
	for p := 0; p < n; p++ {
		rb := e.rowBase[pr:]
		cm := e.colMod[pc:]
		if pc++; pc == cols {
			pc = 0
			pr++
		}
		maxY, sumY := 0.0, 0.0
		pruned := false
		for _, cell := range cells {
			idx := rb[cell.Row] + cm[cell.Col]
			y := yProj[idx]
			sumY += y
			if y > maxY {
				maxY = y
				if y > thr {
					pruned = true
					break
				}
			}
		}
		if pruned {
			continue
		}
		if sr.idx < 0 || maxY < sr.maxY || (maxY == sr.maxY && sumY < sr.sumY) {
			sr.idx, sr.maxY, sr.sumY = p, maxY, sumY
			if maxY < thr {
				thr = maxY
			}
		}
	}
	sr.cells = uint64(n) * uint64(len(cells))
	return sr
}

// scoreYears evaluates one candidate: the maximum and total projected
// stress-years over the footprint, and whether the placement is live.
func (e *Explorer) scoreYears(cells []fabric.Cell, off fabric.Offset, dead []bool, k float64) (maxY, sumY float64, live bool) {
	if uint(off.Row) >= uint(e.geom.Rows) || uint(off.Col) >= uint(e.geom.Cols) {
		off = fabric.Offset{Row: off.Row % e.geom.Rows, Col: off.Col % e.geom.Cols}
	}
	rb := e.rowBase[off.Row:]
	cm := e.colMod[off.Col:]
	for _, cell := range cells {
		idx := rb[cell.Row] + cm[cell.Col]
		if dead != nil && dead[idx] {
			return 0, 0, false
		}
		y := e.wearY[idx] + float64(e.stress[idx])*k
		sumY += y
		if y > maxY {
			maxY = y
		}
	}
	return maxY, sumY, true
}

// Score returns the maximum projected ΔVt of placing cfg at off under the
// explorer's current state: the objective Explore minimises. Exposed so
// tests (and diagnostics) can compare the explorer's choice against
// alternatives such as the skip-scan fallback it replaces. ΔVt is strictly
// increasing in projected stress-years, so evaluating Eq. 1 once on the
// footprint's worst cell equals the maximum of per-cell evaluations.
func (e *Explorer) Score(cfg *fabric.Config, off fabric.Offset) float64 {
	e.syncWear()
	return e.ProjectedScore(cfg, off)
}

// Reproject synchronises the projection state external scorers evaluate
// against (the wear snapshot reconciliation). Callers scoring many
// candidates under one fabric state — the shape-adaptive remapper's
// (shape × anchor) search, possibly from several goroutines — synchronise
// once here; ProjectedScore is then a pure read.
func (e *Explorer) Reproject() { e.syncWear() }

// ProjectedScore evaluates one candidate against the incrementally
// maintained projection state (see Reproject); Score is Reproject followed
// by ProjectedScore. Unlike the pre-incremental explorer there is no
// separately cached ΔVt table to go stale: every call scores the same
// snapshot the pivot scan reads.
func (e *Explorer) ProjectedScore(cfg *fabric.Config, off fabric.Offset) float64 {
	maxY, _, _ := e.scoreYears(cfg.Cells(), off, nil, e.dutyScale())
	return e.model.Cond.DeltaVt(maxY, 1)
}

// SearchCounts implements searchcost.Instrumented: the accumulated pivot
// scans, per-cell score evaluations and projection refreshes the derived
// cost model prices. The counters report the work the modeled hardware
// search engine would issue — a full projection refresh per scan and one
// evaluation per cell of every live candidate — invariant to the
// simulator's pruning and memoization. Explorations counts full scans
// directly — the number the hold-period regression tests pin.
func (e *Explorer) SearchCounts() searchcost.Counts { return e.counts }

// Explorations returns how many full pivot scans ran so far.
func (e *Explorer) Explorations() uint64 { return e.counts.PivotScans }

var (
	_ alloc.Allocator         = (*Explorer)(nil)
	_ alloc.HealthSetter      = (*Explorer)(nil)
	_ alloc.WearSetter        = (*Explorer)(nil)
	_ alloc.StressObserver    = (*Explorer)(nil)
	_ searchcost.Instrumented = (*Explorer)(nil)
)
