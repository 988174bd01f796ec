// Package searchcost is the derived hardware-cost model for the exhaustive
// searches the allocation stack runs: the wear-aware explorer's pivot scan,
// the shape-adaptive remapper's (shape × anchor) rescue scan, and the DBT's
// translation-time shape-ladder scan. Each of those was introduced with the
// assertion that its hold period or memoization makes it "cheap in
// hardware"; this package replaces the assertion with numbers derived from
// the scans' actual structure.
//
// The derivation works from event counts, not wall clock: the searching
// components tally how many scans they ran and how many elementary
// evaluations each scan performed (pivots scored, per-cell ΔVt lookups,
// mapper cell probes — the counters the explorer, the remapper and the
// engine expose through the Instrumented interface), and the Model prices
// each elementary evaluation in controller cycles and energy. An elementary
// evaluation is one comparator/MAC-scale operation of the allocation
// controller — a table lookup plus compare for a pivot score, an
// occupancy-plus-health check for a mapper probe — so the totals scale with
// exactly the work a hardware search engine would issue, and the
// per-offload overhead can be compared directly against the offload's
// useful cycles.
package searchcost

// Counts tallies the search work of one run (or one epoch): how many scans
// each search family ran and how many elementary evaluations they issued.
// All counters are exact event counts accumulated by the searching
// components themselves, so serial and parallel simulations of the same
// scenario produce identical Counts.
type Counts struct {
	// PivotScans counts full explorer re-explorations; PivotCells the
	// per-cell score evaluations those scans issued (candidate pivots ×
	// cells per configuration); PivotProjections the per-cell Eq. 1
	// projection-table refreshes hoisted out of the pivot loop.
	PivotScans       uint64 `json:"pivot_scans"`
	PivotCells       uint64 `json:"pivot_cells"`
	PivotProjections uint64 `json:"pivot_projections"`

	// RemapScans counts (shape × anchor) rescue searches; RemapCandidates
	// the mapper invocations inside them; RemapProbes the mapper cell
	// probes (occupancy + health checks) those invocations performed.
	// RemapProjections counts the per-cell Eq. 1 projection refreshes the
	// rescue's wear ranking pays, and RemapCells its per-candidate score
	// evaluations — the same evaluation types as the explorer's, issued by
	// the rescue scan.
	RemapScans       uint64 `json:"remap_scans"`
	RemapCandidates  uint64 `json:"remap_candidates"`
	RemapProbes      uint64 `json:"remap_probes"`
	RemapProjections uint64 `json:"remap_projections"`
	RemapCells       uint64 `json:"remap_cells"`

	// LadderScans counts translation-time shape searches (one per
	// shape-aware translation); LadderCandidates the shapes mapped;
	// LadderProbes the mapper cell probes inside them.
	LadderScans      uint64 `json:"ladder_scans"`
	LadderCandidates uint64 `json:"ladder_candidates"`
	LadderProbes     uint64 `json:"ladder_probes"`

	// Recovery-layer verification work (internal/recover): CheckerRuns
	// counts sampled offload verifications and CheckerInstrs the
	// instructions each re-executed against the GPP guided-replay reference;
	// RetryExecs counts on-fabric retry executions after a detected fault
	// and RetryCycles their fabric cycles (retries re-run the whole
	// configuration, so they are priced at actual execution cycles, not
	// per-evaluation); RecoveryProbes counts the per-cell probation test
	// vectors run against quarantined FUs.
	CheckerRuns    uint64 `json:"checker_runs,omitempty"`
	CheckerInstrs  uint64 `json:"checker_instrs,omitempty"`
	RetryExecs     uint64 `json:"retry_execs,omitempty"`
	RetryCycles    uint64 `json:"retry_cycles,omitempty"`
	RecoveryProbes uint64 `json:"recovery_probes,omitempty"`
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.PivotScans += other.PivotScans
	c.PivotCells += other.PivotCells
	c.PivotProjections += other.PivotProjections
	c.RemapScans += other.RemapScans
	c.RemapCandidates += other.RemapCandidates
	c.RemapProbes += other.RemapProbes
	c.RemapProjections += other.RemapProjections
	c.RemapCells += other.RemapCells
	c.LadderScans += other.LadderScans
	c.LadderCandidates += other.LadderCandidates
	c.LadderProbes += other.LadderProbes
	c.CheckerRuns += other.CheckerRuns
	c.CheckerInstrs += other.CheckerInstrs
	c.RetryExecs += other.RetryExecs
	c.RetryCycles += other.RetryCycles
	c.RecoveryProbes += other.RecoveryProbes
}

// Sub returns c minus other, for delta accounting across a shared
// allocator (a suite run snapshots the allocator's counters before and
// after each engine).
func (c Counts) Sub(other Counts) Counts {
	return Counts{
		PivotScans:       c.PivotScans - other.PivotScans,
		PivotCells:       c.PivotCells - other.PivotCells,
		PivotProjections: c.PivotProjections - other.PivotProjections,
		RemapScans:       c.RemapScans - other.RemapScans,
		RemapCandidates:  c.RemapCandidates - other.RemapCandidates,
		RemapProbes:      c.RemapProbes - other.RemapProbes,
		RemapProjections: c.RemapProjections - other.RemapProjections,
		RemapCells:       c.RemapCells - other.RemapCells,
		LadderScans:      c.LadderScans - other.LadderScans,
		LadderCandidates: c.LadderCandidates - other.LadderCandidates,
		LadderProbes:     c.LadderProbes - other.LadderProbes,
		CheckerRuns:      c.CheckerRuns - other.CheckerRuns,
		CheckerInstrs:    c.CheckerInstrs - other.CheckerInstrs,
		RetryExecs:       c.RetryExecs - other.RetryExecs,
		RetryCycles:      c.RetryCycles - other.RetryCycles,
		RecoveryProbes:   c.RecoveryProbes - other.RecoveryProbes,
	}
}

// Zero reports whether no search work was counted.
func (c Counts) Zero() bool { return c == Counts{} }

// Instrumented is implemented by searching components (the explorer, the
// remapper) that expose their accumulated search counters; the engine
// collects per-run deltas through it.
type Instrumented interface {
	SearchCounts() Counts
}

// Model prices elementary search evaluations in allocation-controller
// cycles and energy. The defaults are derived from the search structure,
// not asserted: see DefaultModel.
type Model struct {
	// ScoreCycles is one pivot-scan cell evaluation: a projected-ΔVt table
	// lookup plus a running max/sum compare.
	ScoreCycles float64 `json:"score_cycles"`
	// ProjectCycles is one per-cell Eq. 1 projection refresh: the
	// polynomial evaluation filling the score table, issued once per cell
	// per exploration (it is hoisted out of the pivot loop).
	ProjectCycles float64 `json:"project_cycles"`
	// ProbeCycles is one mapper cell probe: an occupancy bit plus a health
	// bit plus the port/context bookkeeping of the greedy row search.
	ProbeCycles float64 `json:"probe_cycles"`
	// CheckCyclesPerInstr is one checker-verified instruction: the GPP
	// re-retires it from the guided-replay tables (one cycle for the ALU
	// classes that dominate offloaded traces) and a comparator matches the
	// result against the fabric's, so two controller-scale cycles per
	// instruction checked.
	CheckCyclesPerInstr float64 `json:"check_cycles_per_instr"`
	// ProbeExecCycles is one probation test vector against a quarantined FU:
	// load a known pattern, execute one op, compare — a fixed short sequence
	// independent of the workload.
	ProbeExecCycles float64 `json:"probe_exec_cycles"`
	// EnergyPerCycleNJ converts controller cycles to nanojoules.
	EnergyPerCycleNJ float64 `json:"energy_per_cycle_nj"`
}

// DefaultModel is the calibration used throughout: score evaluations are
// single-cycle (one comparator fed by a resident table), projection
// refreshes four cycles (the Eq. 1 fractional power evaluated by a small
// lookup-multiply pipeline), mapper probes single-cycle (two bit tests and
// an increment), and the controller burns 0.1 nJ per cycle — an order of
// magnitude below the fabric's per-FU active power, as a scalar search
// engine beside a 32-FU array should.
func DefaultModel() Model {
	return Model{
		ScoreCycles:         1,
		ProjectCycles:       4,
		ProbeCycles:         1,
		CheckCyclesPerInstr: 2,
		ProbeExecCycles:     32,
		EnergyPerCycleNJ:    0.1,
	}
}

// Cost is derived search overhead: controller cycles and energy.
type Cost struct {
	Cycles   float64 `json:"cycles"`
	EnergyNJ float64 `json:"energy_nj"`
}

func (c Cost) add(o Cost) Cost {
	return Cost{Cycles: c.Cycles + o.Cycles, EnergyNJ: c.EnergyNJ + o.EnergyNJ}
}

// Breakdown splits derived search overhead by search family.
type Breakdown struct {
	// Explorer is the pivot scan: projection refresh plus pivot scoring.
	Explorer Cost `json:"explorer"`
	// Remap is the allocation-time (shape × anchor) rescue scan.
	Remap Cost `json:"remap"`
	// Translation is the DBT's translation-time shape-ladder scan.
	Translation Cost `json:"translation"`
	// Recovery is the fault-detection layer's verification work: sampled
	// checker re-executions, on-fabric retries and probation test vectors.
	Recovery Cost `json:"recovery"`
}

// Total sums the families.
func (b Breakdown) Total() Cost {
	return b.Explorer.add(b.Remap).add(b.Translation).add(b.Recovery)
}

// Assess derives the cycle and energy cost of the counted search work.
func (m Model) Assess(c Counts) Breakdown {
	price := func(cycles float64) Cost {
		return Cost{Cycles: cycles, EnergyNJ: cycles * m.EnergyPerCycleNJ}
	}
	return Breakdown{
		Explorer: price(float64(c.PivotProjections)*m.ProjectCycles +
			float64(c.PivotCells)*m.ScoreCycles),
		Remap: price(float64(c.RemapProbes)*m.ProbeCycles +
			float64(c.RemapProjections)*m.ProjectCycles +
			float64(c.RemapCells)*m.ScoreCycles),
		Translation: price(float64(c.LadderProbes) * m.ProbeCycles),
		Recovery: price(float64(c.CheckerInstrs)*m.CheckCyclesPerInstr +
			float64(c.RetryCycles) +
			float64(c.RecoveryProbes)*m.ProbeExecCycles),
	}
}

// PerOffload divides a cost evenly over the offloads it was amortised
// across: the per-offload search overhead the hold periods and caches are
// supposed to keep negligible. A zero offload count returns the undivided
// cost (nothing to amortise over).
func (c Cost) PerOffload(offloads uint64) Cost {
	if offloads == 0 {
		return c
	}
	return Cost{
		Cycles:   c.Cycles / float64(offloads),
		EnergyNJ: c.EnergyNJ / float64(offloads),
	}
}
