// Package lifetime is the long-horizon simulator: it plays a TransRec
// fabric forward through years of operation, composing the layers the
// single-run experiments exercise separately. Each scenario fixes a
// geometry, an allocation strategy, a workload mix and an operating-point
// profile; the simulator advances in configurable epochs. Every epoch
//
//  1. runs the workload mix end-to-end on the co-simulation engine
//     (validating architectural results), accumulating per-FU stressed
//     cycles through the aging-mitigation controller,
//  2. converts each FU's duty cycle into effective stress-years under the
//     paper's NBTI model (Eq. 1), accelerated by the epoch's
//     temperature/Vdd conditions,
//  3. kills cells whose projected delay degradation crosses the
//     end-of-life threshold (death times interpolated within the epoch),
//     and
//  4. lets the DBT route the next epoch around the dead cells: the mapper
//     places new translations on live FUs only and the controller skips
//     pivots that would rotate a configuration onto a failure.
//
// The epoch outcome is a pure function of the fabric state the allocator
// can observe (fresh allocator, engines and caches each epoch, replaying
// the memoized retire stream), so epochs between state changes are
// replayed from memo instead of re-simulated — multi-decade horizons cost
// one co-simulation per distinct fabric state. For health-only allocators that
// state is the set of dead cells, compared by content (fabric.Mask);
// wear-adaptive allocators (alloc.WearSetter) also see the accumulated
// fabric.Wear map, so their memo key includes the wear version — wear
// accrues every epoch, which correctly forces those scenarios to
// re-simulate as the placement search adapts.
package lifetime

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"agingcgra/internal/aging"
	"agingcgra/internal/alloc"
	"agingcgra/internal/core"
	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/mapper"
	"agingcgra/internal/memostore"
	"agingcgra/internal/prog"
	recov "agingcgra/internal/recover"
	"agingcgra/internal/searchcost"
	"agingcgra/internal/trace"
)

// Phase is one segment of a time-varying operating-point profile: the
// conditions hold until UntilYears of simulated age.
type Phase struct {
	// UntilYears is the (exclusive) end of the phase; the last phase of a
	// profile extends to the end of the simulation regardless.
	UntilYears float64 `json:"until_years"`
	// Cond is the operating point during the phase.
	Cond aging.Conditions `json:"cond"`
}

// Scenario describes one long-horizon simulation: geometry × allocator ×
// workload mix × operating-point profile.
type Scenario struct {
	// Name labels the scenario in results (default "<geom>/<allocator>").
	Name string
	// Geom is the fabric size (zero value: the BE design, 2x16).
	Geom fabric.Geometry
	// Factory builds the allocation strategy (nil: baseline).
	Factory dse.AllocatorFactory
	// Mix is the workload mix run once per epoch, by benchmark name; a name
	// may repeat to weight it (default: the full ten-benchmark suite).
	Mix []string
	// Size is the workload input scale (default Tiny).
	Size prog.Size
	// EpochYears is the simulation step (default 0.5).
	EpochYears float64
	// MaxYears is the simulated horizon (default 15).
	MaxYears float64
	// Cond is the constant operating point (zero value: the calibration
	// conditions of aging.NewModel, the paper's 10%-over-3-years NBTI
	// model, so no acceleration). Ignored when Profile is set.
	Cond aging.Conditions
	// Profile optionally varies the operating point over time.
	Profile []Phase
	// InitialDead lists FU cells already failed when the simulation starts:
	// the clustered-failure scenarios (dead column, dead quadrant,
	// checkerboard, survivor row — see fabric.PatternCells) the
	// shape-adaptive remap evaluation injects. Injected cells count toward
	// AliveFraction but not toward the death ages, which track aging deaths
	// only.
	InitialDead []fabric.Cell
	// Engine propagates engine options other than Geom/Allocator/
	// Controller/Health (cache size, latencies, timing, ...). Setting
	// Engine.StaleTranslations models a DBT whose translation memory
	// predates the failures — the regime where clustered deaths drive
	// translation-only allocators to the GPP.
	Engine dbt.Options
	// Seed seeds the scenario's deterministic fault-injection PRNG (the
	// per-(epoch, cell) keyed draws of internal/recover). The default is 1;
	// an explicit zero also selects the default, so fleet-style scenario
	// distributions pick distinct non-zero seeds per device. Unused unless
	// FaultModel or Recovery is set.
	Seed uint64
	// FaultModel enables wear-derived intermittent faults: each live cell
	// whose consumed lifetime crosses the intermittent threshold faults on
	// a fraction of its executions (hard death stays at the unchanged 10%
	// delay threshold). Intermittent faults are unobservable without the
	// checker, so FaultModel requires Recovery.
	FaultModel *FaultModel
	// Recovery enables the detection/quarantine/recovery layer and hides
	// the oracle: placement consumes the monitor's *observed* health map —
	// quarantines and probation reinstatements — instead of ground truth,
	// and hard deaths are discovered through detection like any other
	// fault. May be set without FaultModel (only hard deaths manifest).
	Recovery *recov.Policy
	// Refs memoizes stand-alone GPP references; RunScenarios installs a
	// batch-wide cache automatically.
	Refs *dse.RefCache
	// EpochMemo optionally shares epoch co-simulation outcomes across
	// scenarios and requests through a content-addressed store: the
	// fleet-scale service's generalization of the per-run epoch memo. An
	// epoch is stored under exactly what its co-simulation reads: the
	// Fingerprint plus the content of the observed fabric state at epoch
	// start (the dead set, and for wear-adaptive scenarios the wear map's
	// exact bits). Epoch length, horizon, operating point and injected dead
	// cells only steer which states a run reaches, so scenarios that differ
	// in them share every state they both reach. The store is consulted
	// only when Fingerprint is set and the scenario has no recovery monitor
	// — runEpoch mutates the monitor's cross-epoch state (suspect counters,
	// quarantines, probation streaks), so a store hit that skipped it would
	// diverge from a fresh computation; recovery scenarios keep the
	// run-local fixed-point memo only. Store hits are byte-identical to
	// fresh computation (they are not marked Replayed), so a warm and a
	// cold store produce identical timelines.
	EpochMemo *memostore.Store
	// Fingerprint content-addresses the scenario's co-simulation inputs for
	// EpochMemo sharing: the caller must derive it from every one of them —
	// geometry, allocator, mix, size and engine options. EpochYears,
	// MaxYears, Cond, Profile and InitialDead may be left out: the
	// co-simulation never reads them, and their effect on an epoch is the
	// fabric state it starts from, which the store key carries by content.
	// A wider fingerprint is still sound but shares less; an
	// under-descriptive one silently replays wrong epochs, so when in doubt,
	// include more. Empty disables the shared store.
	Fingerprint string
	// Trace receives the run's observability event stream (see
	// internal/trace): per-epoch resolution summaries, aging deaths, fault
	// and quarantine activity, remap rescues, GPP fallbacks, and per-FU
	// duty/wear heatmap snapshots. Nil disables tracing and the emission
	// sites short-circuit without allocating. Tracing is observation-only
	// — the Result is byte-identical with or without a sink — and the
	// stream is a pure function of (scenario, seed): every event derives
	// from state the loop recomputes each epoch or from the memoized epoch
	// outcome itself, so a memo-replayed epoch re-emits the events of the
	// epoch it replays and warm/cold stores yield identical streams.
	Trace trace.Sink

	// mapMemo is the scenario's mapping memo (default: a fresh one per
	// Run, nil when the epoch key is health alone). It outlives the
	// per-epoch allocator and engines, so each (trace, shape, dead mask)
	// is mapped once however many epochs re-simulate. Its keys are
	// content, so a memo already holding other scenarios' placements
	// changes no result.
	mapMemo *mapper.Memo
}

// FaultModel derives per-execution intermittent-fault probabilities from
// consumed lifetime: zero below IntermittentAt, ramping linearly to MaxProb
// as the cell approaches end-of-life. The lifetime simulator re-derives the
// fabric.Faults map from the wear map at every epoch boundary.
type FaultModel struct {
	// IntermittentAt is the consumed-lifetime fraction (stress-years over
	// the end-of-life threshold) past which a cell starts to fault
	// intermittently (default 0.6).
	IntermittentAt float64 `json:"intermittent_at"`
	// MaxProb is the per-execution fault probability reached at consumed
	// lifetime 1.0, i.e. just before hard death (default 0.02).
	MaxProb float64 `json:"max_prob"`
}

func (fm *FaultModel) applyDefaults() {
	if fm.IntermittentAt == 0 {
		fm.IntermittentAt = 0.6
	}
	if fm.MaxProb == 0 {
		fm.MaxProb = 0.02
	}
}

// prob maps consumed lifetime to a per-execution fault probability.
func (fm FaultModel) prob(consumed float64) float64 {
	if consumed <= fm.IntermittentAt {
		return 0
	}
	span := 1 - fm.IntermittentAt
	if span <= 0 {
		return fm.MaxProb
	}
	p := fm.MaxProb * (consumed - fm.IntermittentAt) / span
	if p > fm.MaxProb {
		p = fm.MaxProb
	}
	return p
}

func (sc *Scenario) applyDefaults() {
	if sc.Geom == (fabric.Geometry{}) {
		sc.Geom = fabric.NewGeometry(2, 16)
	}
	if sc.Factory == nil {
		sc.Factory = dse.BaselineFactory
	}
	if len(sc.Mix) == 0 {
		sc.Mix = prog.Names()
	}
	if sc.EpochYears == 0 {
		sc.EpochYears = 0.5
	}
	if sc.MaxYears == 0 {
		sc.MaxYears = 15
	}
	if sc.Cond == (aging.Conditions{}) {
		sc.Cond = aging.NewModel().Cond
	}
	if sc.Refs == nil {
		sc.Refs = dse.NewRefCache()
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	// The fault model and recovery policy are defaulted on the scenario's
	// own copies: the caller's structs may be shared by every scenario of
	// a concurrent batch.
	if sc.FaultModel != nil {
		fm := *sc.FaultModel
		fm.applyDefaults()
		sc.FaultModel = &fm
	}
	if sc.Recovery != nil {
		p := *sc.Recovery
		p.ApplyDefaults()
		sc.Recovery = &p
	}
}

func (sc *Scenario) validate() error {
	if err := sc.Geom.Validate(); err != nil {
		return err
	}
	if err := sc.Cond.Validate(); err != nil {
		return err
	}
	for _, ph := range sc.Profile {
		if err := ph.Cond.Validate(); err != nil {
			return err
		}
	}
	if sc.EpochYears <= 0 {
		return fmt.Errorf("lifetime: epoch length %v years must be positive", sc.EpochYears)
	}
	if sc.MaxYears < sc.EpochYears {
		return fmt.Errorf("lifetime: horizon %v years shorter than one epoch (%v)",
			sc.MaxYears, sc.EpochYears)
	}
	for _, name := range sc.Mix {
		if _, ok := prog.ByName(name); !ok {
			return fmt.Errorf("lifetime: unknown benchmark %q in mix (want one of %v)",
				name, prog.Names())
		}
	}
	for _, c := range sc.InitialDead {
		if c.Row < 0 || c.Row >= sc.Geom.Rows || c.Col < 0 || c.Col >= sc.Geom.Cols {
			return fmt.Errorf("lifetime: initial dead cell %v outside geometry %v", c, sc.Geom)
		}
	}
	if fm := sc.FaultModel; fm != nil {
		if sc.Recovery == nil {
			return fmt.Errorf("lifetime: FaultModel requires Recovery: intermittent faults are " +
				"unobservable without the checker, so a fault-injected run without the recovery " +
				"layer would silently corrupt every measurement")
		}
		if fm.IntermittentAt < 0 || fm.IntermittentAt >= 1 {
			return fmt.Errorf("lifetime: FaultModel.IntermittentAt %v must be in [0,1)", fm.IntermittentAt)
		}
		if fm.MaxProb <= 0 || fm.MaxProb > 1 {
			return fmt.Errorf("lifetime: FaultModel.MaxProb %v must be in (0,1]", fm.MaxProb)
		}
	}
	if sc.Recovery != nil {
		if err := sc.Recovery.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// condAt returns the operating point in effect at the given simulated age.
func (sc *Scenario) condAt(years float64) aging.Conditions {
	if len(sc.Profile) == 0 {
		return sc.Cond
	}
	for _, ph := range sc.Profile {
		if years < ph.UntilYears {
			return ph.Cond
		}
	}
	return sc.Profile[len(sc.Profile)-1].Cond
}

// EpochRecord is one step of the lifetime timeline.
type EpochRecord struct {
	// Epoch is the step index, Years the cumulative age at its end.
	Epoch int     `json:"epoch"`
	Years float64 `json:"years"`
	// WorstUtil and MeanUtil are the epoch's per-FU duty-cycle extremes
	// (the NBTI-relevant utilization of Section IV).
	WorstUtil float64 `json:"worst_util"`
	MeanUtil  float64 `json:"mean_util"`
	// WorstDelay is the highest projected delay degradation among live
	// cells at the end of the epoch; GuardbandFreq the matching safe clock.
	WorstDelay    float64 `json:"worst_delay"`
	GuardbandFreq float64 `json:"guardband_freq"`
	// AliveFraction is the surviving share of the fabric after this epoch's
	// failures; Deaths lists the cells that crossed end-of-life in it.
	AliveFraction float64       `json:"alive_fraction"`
	Deaths        []fabric.Cell `json:"deaths,omitempty"`
	// Speedup is the epoch mix's GPP cycles / TransRec cycles: the
	// effective acceleration left on the aging fabric. IPC is total
	// instructions / total TransRec cycles.
	Speedup  float64 `json:"speedup"`
	IPC      float64 `json:"ipc"`
	Offloads uint64  `json:"offloads"`
	// Replayed marks epochs whose co-simulation was reused from the memo
	// because the fabric health did not change.
	Replayed bool `json:"replayed,omitempty"`
	// Fault/recovery activity of the epoch (omitted on fault-free runs):
	// faulty executions, checker detections, silent-corruption escapes, and
	// the runtime's observed-dead count (quarantined cells) at epoch end.
	Faulted      uint64 `json:"faulted,omitempty"`
	Detected     uint64 `json:"detected,omitempty"`
	Escapes      uint64 `json:"escapes,omitempty"`
	ObservedDead int    `json:"observed_dead,omitempty"`
}

// Result is the lifetime timeline of one scenario.
type Result struct {
	Name          string          `json:"name"`
	Geom          fabric.Geometry `json:"geom"`
	AllocatorName string          `json:"allocator"`
	Mix           []string        `json:"mix"`
	Size          string          `json:"size"`
	EpochYears    float64         `json:"epoch_years"`
	MaxYears      float64         `json:"max_years"`

	Timeline []EpochRecord `json:"timeline"`

	// FirstDeathYears is the interpolated age of the first FU failure
	// (0 when every cell survived the horizon).
	FirstDeathYears float64 `json:"first_death_years"`
	// DeathAges lists the interpolated age of every FU failure within the
	// horizon in ascending order; DeathAges[0] equals FirstDeathYears when
	// any cell died. The time-to-second/third-death comparisons of the
	// wear-aware explorer evaluation read from here.
	DeathAges []float64 `json:"death_ages,omitempty"`
	// TotalDeaths and AliveFraction summarize the end state.
	TotalDeaths   int     `json:"total_deaths"`
	AliveFraction float64 `json:"alive_fraction"`
	// InitialSpeedup and FinalSpeedup bracket the performance decay.
	InitialSpeedup float64 `json:"initial_speedup"`
	FinalSpeedup   float64 `json:"final_speedup"`

	// Search is the derived hardware cost of the scenario's placement and
	// shape searches (explorer pivot scans, remap rescue scans,
	// translation-time ladder scans), summed over every simulated epoch —
	// replayed epochs included, since the hardware re-runs its scans each
	// epoch regardless of whether the simulator memoized the outcome. Nil
	// when the allocator ran no counted search (baseline, snake).
	Search *SearchReport `json:"search,omitempty"`

	// Recovery is the fault-injection and detection/recovery summary:
	// the runtime's measured view cross-referenced against ground truth.
	// Nil when the scenario ran with the oracle (no Recovery policy).
	Recovery *RecoveryReport `json:"recovery,omitempty"`
}

// RecoveryReport summarises a recovery-enabled scenario: the policy and
// fault model in force, the monitor's cumulative activity (replayed epochs
// re-add their memoized per-epoch deltas, like the search counts), and the
// measured-vs-truth quality metrics only the simulator — which holds both
// views — can compute.
type RecoveryReport struct {
	Policy recov.Policy `json:"policy"`
	Fault  *FaultModel  `json:"fault_model,omitempty"`
	Seed   uint64       `json:"seed"`
	Stats  recov.Stats  `json:"stats"`

	// TrueDead and ObservedDead compare the horizon end states;
	// FalseNegatives counts truth-dead cells the runtime never quarantined,
	// FalsePositivesOpen the truth-live cells still quarantined at the
	// horizon (false positives probation had not yet recovered).
	TrueDead           int `json:"true_dead"`
	ObservedDead       int `json:"observed_dead"`
	FalseNegatives     int `json:"false_negatives"`
	FalsePositivesOpen int `json:"false_positives_open"`

	// DetectedDeaths counts quarantines of genuinely dead cells;
	// Mean/MaxDetectionLatencyYears measure how long those cells kept
	// faulting (and being retried or escaping) before quarantine caught
	// them — the oracle's atomic alive→dead flip had latency zero.
	DetectedDeaths            int     `json:"detected_deaths"`
	MeanDetectionLatencyYears float64 `json:"mean_detection_latency_years,omitempty"`
	MaxDetectionLatencyYears  float64 `json:"max_detection_latency_years,omitempty"`
}

// SearchReport is the scenario-level summary of the derived search-cost
// model: raw event counts, priced cycles/energy per search family, and the
// per-offload overhead the hold periods and caches are supposed to keep
// negligible — derived numbers replacing the "asserted cheap" story.
type SearchReport struct {
	Counts searchcost.Counts    `json:"counts"`
	Cost   searchcost.Breakdown `json:"cost"`
	// TotalCycles and TotalEnergyNJ aggregate the three families.
	TotalCycles   float64 `json:"total_cycles"`
	TotalEnergyNJ float64 `json:"total_energy_nj"`
	// PerOffloadCycles is TotalCycles amortised over every offload of the
	// simulated horizon; OverheadFrac relates it to the TransRec cycles
	// actually simulated (search cycles / execution cycles).
	PerOffloadCycles float64 `json:"per_offload_cycles"`
	OverheadFrac     float64 `json:"overhead_frac"`
}

// NthDeathYears returns the interpolated age of the n-th FU failure
// (1-based); 0 when fewer than n cells died within the horizon.
func (r *Result) NthDeathYears(n int) float64 {
	if n < 1 || n > len(r.DeathAges) {
		return 0
	}
	return r.DeathAges[n-1]
}

// stateKey is the epoch memo key: exactly the fabric state the epoch's
// outcome is a pure function of, captured at epoch start, plus the
// recovery monitor's version. Layers the scenario does not observe stay
// zero (wear for health-only allocators, faults/mon without
// injection/recovery).
type stateKey struct {
	fabric fabric.StateKey
	mon    uint64
}

// epochMemoKey addresses one epoch outcome in the cross-request shared
// store: the scenario's co-simulation fingerprint plus the content of the
// state the epoch observes. Health is content already (the dead mask in
// st). A wear version is comparable only within one trajectory, and
// scenarios sharing a fingerprint may follow different ones (another
// operating point accrues other wear in as many steps), so a wear-adaptive
// scenario adds the wear map itself: each cell's stress-years as exact
// float64 bits, 8 bytes per cell. Faults and the monitor never reach the
// shared store.
type epochMemoKey struct {
	fp   string
	st   stateKey
	wear string
}

// epochRun is the co-simulation outcome of one epoch: a pure function of
// the fabric health state, so it is memoized across failure-free epochs.
type epochRun struct {
	gppCycles uint64
	trCycles  uint64
	instrs    uint64
	offloads  uint64
	search    searchcost.Counts
	// recovery is the monitor's per-epoch activity delta (probes included).
	// A replayed epoch re-adds it: escapes and checks recur every epoch of
	// a steady state even though the simulator memoized the outcome.
	recovery recov.Stats
	// remaps and fallbacks count the mix's shape-adaptive substitutions
	// and refused-placement GPP retirements. They ride in the memo value
	// as the epoch's compact event record: a replayed epoch re-emits its
	// remap-rescue and GPP-fallback trace events from here, exactly as it
	// re-adds the search and recovery deltas.
	remaps    uint64
	fallbacks uint64
	util      *core.UtilizationMap
}

// Run simulates one scenario to its horizon.
func Run(sc Scenario) (*Result, error) {
	sc.applyDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}

	probe := sc.Factory(sc.Geom)
	allocName := probe.Name()
	// Wear-adaptive allocators observe the accumulated wear map, so their
	// epoch outcomes depend on it and the memo key must include its version.
	// Shape-aware translation observes wear too (the ladder tie-break and
	// the translation-cache keying read it), so such scenarios are
	// wear-adaptive regardless of the allocator.
	_, wearAware := probe.(alloc.WearSetter)
	wearAware = wearAware || sc.Engine.ShapeTranslations
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("%s/%s", sc.Geom, allocName)
	}
	res := &Result{
		Name:          sc.Name,
		Geom:          sc.Geom,
		AllocatorName: allocName,
		Mix:           sc.Mix,
		Size:          sc.Size.String(),
		EpochYears:    sc.EpochYears,
		MaxYears:      sc.MaxYears,
	}

	health := fabric.NewHealth(sc.Geom)
	// Injected clustered failures are dead before the first epoch; they are
	// not aging deaths, so they do not enter the death-age statistics.
	for _, c := range sc.InitialDead {
		health.Kill(c)
	}
	// wear accumulates each cell's t·u product in calibration-equivalent
	// years: Eq. 1 depends on t and u only through t·u, so a cell dies when
	// its stress-years reach CalibYears·CalibUtil. The same map is threaded
	// into the epoch controller so wear-adaptive allocators can steer
	// placements away from the most-degraded FUs.
	wear := fabric.NewWear(sc.Geom)
	n := sc.Geom.NumFUs()
	model := aging.NewModel()
	threshold := model.CalibYears * model.CalibUtil

	// Fault injection and the runtime's observed view. The faults map is
	// re-derived from wear at every epoch boundary; the monitor owns the
	// injection PRNG and the observed health map placement consumes when
	// the oracle is hidden.
	var faults *fabric.Faults
	if sc.FaultModel != nil {
		faults = fabric.NewFaults(sc.Geom)
	}
	var mon *recov.Monitor
	if sc.Recovery != nil {
		mon = recov.NewMonitor(sc.Geom, *sc.Recovery, health, faults, sc.Seed)
	}
	// deathAge maps each dead cell to its interpolated death age, so
	// quarantine events of truth-dead cells yield detection latencies.
	// Injected initial deaths read as age zero.
	var deathAge map[fabric.Cell]float64
	if mon != nil {
		deathAge = make(map[fabric.Cell]float64, n)
		for _, c := range sc.InitialDead {
			deathAge[c] = 0
		}
	}

	// The epoch memo key is the fabric state the epoch's outcome is a pure
	// function of, captured at epoch start: health always, wear for
	// wear-adaptive scenarios, and — per the PR 3/5 memo-key rule — the
	// fault map and the monitor's persistent observable state for
	// fault/recovery scenarios. While faults fire or the observed view
	// shifts, consecutive keys differ and epochs re-simulate; once the
	// state goes quiescent the key repeats and epochs replay, re-using the
	// memoized epoch's draws as the steady-state approximation.
	var observedWear *fabric.Wear
	if wearAware {
		observedWear = wear
	}
	currentKey := func() stateKey {
		k := stateKey{fabric: fabric.KeyOf(health, observedWear, faults)}
		if mon != nil {
			k.mon = mon.Version()
		}
		return k
	}
	// An epoch re-simulates only when its key moved. When the key is health
	// alone, that means a cell died, so every re-simulated epoch maps under
	// dead masks no earlier epoch saw and a mapping memo could only cost:
	// such scenarios map directly.
	if sc.mapMemo == nil && (observedWear != nil || mon != nil) {
		sc.mapMemo = mapper.NewMemo()
	}

	var last *epochRun
	var lastKey stateKey
	// Scratch for the shared store's wear key.
	var wearYears []float64
	var wearBits []byte
	years := 0.0
	epochs := int(math.Ceil(sc.MaxYears/sc.EpochYears - 1e-9))

	// Search-cost accumulators: every simulated epoch re-runs the hardware
	// scans, so replayed epochs contribute their memoized counts too.
	var searchTotal searchcost.Counts
	var offloadTotal, trCyclesTotal uint64
	var recTotal recov.Stats
	var latencySum, latencyMax float64
	detectedDeaths := 0

	for epoch := 0; epoch < epochs; epoch++ {
		epochLen := sc.EpochYears
		if years+epochLen > sc.MaxYears {
			epochLen = sc.MaxYears - years
		}

		if faults != nil {
			updateFaults(faults, wear, health, threshold, *sc.FaultModel)
		}
		key := currentKey()
		run := last
		replayed := run != nil && key == lastKey
		var events []recov.Event
		switch {
		case replayed:
			// Within-run fixed point: the previous epoch left the observed
			// state unchanged, so its outcome repeats verbatim.
		case mon == nil && sc.EpochMemo != nil && sc.Fingerprint != "":
			// Cross-request shared memo. Sound only without a monitor:
			// runEpoch is then side-effect-free on cross-epoch state (the
			// controller and allocator are fresh per epoch, wear and health
			// mutate outside), so substituting a stored outcome for the
			// same (fingerprint, state content) key is indistinguishable
			// from computing it.
			mk := epochMemoKey{fp: sc.Fingerprint, st: key}
			if observedWear != nil {
				wearYears, wearBits = observedWear.CopyYears(wearYears), wearBits[:0]
				for _, y := range wearYears {
					wearBits = binary.LittleEndian.AppendUint64(wearBits, math.Float64bits(y))
				}
				mk.wear = string(wearBits)
			}
			v, err := sc.EpochMemo.GetOrCompute(mk, func() (any, error) {
				return runEpoch(&sc, health, wear, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("lifetime: %s epoch %d: %w", sc.Name, epoch, err)
			}
			run, last = v.(*epochRun), v.(*epochRun)
			lastKey = key
		default:
			statsBefore := recov.Stats{}
			if mon != nil {
				statsBefore = mon.Stats()
				mon.BeginEpoch(epoch)
			}
			r, err := runEpoch(&sc, health, wear, mon)
			if err != nil {
				return nil, fmt.Errorf("lifetime: %s epoch %d: %w", sc.Name, epoch, err)
			}
			if mon != nil {
				// Probation runs at the epoch boundary, after the mix:
				// quarantined cells are probed and false positives earn
				// their way back before the next epoch places around them.
				// The probe work lands outside any engine run, so its
				// search-count delta is attributed to the epoch here.
				sb := mon.SearchCounts()
				mon.ProbeQuarantined()
				r.search.Add(mon.SearchCounts().Sub(sb))
				r.recovery = mon.Stats().Sub(statsBefore)
				events = mon.TakeEvents()
			}
			run, last = r, r
			lastKey = key
		}
		searchTotal.Add(run.search)
		offloadTotal += run.offloads
		trCyclesTotal += run.trCycles
		recTotal.Add(run.recovery)

		// Age every live cell by the epoch, accelerated by the operating
		// point in effect; cells crossing end-of-life die mid-epoch at the
		// interpolated age but keep contributing until the epoch boundary
		// (the epoch-granularity approximation).
		accel := model.AccelerationFactor(sc.condAt(years))
		var deaths []fabric.Cell
		deathsBefore := len(res.DeathAges)
		worstDelay := 0.0
		for i := 0; i < n; i++ {
			cell := fabric.Cell{Row: i / sc.Geom.Cols, Col: i % sc.Geom.Cols}
			if health.Dead(cell) {
				continue
			}
			rate := run.util.Duty[i] * accel
			before := wear.YearsAt(cell)
			wear.Add(cell, epochLen*rate)
			after := before + epochLen*rate
			if after >= threshold && rate > 0 {
				age := years + (threshold-before)/rate
				if res.FirstDeathYears == 0 || age < res.FirstDeathYears {
					res.FirstDeathYears = age
				}
				res.DeathAges = append(res.DeathAges, age)
				health.Kill(cell)
				if deathAge != nil {
					deathAge[cell] = age
				}
				deaths = append(deaths, cell)
				continue
			}
			if d := model.DelayIncrease(after, 1); d > worstDelay {
				worstDelay = d
			}
		}
		years += epochLen

		// Cross-reference the epoch's quarantine events against ground
		// truth: a quarantine of a dead cell is a detection, timed from the
		// cell's interpolated death age to the end of the detecting epoch.
		for _, ev := range events {
			if ev.Kind != recov.Quarantine || !ev.TruthDead {
				continue
			}
			lat := years - deathAge[ev.Cell]
			if lat < 0 {
				lat = 0
			}
			latencySum += lat
			if lat > latencyMax {
				latencyMax = lat
			}
			detectedDeaths++
		}

		worstUtil, _ := run.util.Max()
		speedup := 0.0
		if run.trCycles > 0 {
			speedup = float64(run.gppCycles) / float64(run.trCycles)
		}
		ipc := 0.0
		if run.trCycles > 0 {
			ipc = float64(run.instrs) / float64(run.trCycles)
		}
		rec := EpochRecord{
			Epoch:         epoch,
			Years:         years,
			WorstUtil:     worstUtil,
			MeanUtil:      run.util.Avg(),
			WorstDelay:    worstDelay,
			GuardbandFreq: 1 / (1 + worstDelay),
			AliveFraction: health.AliveFraction(),
			Deaths:        deaths,
			Speedup:       speedup,
			IPC:           ipc,
			Offloads:      run.offloads,
			Replayed:      replayed,
		}
		if mon != nil {
			rec.Faulted = run.recovery.FaultedExecs
			rec.Detected = run.recovery.DetectedFaults
			rec.Escapes = run.recovery.SilentEscapes
			rec.ObservedDead = mon.Observed().DeadCount()
		}
		res.Timeline = append(res.Timeline, rec)
		res.TotalDeaths += len(deaths)
		if sc.Trace != nil {
			// res.DeathAges is only sorted after the loop, so its tail
			// since deathsBefore still pairs with deaths in cell order.
			emitEpochEvents(&sc, run, rec, events, deaths,
				res.DeathAges[deathsBefore:], health, wear, mon)
		}
	}

	res.AliveFraction = health.AliveFraction()
	// Deaths are recorded in cell order within an epoch; the interpolated
	// ages inside one epoch need not be monotone, so sort the combined list.
	sort.Float64s(res.DeathAges)
	if len(res.Timeline) > 0 {
		res.InitialSpeedup = res.Timeline[0].Speedup
		res.FinalSpeedup = res.Timeline[len(res.Timeline)-1].Speedup
	}
	if !searchTotal.Zero() {
		cost := searchcost.DefaultModel().Assess(searchTotal)
		total := cost.Total()
		rep := &SearchReport{
			Counts:           searchTotal,
			Cost:             cost,
			TotalCycles:      total.Cycles,
			TotalEnergyNJ:    total.EnergyNJ,
			PerOffloadCycles: total.PerOffload(offloadTotal).Cycles,
		}
		if trCyclesTotal > 0 {
			rep.OverheadFrac = total.Cycles / float64(trCyclesTotal)
		}
		res.Search = rep
	}
	if mon != nil {
		rr := &RecoveryReport{
			Policy:         mon.Policy(),
			Fault:          sc.FaultModel,
			Seed:           sc.Seed,
			Stats:          recTotal,
			TrueDead:       health.DeadCount(),
			ObservedDead:   mon.Observed().DeadCount(),
			DetectedDeaths: detectedDeaths,
		}
		observed := mon.Observed()
		for r := 0; r < sc.Geom.Rows; r++ {
			for c := 0; c < sc.Geom.Cols; c++ {
				cell := fabric.Cell{Row: r, Col: c}
				switch {
				case health.Dead(cell) && !observed.Dead(cell):
					rr.FalseNegatives++
				case !health.Dead(cell) && observed.Dead(cell):
					rr.FalsePositivesOpen++
				}
			}
		}
		if detectedDeaths > 0 {
			rr.MeanDetectionLatencyYears = latencySum / float64(detectedDeaths)
			rr.MaxDetectionLatencyYears = latencyMax
		}
		res.Recovery = rr
	}
	return res, nil
}

// emitEpochEvents renders one resolved epoch as trace events, in a fixed
// order: fault activity, monitor transitions, remap rescues, GPP
// fallbacks, deaths, the epoch summary, and the heatmap snapshot. Only
// reached with a sink attached. Determinism rests on every input being
// either recomputed each epoch (deaths, wear, health, the monitor's
// observed map) or carried in the memoized epochRun (recovery and search
// deltas, remap/fallback counts, the utilization map) — which replayed
// epochs re-add verbatim, so they re-emit the same events as the epoch
// they replay. Monitor transition events only exist on freshly simulated
// epochs by construction: a transition bumps the monitor version, so the
// following epoch cannot replay.
func emitEpochEvents(sc *Scenario, run *epochRun, rec EpochRecord, events []recov.Event,
	deaths []fabric.Cell, ages []float64, health *fabric.Health, wear *fabric.Wear, mon *recov.Monitor) {
	sink := sc.Trace
	base := trace.Event{Scenario: sc.Name, Epoch: rec.Epoch, Years: rec.Years}
	if run.recovery.FaultedExecs > 0 || run.recovery.SilentEscapes > 0 || run.recovery.DetectedFaults > 0 {
		ev := base
		ev.Kind = trace.KindFault
		ev.Count = run.recovery.FaultedExecs
		ev.Detected = run.recovery.DetectedFaults
		ev.Escapes = run.recovery.SilentEscapes
		sink.Emit(ev)
	}
	for _, mev := range events {
		ev := base
		switch mev.Kind {
		case recov.Quarantine:
			ev.Kind = trace.KindQuarantine
		case recov.Reinstate:
			ev.Kind = trace.KindReinstate
		default:
			continue
		}
		cell := mev.Cell
		ev.Cell = &cell
		ev.TruthDead = mev.TruthDead
		sink.Emit(ev)
	}
	if run.remaps > 0 {
		ev := base
		ev.Kind = trace.KindRemapRescue
		ev.Count = run.remaps
		sink.Emit(ev)
	}
	if run.fallbacks > 0 {
		ev := base
		ev.Kind = trace.KindGPPFallback
		ev.Count = run.fallbacks
		sink.Emit(ev)
	}
	for i, c := range deaths {
		ev := base
		ev.Kind = trace.KindDeath
		cell := c
		ev.Cell = &cell
		ev.AgeYears = ages[i]
		sink.Emit(ev)
	}
	ep := base
	ep.Kind = trace.KindEpoch
	ep.Replayed = rec.Replayed
	ep.Speedup = rec.Speedup
	ep.AliveFraction = rec.AliveFraction
	ep.WorstUtil = rec.WorstUtil
	ep.MeanUtil = rec.MeanUtil
	ep.Offloads = rec.Offloads
	ep.Deaths = len(deaths)
	if !run.search.Zero() {
		bd := searchcost.DefaultModel().Assess(run.search)
		ep.SearchCycles = bd.Total().Cycles
		ep.RecoveryCycles = bd.Recovery.Cycles
	}
	sink.Emit(ep)

	snap := base
	snap.Kind = trace.KindSnapshot
	snap.Rows, snap.Cols = sc.Geom.Rows, sc.Geom.Cols
	// Copies throughout: run.util may live in the shared epoch store,
	// whose values are immutable, and wear/health keep evolving.
	snap.Duty = append([]float64(nil), run.util.Duty...)
	snap.WearYears = wear.CopyYears(nil)
	for _, c := range health.DeadCells() {
		snap.Dead = append(snap.Dead, c.Row*sc.Geom.Cols+c.Col)
	}
	if mon != nil {
		for _, c := range mon.Observed().DeadCells() {
			snap.ObservedDead = append(snap.ObservedDead, c.Row*sc.Geom.Cols+c.Col)
		}
	}
	sink.Emit(snap)
}

// updateFaults re-derives the per-execution fault probabilities from the
// accumulated wear: dead cells carry probability zero (hard death manifests
// through ground truth directly), live cells ramp per the fault model.
// fabric.Faults.Set only advances the version on actual change, so a
// quiescent fabric keeps the epoch memo valid.
func updateFaults(f *fabric.Faults, wear *fabric.Wear, health *fabric.Health, threshold float64, fm FaultModel) {
	g := f.Geometry()
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			cell := fabric.Cell{Row: r, Col: c}
			if health.Dead(cell) {
				f.Set(cell, 0)
				continue
			}
			f.Set(cell, fm.prob(wear.YearsAt(cell)/threshold))
		}
	}
}

// runEpoch co-simulates the workload mix once on the current fabric state:
// one engine with a fresh allocator runs every benchmark of the mix in turn
// (one fabric across the mix, as a deployed chip would within an epoch,
// each run with a fresh cache), and the scenario's health and wear maps are
// wired into the mapper, the placement and any wear-adaptive allocator. The
// engine and any allocator that maps (memoUser) map through the scenario's
// mapping memo. With a recovery monitor attached the oracle is hidden:
// mapper and placement consume the monitor's observed health map, and
// ground truth stays with the simulator (aging, deaths and fault
// manifestation).
func runEpoch(sc *Scenario, health *fabric.Health, wear *fabric.Wear, mon *recov.Monitor) (*epochRun, error) {
	a := sc.Factory(sc.Geom)
	if u, ok := a.(memoUser); ok {
		u.UseMemo(sc.mapMemo)
	}
	eopts := sc.Engine
	eopts.Geom = sc.Geom
	eopts.Allocator = a
	eopts.Health = health
	if mon != nil {
		eopts.Health = mon.Observed()
	}
	eopts.Wear = wear
	eopts.Recovery = mon
	eng, err := dbt.NewEngine(eopts)
	if err != nil {
		return nil, err
	}
	eng.UseMemo(sc.mapMemo)

	run := &epochRun{}
	for _, name := range sc.Mix {
		b, _ := prog.ByName(name) // validated up front
		ref, err := sc.Refs.Get(b, sc.Size, sc.Engine.Timing)
		if err != nil {
			return nil, fmt.Errorf("%s gpp-only: %w", name, err)
		}
		// The epoch replays the benchmark's shared recorded stream, whose
		// result dse.RefCache.Get checked once: failures, faults and
		// placement change only where each retire is accounted, never what
		// retires, so the report must account every retire exactly once.
		rep, err := eng.RunStream(ref.Stream, ref.Words)
		if err != nil {
			return nil, fmt.Errorf("%s transrec: %w", name, err)
		}
		if want := uint64(len(ref.Stream.Retires)); rep.TotalInstrs != want {
			return nil, fmt.Errorf("%s: engine accounted %d instructions, the recorded stream retires %d",
				name, rep.TotalInstrs, want)
		}

		run.gppCycles += ref.Cycles
		run.trCycles += rep.TotalCycles
		run.instrs += rep.TotalInstrs
		run.offloads += rep.Offloads
		run.search.Add(rep.Search)
		run.remaps += rep.Remaps
		run.fallbacks += rep.GPPFallbacks
	}
	run.util = eng.Controller().Utilization()
	return run, nil
}

// memoUser is implemented by allocators that map configurations (the remap
// rescue), so the scenario's mapping memo can be handed to them.
type memoUser interface {
	UseMemo(m *mapper.Memo)
}

// RunScenarios simulates a batch of scenarios over a worker pool (workers
// <= 0 selects runtime.GOMAXPROCS, 1 forces the serial path). Results are ordered by
// scenario index and byte-identical to a serial run; the stand-alone GPP
// references are shared across the batch.
func RunScenarios(scs []Scenario, workers int) ([]*Result, error) {
	refs := dse.NewRefCache()
	out := make([]*Result, len(scs))
	err := dse.ForEach(len(scs), workers, func(i int) error {
		sc := scs[i]
		if sc.Refs == nil {
			sc.Refs = refs
		}
		r, err := Run(sc)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
