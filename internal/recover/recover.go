// Package recover implements the runtime's *observed* view of fabric
// health: the detection/quarantine/recovery layer that replaces the oracle
// the allocation stack had until now.
//
// Ground truth lives in the simulator: fabric.Health records which cells
// actually died and fabric.Faults the wear-derived per-execution
// intermittent-fault probability of the cells still alive. A deployed
// runtime sees neither. What it can do is verify a sampled fraction of
// offloads against the GPP guided-replay reference (the expected-state
// tables make the re-execution cheap), retry on-fabric a bounded number of
// times when a verification fails, back off to the GPP when retries keep
// failing, count detected faults against every cell of the faulty
// footprint, quarantine cells whose count crosses a threshold, and probe
// quarantined cells each epoch so a false positive earns its way back in.
//
// The Monitor is both halves at once: it owns the physics (it draws fault
// manifestations from the truth maps with a deterministic counter-based
// PRNG) and the belief (the observed health map, suspect counters and
// probation streaks the placement stack consumes instead of ground truth).
// Only the belief is exported to allocation — Observed() — so the
// mapper/explorer/remapper plan around what the runtime has detected, not
// around what the simulator knows.
//
// Determinism contract: every random draw is keyed on (scenario seed,
// epoch, stream, cell, per-epoch draw counter) through a splitmix64-style
// hash, so serial and parallel scenario batches stay byte-identical and an
// epoch's outcome is a pure function of the fabric state at its start.
// Version() covers exactly the cross-epoch-persistent observable state
// (observed health, suspect counters, probation streaks, the fail-stop
// latch); per-epoch draw counters reset in BeginEpoch and the Stats
// counters are excluded, so the lifetime epoch memo can key on Version and
// replay steady-state epochs.
package recover

import (
	"fmt"

	"agingcgra/internal/fabric"
	"agingcgra/internal/searchcost"
)

// Policy is the knob set of the detection/recovery layer.
type Policy struct {
	// CheckEvery samples every k-th offload for verification against the
	// GPP reference (default 4; 1 verifies every offload and commits no
	// silent escapes). Retries are always verified.
	CheckEvery int `json:"check_every"`
	// MaxRetries bounds on-fabric re-executions after a detected fault
	// before the offload backs off to the GPP (default 2).
	MaxRetries int `json:"max_retries"`
	// QuarantineAfter is the detected-fault count at which a suspect cell
	// is quarantined from placement (default 3).
	QuarantineAfter int `json:"quarantine_after"`
	// ProbationProbes is the number of consecutive clean probes a
	// quarantined cell needs before it is reinstated (default 8).
	ProbationProbes int `json:"probation_probes"`
	// ProbesPerEpoch is how many probation test vectors each quarantined
	// cell receives per epoch (default 4).
	ProbesPerEpoch int `json:"probes_per_epoch"`
	// FailStop is the no-recovery baseline: the first detected fault
	// distrusts the whole fabric and routes every later offload to the GPP
	// forever. Retries, quarantine and probation are bypassed.
	FailStop bool `json:"fail_stop,omitempty"`
}

// ApplyDefaults fills zero fields with the defaults documented on Policy.
func (p *Policy) ApplyDefaults() {
	if p.CheckEvery == 0 {
		p.CheckEvery = 4
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 2
	}
	if p.QuarantineAfter == 0 {
		p.QuarantineAfter = 3
	}
	if p.ProbationProbes == 0 {
		p.ProbationProbes = 8
	}
	if p.ProbesPerEpoch == 0 {
		p.ProbesPerEpoch = 4
	}
}

// Validate rejects negative knobs (zero selects the default).
func (p Policy) Validate() error {
	if p.CheckEvery < 0 || p.MaxRetries < 0 || p.QuarantineAfter < 0 ||
		p.ProbationProbes < 0 || p.ProbesPerEpoch < 0 {
		return fmt.Errorf("recover: negative policy knob in %+v", p)
	}
	return nil
}

// Stats counts the layer's activity. All fields are exact event counts;
// they are deliberately excluded from Version so the lifetime simulator can
// replay steady-state epochs and re-add each epoch's memoized delta (the
// hardware re-runs its checks every epoch regardless of whether the
// simulator memoized the outcome).
type Stats struct {
	// FaultedExecs counts fabric executions on which at least one occupied
	// cell misbehaved; CheckedExecs how many executions the checker
	// verified; DetectedFaults the verified executions that were faulty;
	// SilentEscapes the faulty executions that were not sampled for
	// verification and committed corrupt results.
	FaultedExecs   uint64 `json:"faulted_execs"`
	CheckedExecs   uint64 `json:"checked_execs"`
	DetectedFaults uint64 `json:"detected_faults"`
	SilentEscapes  uint64 `json:"silent_escapes"`
	// Retries counts on-fabric re-executions after a detection,
	// RetrySuccesses the retries whose verification came back clean, and
	// GPPBackoffs the offloads abandoned to the GPP after MaxRetries.
	Retries        uint64 `json:"retries"`
	RetrySuccesses uint64 `json:"retry_successes"`
	GPPBackoffs    uint64 `json:"gpp_backoffs"`
	// Quarantines counts cells removed from placement;
	// FalsePositiveQuarantines the quarantines of cells that were in truth
	// still alive; Reinstatements the quarantined cells returned to service
	// after ProbationProbes consecutive clean probes.
	Quarantines              uint64 `json:"quarantines"`
	FalsePositiveQuarantines uint64 `json:"false_positive_quarantines"`
	Reinstatements           uint64 `json:"reinstatements"`
	// Probes counts probation test vectors, CleanProbes the ones that
	// passed.
	Probes      uint64 `json:"probes"`
	CleanProbes uint64 `json:"clean_probes"`
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FaultedExecs += other.FaultedExecs
	s.CheckedExecs += other.CheckedExecs
	s.DetectedFaults += other.DetectedFaults
	s.SilentEscapes += other.SilentEscapes
	s.Retries += other.Retries
	s.RetrySuccesses += other.RetrySuccesses
	s.GPPBackoffs += other.GPPBackoffs
	s.Quarantines += other.Quarantines
	s.FalsePositiveQuarantines += other.FalsePositiveQuarantines
	s.Reinstatements += other.Reinstatements
	s.Probes += other.Probes
	s.CleanProbes += other.CleanProbes
}

// EventKind labels a quarantine-state transition.
type EventKind int

// Event kinds.
const (
	Quarantine EventKind = iota
	Reinstate
)

// Event is one quarantine-state transition. EndEpoch returns the epoch's
// transitions so the lifetime simulator can cross-reference the runtime's
// belief against ground truth (detection latency, false positives).
type Event struct {
	Kind EventKind
	Cell fabric.Cell
	// TruthDead snapshots ground truth at the event: a Quarantine with
	// TruthDead is a genuine detection, without it a false positive.
	TruthDead bool
}

// PRNG streams; distinct draws at the same (epoch, cell, counter) key must
// use distinct streams.
const (
	streamExec uint64 = iota + 1
	streamProbe
)

// Monitor is the per-scenario fault-injection and recovery state machine.
// It is owned by one simulated fabric instance (like Health and Wear) and
// is not safe for concurrent use; scenario sweeps give every scenario its
// own Monitor.
type Monitor struct {
	geom     fabric.Geometry
	policy   Policy
	seed     uint64
	truth    *fabric.Health
	faults   *fabric.Faults
	observed *fabric.Health

	epoch      int
	execDraws  []uint64 // per-cell draw counters, reset each epoch
	checkPhase uint64   // offload sampling phase, reset each epoch

	suspect    []int // detected faults per cell since last reset
	streak     []int // consecutive clean probes per quarantined cell
	distrusted bool  // fail-stop latch

	version uint64
	// The activity since BeginEpoch, which EndEpoch returns.
	stats  Stats
	events []Event
	search searchcost.Counts
}

// NewMonitor builds a monitor over the scenario's ground-truth maps. The
// observed health map starts all-alive — a factory-fresh belief — even when
// truth already has dead cells: with no oracle, pre-existing failures are
// discovered the same way new ones are, through detection. faults may be
// nil (recovery without intermittent faults: only hard deaths manifest,
// with per-execution probability one).
func NewMonitor(g fabric.Geometry, p Policy, truth *fabric.Health, faults *fabric.Faults, seed uint64) *Monitor {
	p.ApplyDefaults()
	n := g.NumFUs()
	return &Monitor{
		geom:      g,
		policy:    p,
		seed:      seed,
		truth:     truth,
		faults:    faults,
		observed:  fabric.NewHealth(g),
		execDraws: make([]uint64, n),
		suspect:   make([]int, n),
		streak:    make([]int, n),
	}
}

// Policy returns the active (defaults-applied) policy.
func (m *Monitor) Policy() Policy { return m.policy }

// Observed is the runtime's health belief: the map the placement stack
// consumes instead of ground truth. Quarantines Kill it and reinstatements
// Revive it; placement caches key on its dead cells, so they follow both.
func (m *Monitor) Observed() *fabric.Health { return m.observed }

// FabricDistrusted reports the fail-stop latch: once set, every offload
// routes to the GPP.
func (m *Monitor) FabricDistrusted() bool { return m.distrusted }

// Version covers exactly the cross-epoch-persistent observable state:
// observed health, suspect counters, probation streaks and the fail-stop
// latch. Per-epoch draw counters and the Stats counters are excluded, so an
// epoch whose activity changed no persistent state leaves the version
// untouched and the lifetime memo can replay it.
func (m *Monitor) Version() uint64 { return m.version }

// BeginEpoch resets the per-epoch PRNG counters, sampling phase and
// activity tallies and keys subsequent draws on the epoch index. The
// lifetime simulator calls it before every simulated (non-replayed) epoch.
func (m *Monitor) BeginEpoch(epoch int) {
	m.epoch = epoch
	for i := range m.execDraws {
		m.execDraws[i] = 0
	}
	m.checkPhase = 0
	m.stats, m.search, m.events = Stats{}, searchcost.Counts{}, nil
}

// EndEpoch runs the epoch's probation (probeQuarantined) and returns the
// activity since BeginEpoch: the Stats counters, the checker, retry and
// probe work priced by the derived cost model alongside the placement and
// shape searches, and the quarantine-state transitions in order.
func (m *Monitor) EndEpoch() (Stats, searchcost.Counts, []Event) {
	m.probeQuarantined()
	return m.stats, m.search, m.events
}

// Execute runs one offload of n instructions and duration fabric cycles on
// the virtual cells shifted by off, and returns how many fabric executions
// it made and whether it backed off to the GPP. The architectural result is
// already computed (the retire stream was recorded on the GPP interpreter
// — the trace-driven split); what faults corrupt is the accounting world. A
// faulty unchecked execution commits as a silent escape; a detected one is
// retried on-fabric up to MaxRetries times, each retry a real execution
// (stress, cycles, a fresh context transfer) and always verified, and then
// abandoned to the GPP.
func (m *Monitor) Execute(cells []fabric.Cell, off fabric.Offset, n int, duration uint64) (execs int, toGPP bool) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			m.recordRetry(duration)
		}
		faulted := m.drawExec(cells, off)
		if attempt == 0 && !m.sampleCheck() {
			if faulted {
				m.stats.SilentEscapes++
			}
			return 1, false
		}
		m.priceCheck(n)
		if !faulted {
			if attempt > 0 {
				m.stats.RetrySuccesses++
			}
			return attempt + 1, false
		}
		m.recordDetection(cells, off)
		if attempt >= m.policy.MaxRetries || m.distrusted {
			m.stats.GPPBackoffs++
			return attempt + 1, true
		}
	}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// uniform draws a deterministic value in [0, 1) keyed on the scenario seed,
// the current epoch, the stream, the cell index and the draw counter.
func (m *Monitor) uniform(stream, cell, draw uint64) float64 {
	h := mix64(m.seed ^ (uint64(m.epoch)+1)*0x9e3779b97f4a7c15)
	h = mix64(h ^ (stream+1)*0xc2b2ae3d27d4eb4f)
	h = mix64(h ^ (cell+1)*0x165667b19e3779f9)
	h = mix64(h ^ (draw+1)*0xd6e8feb86659fd93)
	return float64(h>>11) / (1 << 53)
}

// drawExec decides whether one fabric execution occupying the given virtual
// cells (shifted by off) manifests a fault: ground-truth-dead cells fault
// deterministically — this is how the runtime discovers deaths without an
// oracle — and live cells fault with their intermittent probability.
// With no risky cell and no dead one, no cell of the geometry can fault:
// the call returns at once, with no draw and no count.
func (m *Monitor) drawExec(cells []fabric.Cell, off fabric.Offset) bool {
	if (m.faults == nil || !m.faults.Risky()) && m.truth.DeadCount() == 0 {
		return false
	}
	faulted := false
	for _, c := range cells {
		p := off.Apply(c, m.geom)
		if m.truth.Dead(p) {
			faulted = true
			continue
		}
		if m.faults == nil || !m.faults.Risky() {
			continue
		}
		pr := m.faults.At(p)
		if pr <= 0 {
			continue
		}
		i := p.Row*m.geom.Cols + p.Col
		draw := m.execDraws[i]
		m.execDraws[i]++
		if m.uniform(streamExec, uint64(i), draw) < pr {
			faulted = true
		}
	}
	if faulted {
		m.stats.FaultedExecs++
	}
	return faulted
}

// sampleCheck advances the sampling phase and reports whether this offload
// is verified against the GPP reference (every CheckEvery-th offload,
// starting with the first of each epoch).
func (m *Monitor) sampleCheck() bool {
	m.checkPhase++
	if m.policy.CheckEvery <= 1 {
		return true
	}
	return m.checkPhase%uint64(m.policy.CheckEvery) == 1
}

// priceCheck accounts one verification of n instructions: the event counts
// the derived cost model prices as checker work.
func (m *Monitor) priceCheck(n int) {
	m.stats.CheckedExecs++
	m.search.CheckerRuns++
	m.search.CheckerInstrs += uint64(n)
}

// recordRetry accounts one on-fabric re-execution of duration fabric
// cycles after a detection.
func (m *Monitor) recordRetry(duration uint64) {
	m.stats.Retries++
	m.search.RetryExecs++
	m.search.RetryCycles += duration
}

// recordDetection processes one verified-faulty execution: the checker
// cannot localise the corruption, so every cell of the footprint is blamed
// — whole-footprint suspicion is what creates the false positives probation
// later recovers. Cells crossing QuarantineAfter are killed in the observed
// map; under FailStop the whole fabric is distrusted instead.
func (m *Monitor) recordDetection(cells []fabric.Cell, off fabric.Offset) {
	m.stats.DetectedFaults++
	if m.policy.FailStop {
		if !m.distrusted {
			m.distrusted = true
			m.version++
		}
		return
	}
	for _, c := range cells {
		p := off.Apply(c, m.geom)
		if m.observed.Dead(p) {
			continue
		}
		i := p.Row*m.geom.Cols + p.Col
		m.suspect[i]++
		m.version++
		if m.suspect[i] >= m.policy.QuarantineAfter {
			m.observed.Kill(p)
			m.streak[i] = 0
			m.stats.Quarantines++
			truthDead := m.truth.Dead(p)
			if !truthDead {
				m.stats.FalsePositiveQuarantines++
			}
			m.events = append(m.events, Event{Kind: Quarantine, Cell: p, TruthDead: truthDead})
			m.version++
		}
	}
}

// probeQuarantined runs each quarantined cell's probation test vectors for
// the epoch, in row-major order for determinism: ProbesPerEpoch draws per
// cell, a faulty probe resets the clean streak, and ProbationProbes
// consecutive clean probes reinstate the cell (Revive in the observed map,
// suspicion cleared). Ground-truth-dead cells always probe faulty, so only
// false positives can earn their way back. EndEpoch runs it after the
// epoch's workload mix.
func (m *Monitor) probeQuarantined() {
	if m.distrusted {
		return
	}
	for r := 0; r < m.geom.Rows; r++ {
		for c := 0; c < m.geom.Cols; c++ {
			cell := fabric.Cell{Row: r, Col: c}
			if !m.observed.Dead(cell) {
				continue
			}
			i := r*m.geom.Cols + c
			for j := 0; j < m.policy.ProbesPerEpoch; j++ {
				m.stats.Probes++
				m.search.RecoveryProbes++
				faulty := m.truth.Dead(cell)
				if !faulty && m.faults != nil {
					if pr := m.faults.At(cell); pr > 0 &&
						m.uniform(streamProbe, uint64(i), uint64(j)) < pr {
						faulty = true
					}
				}
				if faulty {
					if m.streak[i] != 0 {
						m.streak[i] = 0
						m.version++
					}
					continue
				}
				m.stats.CleanProbes++
				m.streak[i]++
				m.version++
				if m.streak[i] >= m.policy.ProbationProbes {
					m.observed.Revive(cell)
					m.suspect[i] = 0
					m.streak[i] = 0
					m.stats.Reinstatements++
					m.events = append(m.events, Event{Kind: Reinstate, Cell: cell, TruthDead: false})
					break
				}
			}
		}
	}
}
