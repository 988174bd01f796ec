// Package dbt implements the TransRec execution engine (Fig. 2 of the
// paper): a GPP core running the application, a dynamic binary translation
// module that captures retired instruction sequences and maps them onto the
// CGRA, a PC-indexed configuration cache, and the reconfigurable unit
// itself with the aging-mitigation controller deciding where each
// configuration lands.
//
// Functional execution happens once per program, on the gpp.Core
// interpreter, whose recorded retire stream (gpp.Stream) the engine then
// walks: it attributes cycles and NBTI stress to the GPP or the CGRA
// according to where each dynamic instruction logically executed. This
// trace-driven split keeps architectural state trivially correct while
// modelling the performance and aging behaviour the paper measures, and
// lets every co-simulation of a program share one recording.
package dbt

import (
	"encoding/binary"
	"fmt"

	"agingcgra/internal/alloc"
	"agingcgra/internal/cfgcache"
	"agingcgra/internal/core"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	recov "agingcgra/internal/recover"
	"agingcgra/internal/searchcost"
)

// Fixed parameters of the modelled TransRec hardware. Column latencies
// come from fabric.DefaultLatencies and the smallest profitable
// configuration is mapper.MinOps.
const (
	// maxTraceLen caps captured trace length: the DBT's translation
	// window, a property of the hardware translator (its reorder-buffer
	// depth), independent of the fabric size. Traces also terminate at
	// backward-taken branches (superblock formation), so loop bodies
	// become whole configurations re-executed per iteration.
	maxTraceLen = 32
	// cacheCapacity is the configuration cache size in entries.
	cacheCapacity = 128
	// offloadOverhead is the per-offload cycle cost of moving the input
	// context in and results out (the unit is tightly coupled to the GPP
	// register file). Configuration broadcast overlaps with it; only the
	// excess reconfiguration time is charged.
	offloadOverhead uint64 = 2
)

// Options configures an engine instance.
type Options struct {
	// Geom is the CGRA fabric geometry.
	Geom fabric.Geometry
	// Timing is the GPP cycle model; zero value selects gpp.DefaultTiming.
	Timing gpp.Timing
	// Allocator decides configuration placement; nil selects the baseline.
	Allocator alloc.Allocator
	// ExposeReconfig disables the wavefront overlap of configuration
	// broadcast and execution: an ablation that charges the excess of
	// ReconfigCycles over the offload overhead whenever the resident
	// configuration (or its offset) changes. The default design streams
	// configuration columns ahead of the execution wave (CfgLines >
	// ColumnsPerCycle), hiding the reload entirely.
	ExposeReconfig bool
	// Controller, when non-nil, is shared with the engine instead of
	// creating a fresh one. Sharing lets a suite of applications accumulate
	// stress on one fabric, as a deployed chip would; the Allocator option
	// is ignored in that case.
	Controller *core.Controller
	// Health marks failed FUs the DBT must map around (the
	// graceful-degradation extension): a mutable fabric health map shared
	// between the mapper (which places new translations only on live
	// cells) and the aging-mitigation controller (which skips pivot offsets
	// that would rotate a configuration onto a dead FU).
	Health *fabric.Health
	// StaleTranslations models a DBT whose translation memory predates the
	// failures: new translations are mapped for the pristine fabric (no
	// health mask), as configurations translated at deploy time would be,
	// and only placement respects the health map. This is the regime where
	// clustered failures bite — no pivot of a healthy-shaped full-length
	// configuration avoids a dead column — and the regime the shape-adaptive
	// remap allocator (alloc.ConfigRemapper) is built to rescue. The default
	// (false) re-translates against current health, modelling a DBT flushed
	// on every failure event.
	StaleTranslations bool
	// Wear is the fabric's accumulated cross-epoch NBTI stress map.
	// Wear-adaptive allocators (alloc.WearSetter) receive it through the
	// controller and re-explore their placement whenever its version
	// changes; the engine then observes the new pivot through the resident
	// (StartPC, Offset) identity and accounts a reconfiguration event,
	// exactly as it does when a kill forces the placement off a dead cell.
	// Wear never affects placeability — a worn FU still computes — so the
	// unplaceable and refused memos below stay keyed on health alone.
	Wear *fabric.Wear
	// ShapeTranslations enables translation-time shape search: instead of
	// mapping every hot trace at the identity full-fabric shape, the DBT
	// maps it once per rung of the candidate shape ladder (Ladder) against
	// the current health mask and keeps the candidate consuming the most
	// ops, then the fewest ExecCycles, then the least projected wear on the
	// cells it would occupy — fresh translations are born shape- and
	// health-aware instead of relying on the allocation-time remap rescue.
	// Because the chosen shape is a decision taken under one fabric state,
	// the translation cache is then keyed on the health and wear maps'
	// fabric.StateKey (cfgcache.Cache.SyncState): any move flushes the
	// translations wholesale and the trace builder re-captures against the
	// new state. Mutually exclusive with StaleTranslations —
	// shape-aware translation is precisely the regime where the DBT's
	// translation memory follows the fabric state instead of predating it.
	ShapeTranslations bool
	// Ladder is the candidate shape ladder the translation-time search
	// walks (zero value: fabric.DefaultShapeLadder, the same ladder the
	// shape-adaptive remapper searches). Only consulted when
	// ShapeTranslations is set.
	Ladder fabric.ShapeLadder
	// Recovery attaches the fault-injection and detection/recovery monitor
	// (internal/recover). When set, every offload draws fault
	// manifestations from the monitor's truth maps, sampled offloads are
	// verified against the GPP reference, detected faults trigger bounded
	// on-fabric retries and then GPP backoff, and the fail-stop latch
	// routes everything to the GPP. In this regime Health should be the
	// monitor's *observed* map, not ground truth — the whole point is that
	// placement plans around what the runtime detected. Nil (the default)
	// costs the fault-free path nothing.
	Recovery *recov.Monitor
}

func (o *Options) applyDefaults() {
	if o.Timing == (gpp.Timing{}) {
		o.Timing = gpp.DefaultTiming()
	}
	if o.Allocator == nil {
		o.Allocator = alloc.Baseline{}
	}
}

// ClassCounts indexes dynamic instruction counts by isa.Class.
type ClassCounts [8]uint64

// Total sums all classes.
func (c ClassCounts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// Add accumulates other into c.
func (c *ClassCounts) Add(other ClassCounts) {
	for i := range c {
		c[i] += other[i]
	}
}

// Report aggregates everything a run produced; the energy and aging models
// consume it.
type Report struct {
	// Geom and AllocatorName identify the configuration.
	Geom          fabric.Geometry
	AllocatorName string

	// Cycle accounting. TotalCycles = GPPCycles + CGRACycles;
	// CGRACycles includes OverheadCycles and ReconfigCycles.
	TotalCycles    uint64
	GPPCycles      uint64
	CGRACycles     uint64
	OverheadCycles uint64
	ReconfigCycles uint64

	// Instruction accounting.
	TotalInstrs uint64
	GPPInstrs   uint64
	CGRAInstrs  uint64
	GPPClasses  ClassCounts
	CGRAClasses ClassCounts

	// Offload behaviour.
	Offloads       uint64
	EarlyExits     uint64
	Translations   uint64
	ReconfigEvents uint64
	Cache          cfgcache.Stats

	// Placement outcomes under failures. Remaps counts offloads kept
	// on-fabric by a shape-adaptive substitution (PlaceOrRemap returned a
	// configuration other than the translated one); GPPFallbacks counts
	// offloads the placement refused outright — every pivot would drive a
	// failed FU and no alternative shape fit — so the step retired on the
	// GPP (fresh refusals and unplaceable-memo hits alike). Both stay zero
	// on a healthy fabric.
	Remaps       uint64
	GPPFallbacks uint64

	// Search tallies the run's placement/shape-search work — the engine's
	// own translation-time ladder scans plus the allocator's pivot and
	// rescue scans (searchcost.Instrumented), as deltas over this run — so
	// the derived hardware-cost model can price the searches the hold
	// periods and caches amortise.
	Search searchcost.Counts

	// StressSum is the total FU-cycle product of this run: for every
	// offload, the number of configured cells times the residency cycles.
	// The energy model charges active FU power against it.
	StressSum uint64

	// Util is the per-FU utilization snapshot.
	Util *core.UtilizationMap
}

// OffloadRate is the fraction of dynamic instructions executed on the CGRA.
func (r *Report) OffloadRate() float64 {
	if r.TotalInstrs == 0 {
		return 0
	}
	return float64(r.CGRAInstrs) / float64(r.TotalInstrs)
}

// Engine co-simulates one workload on the TransRec system.
type Engine struct {
	opts     Options
	cache    *cfgcache.Cache
	ctrl     *core.Controller
	disabled func(fabric.Cell) bool

	// shapes is the materialised translation-time shape ladder (nil when
	// ShapeTranslations is off); search tallies the ladder scans for the
	// derived cost model. stateFlushed records that a SyncState flush
	// happened in finalizeTrace after the current offload's configuration
	// was already looked up — that configuration's shape decision is stale
	// and the offload must take the GPP path even though the cache state
	// is already resynced.
	shapes       []fabric.Geometry
	search       searchcost.Counts
	stateFlushed bool

	// Health-keyed memos, both dropped whenever memoKey moves (syncMemos).
	// unplaceable holds configurations the controller found no live
	// placement for, keyed by StartPC. refused holds captured traces the
	// translator rejected — nothing mapped, too few ops consumed, or
	// unprofitable — keyed by the trace's (PC, taken) bytes (built into
	// refusedKey) and valued by the ladder probes the refused scan counted.
	unplaceable map[uint32]bool
	refused     map[string]uint64
	refusedKey  []byte
	memoKey     [2]fabric.StateKey

	// Trace capture state.
	trace []mapper.TraceEntry
	// memo maps captured traces (nil: map each one directly).
	memo *mapper.Memo

	// stream is the retire stream RunStream walks and pos the next retire
	// to attribute. The stream is shared and never written.
	stream *gpp.Stream
	pos    int

	// Resident configuration identity for reconfiguration accounting.
	residentPC  uint32
	residentOff fabric.Offset
	hasResident bool

	// Per-text-index timing/class tables for the GPP attribution path,
	// built once per program: cycle cost for the not-taken and taken
	// outcomes and the instruction class, so the per-retirement accounting
	// is three array loads instead of two switch dispatches.
	tabProg    *isa.Program
	cycNT, cyc []uint64
	class      []isa.Class

	rep Report
}

// ensureTables (re)builds the per-instruction attribution tables for p.
func (e *Engine) ensureTables(p *isa.Program) {
	if e.tabProg == p {
		return
	}
	e.tabProg = p
	// Refused-trace keys name PCs, not instructions: they hold for one
	// program only.
	clear(e.refused)
	e.cycNT = make([]uint64, len(p.Text))
	e.cyc = make([]uint64, len(p.Text))
	e.class = make([]isa.Class, len(p.Text))
	for i, in := range p.Text {
		e.cycNT[i] = e.opts.Timing.CyclesFor(in, false)
		e.cyc[i] = e.opts.Timing.CyclesFor(in, true)
		e.class[i] = in.Op.Class()
	}
}

// NewEngine validates options and builds an engine.
func NewEngine(opts Options) (*Engine, error) {
	opts.applyDefaults()
	if err := opts.Geom.Validate(); err != nil {
		return nil, err
	}
	ctrl := opts.Controller
	if ctrl == nil {
		var err error
		ctrl, err = core.NewController(opts.Geom, opts.Allocator)
		if err != nil {
			return nil, err
		}
	} else if ctrl.Tracker().Geometry() != opts.Geom {
		return nil, fmt.Errorf("dbt: shared controller geometry %v does not match engine geometry %v",
			ctrl.Tracker().Geometry(), opts.Geom)
	}
	if opts.ShapeTranslations && opts.StaleTranslations {
		return nil, fmt.Errorf("dbt: ShapeTranslations and StaleTranslations are mutually exclusive: " +
			"shape-aware translation keys the translation memory on the fabric state, stale translation predates it")
	}
	e := &Engine{
		opts:  opts,
		cache: cfgcache.New(cacheCapacity),
		ctrl:  ctrl,
		trace: make([]mapper.TraceEntry, 0, maxTraceLen),
	}
	if opts.ShapeTranslations {
		ladder := opts.Ladder
		if ladder.Name == "" && len(ladder.ColFracs) == 0 && len(ladder.RowFracs) == 0 {
			ladder = fabric.DefaultShapeLadder()
		}
		e.shapes = ladder.Shapes(opts.Geom)
		if len(e.shapes) == 0 {
			// A malformed ladder (e.g. fractions on one axis only) must not
			// silently degrade to identity translation while the run is
			// treated as shape-aware everywhere else.
			return nil, fmt.Errorf("dbt: shape ladder %q expands to no candidate shapes for %v",
				ladder.Name, opts.Geom)
		}
	}
	if health := opts.Health; health != nil {
		// StaleTranslations withholds the mask from the mapper: new
		// translations assume a pristine fabric, so clustered failures can
		// make them unplaceable — the case the remap layer rescues.
		if !opts.StaleTranslations {
			e.disabled = health.Dead
		}
		// An engine-owned controller adopts the health map so placement
		// avoids dead cells; a shared controller's health is the owner's
		// business (the lifetime simulator attaches the same map to both).
		if opts.Controller == nil {
			ctrl.SetHealth(health)
		}
	}
	// Same ownership rule for the wear map: an engine-owned controller
	// adopts it so wear-adaptive allocators see the aging history.
	if opts.Wear != nil && opts.Controller == nil {
		ctrl.SetWear(opts.Wear)
	}
	return e, nil
}

// UseMemo makes translations map through m, so engines and allocators
// sharing it map each (trace, shape, dead mask) once.
func (e *Engine) UseMemo(m *mapper.Memo) { e.memo = m }

// Controller exposes the aging-mitigation controller.
func (e *Engine) Controller() *core.Controller { return e.ctrl }

// Cache exposes the configuration cache.
func (e *Engine) Cache() *cfgcache.Cache { return e.cache }

// Run records the core's retire stream (gpp.Record, up to limit retires in
// total) and co-simulates it with RunStream. The core is left in the
// program's final architectural state; a program that does not halt within
// limit retires is an error.
func (e *Engine) Run(c *gpp.Core, limit uint64) (*Report, error) {
	var remaining uint64
	if n := c.RetiredCount(); n < limit {
		remaining = limit - n
	}
	s, err := gpp.Record(c, remaining)
	if err != nil {
		return nil, fmt.Errorf("dbt: %w", err)
	}
	return e.RunStream(s)
}

// RunStream co-simulates a recorded retire stream on the TransRec system
// and returns the report. It never writes to the stream, which may be
// shared across engines and goroutines.
func (e *Engine) RunStream(s *gpp.Stream) (*Report, error) {
	// Index the configuration cache densely over the text segment so the
	// two per-retired-instruction residency probes (Lookup below and
	// Contains in observe) are array loads instead of map operations, and
	// precompute the per-instruction timing/class attribution tables.
	p := s.Prog
	e.cache.EnableDense(p.TextBase, len(p.Text))
	e.ensureTables(p)
	// The allocator may be shared across a suite of engines (one fabric),
	// so its search counters are attributed to this run as a delta.
	var allocStart searchcost.Counts
	instrumented, _ := e.ctrl.Allocator().(searchcost.Instrumented)
	if instrumented != nil {
		allocStart = instrumented.SearchCounts()
	}
	// Same delta convention for the recovery monitor's checker/retry work:
	// the monitor persists across the epoch's engines.
	var monStart searchcost.Counts
	if e.opts.Recovery != nil {
		monStart = e.opts.Recovery.SearchCounts()
	}
	e.stream, e.pos = s, 0
	for e.pos < len(s.Retires) {
		if cfg, ok := e.cache.Lookup(s.PC(e.pos)); ok {
			// Step 5-7 of Fig. 2: offload to the CGRA.
			e.finalizeTrace()
			if err := e.offload(cfg); err != nil {
				return nil, err
			}
			continue
		}
		// Steps 1-3: execute on the GPP while the DBT captures the trace.
		e.observe(e.stepOnGPP())
	}
	e.finalizeTrace()
	e.rep.Geom = e.opts.Geom
	e.rep.AllocatorName = e.ctrl.Allocator().Name()
	e.rep.TotalCycles = e.rep.GPPCycles + e.rep.CGRACycles
	e.rep.TotalInstrs = e.rep.GPPInstrs + e.rep.CGRAInstrs
	e.rep.Cache = e.cache.Stats()
	e.rep.Util = e.ctrl.Utilization()
	e.rep.Search = e.search
	if instrumented != nil {
		e.rep.Search.Add(instrumented.SearchCounts().Sub(allocStart))
	}
	if e.opts.Recovery != nil {
		e.rep.Search.Add(e.opts.Recovery.SearchCounts().Sub(monStart))
	}
	rep := e.rep
	return &rep, nil
}

// offload replays one configuration on the CGRA: the configuration's
// sequence is matched against the retire stream from the current
// position, exiting early if a branch diverges from the captured
// direction. Per-op accounting is batched through the config's memoized
// prefix tables: the match only checks for divergence, and the
// instruction/class/cycle attribution is applied once from the count of
// ops that ran.
func (e *Engine) offload(cfg *fabric.Config) error {
	if mon := e.opts.Recovery; mon != nil && mon.FabricDistrusted() {
		// Fail-stop: the first detected fault condemned the whole fabric and
		// every later offload retires on the GPP (the no-recovery baseline
		// the recovery policy is measured against). The region is already
		// translated, so the trace builder is not re-engaged.
		e.stepOnGPP()
		return nil
	}
	if e.opts.ShapeTranslations {
		// The resident translations' shapes were decided under one
		// (health, wear) state; if either map moved, every decision is
		// stale — flush wholesale and retire this instruction on the GPP
		// with the trace builder engaged, so the region re-translates
		// against the new state. finalizeTrace may
		// already have consumed the flush between this offload's cache hit
		// and this check (stateFlushed): the looked-up configuration is
		// stale all the same.
		if e.cache.SyncState(fabric.KeyOf(e.opts.Health, e.ctrl.Wear(), nil)) || e.stateFlushed {
			e.stateFlushed = false
			e.observe(e.stepOnGPP())
			return nil
		}
	}
	e.syncMemos()
	if e.unplaceable[cfg.StartPC] {
		e.rep.GPPFallbacks++
		e.stepOnGPP()
		return nil
	}
	// PlaceOrRemap returns cfg itself on the ordinary path; when clustered
	// failures block every pivot of the original rectangle, a shape-adaptive
	// allocator may substitute an architecturally equivalent remapped
	// configuration (same instruction sequence, possibly a shorter prefix —
	// the rest of the region then retires on the GPP and the trace builder
	// re-engages past it). All replay and accounting below runs on whatever
	// configuration actually loads.
	mapped, off, ok := e.ctrl.PlaceOrRemap(cfg)
	if !ok {
		// Every pivot the allocator proposed would drive a failed FU and no
		// alternative shape fits either: the controller refuses the offload
		// and this step runs on the GPP. The region is already translated,
		// so the trace builder is not re-engaged.
		if e.unplaceable == nil {
			e.unplaceable = make(map[uint32]bool)
		}
		e.unplaceable[cfg.StartPC] = true
		e.rep.GPPFallbacks++
		e.stepOnGPP()
		return nil
	}
	if mapped != cfg {
		e.rep.Remaps++
	}

	pcs, dirs := mapped.ReplayTables()
	n, early, err := e.stream.Match(e.pos, pcs, dirs)
	if err != nil {
		return err
	}
	e.pos += n

	execCycles := mapped.ExecCyclesFirst(n)
	overhead := offloadOverhead
	var reconfig uint64
	if !e.hasResident || e.residentPC != mapped.StartPC || e.residentOff != off {
		// Configuration broadcast (Fig. 5a) proceeds as a wavefront ahead
		// of execution and costs no extra cycles; the ExposeReconfig
		// ablation charges the excess over the offload overhead instead.
		if e.opts.ExposeReconfig {
			if rc := e.opts.Geom.ReconfigCycles(); rc > overhead {
				reconfig = rc - overhead
			}
		}
		e.residentPC, e.residentOff, e.hasResident = mapped.StartPC, off, true
		e.rep.ReconfigEvents++
	}

	if e.opts.Recovery != nil {
		e.offloadWithRecovery(mapped, off, n, early, overhead, reconfig, execCycles)
		return nil
	}

	e.rep.CGRAInstrs += uint64(n)
	e.rep.CGRAClasses.Add(ClassCounts(mapped.ClassCountsFirst(n)))
	duration := overhead + reconfig + execCycles
	e.ctrl.Commit(mapped, off, duration)

	e.rep.StressSum += uint64(len(mapped.Cells())) * duration
	e.rep.CGRACycles += duration
	e.rep.OverheadCycles += overhead
	e.rep.ReconfigCycles += reconfig
	e.rep.Offloads++
	if early {
		e.rep.EarlyExits++
	}
	return nil
}

// offloadWithRecovery runs the fault-manifestation and detection loop of
// one offload. The architectural result is already computed (the retire
// stream was recorded on the GPP interpreter — the trace-driven split); what
// faults corrupt is the *accounting* world: a faulty unchecked execution
// commits as a silent escape, a detected one is retried on-fabric up to
// MaxRetries (each retry a real execution: stress, cycles, a fresh context
// transfer) and then abandoned to the GPP, whose re-execution cost is
// attributed at the GPP timing model over the same instruction prefix.
func (e *Engine) offloadWithRecovery(mapped *fabric.Config, off fabric.Offset, n int, early bool, overhead, reconfig, execCycles uint64) {
	mon := e.opts.Recovery
	cells := mapped.Cells()
	toGPP := false
	for attempt := 0; ; attempt++ {
		duration := overhead + execCycles
		if attempt == 0 {
			duration += reconfig
		} else {
			mon.RecordRetry(duration)
		}
		e.ctrl.Commit(mapped, off, duration)
		e.rep.StressSum += uint64(len(cells)) * duration
		e.rep.CGRACycles += duration
		e.rep.OverheadCycles += overhead
		if attempt == 0 {
			e.rep.ReconfigCycles += reconfig
			e.rep.Offloads++
		}
		faulted := mon.DrawExec(cells, off)
		checked := attempt > 0 || mon.SampleCheck()
		if !checked {
			if faulted {
				mon.RecordEscape()
			}
			break
		}
		mon.PriceCheck(n)
		if !faulted {
			if attempt > 0 {
				mon.RecordRetrySuccess()
			}
			break
		}
		mon.RecordDetection(cells, off)
		if attempt >= mon.MaxRetries() || mon.FabricDistrusted() {
			mon.RecordBackoff()
			toGPP = true
			break
		}
	}
	if toGPP {
		// The region's architectural work lands on the GPP re-execution.
		e.rep.GPPInstrs += uint64(n)
		e.rep.GPPClasses.Add(ClassCounts(mapped.ClassCountsFirst(n)))
		e.rep.GPPCycles += e.gppCyclesFirst(mapped, n)
	} else {
		e.rep.CGRAInstrs += uint64(n)
		e.rep.CGRAClasses.Add(ClassCounts(mapped.ClassCountsFirst(n)))
	}
	if early {
		e.rep.EarlyExits++
	}
}

// gppCyclesFirst prices the first n ops of a configuration at the GPP
// timing model: the backoff path's attribution. Backoffs are rare (they
// need MaxRetries consecutive detected faults), so the O(n) walk is fine.
func (e *Engine) gppCyclesFirst(cfg *fabric.Config, n int) uint64 {
	var cycles uint64
	for _, op := range cfg.Ops[:n] {
		cycles += e.opts.Timing.CyclesFor(op.Inst, op.Taken)
	}
	return cycles
}

// syncMemos drops the unplaceable and refused memos when the health they
// were decided under moved: the mapper's mask or the controller's placement
// map (one map wherever the controller is engine-owned or attached by the
// lifetime simulator, so the second key is then zero). Wear is deliberately
// not observed: it only orders ladder rungs already tied on consumed ops
// and ExecCycles, the two values a refusal reads.
func (e *Engine) syncMemos() {
	key := [2]fabric.StateKey{fabric.KeyOf(e.opts.Health, nil, nil)}
	if h := e.ctrl.Health(); h != e.opts.Health {
		key[1] = fabric.KeyOf(h, nil, nil)
	}
	// Compared per element: the compiler turns a whole-array compare into
	// a runtime.memequal call, and this runs on every offload.
	if key[0] != e.memoKey[0] || key[1] != e.memoKey[1] {
		clear(e.unplaceable)
		clear(e.refused)
		e.memoKey = key
	}
}

// stepOnGPP retires the instruction at the stream position on the GPP and
// attributes its cycles, instruction count and class: the shared
// accounting of the normal GPP path and the unplaceable-configuration
// fallback (which skips the trace builder, since its region is already
// translated).
func (e *Engine) stepOnGPP() gpp.Retire {
	r := e.stream.Retire(e.pos)
	e.pos++
	if r.Taken {
		e.rep.GPPCycles += e.cyc[r.Index]
	} else {
		e.rep.GPPCycles += e.cycNT[r.Index]
	}
	e.rep.GPPInstrs++
	e.rep.GPPClasses[e.class[r.Index]]++
	return r
}

// observe feeds one retired instruction to the DBT's trace builder. Traces
// end at indirect jumps, system calls, backward-taken control transfers
// (superblock formation: a loop body becomes one configuration), window
// exhaustion, or when the next PC is already translated.
func (e *Engine) observe(r gpp.Retire) {
	e.trace = append(e.trace, mapper.TraceEntry{PC: r.PC, Inst: r.Inst, Taken: r.Taken})
	backEdge := r.Taken && r.Inst.IsControl() && r.Inst.Imm < 0
	terminator := r.Inst.Op == isa.JALR ||
		r.Inst.Op == isa.ECALL ||
		backEdge ||
		len(e.trace) >= maxTraceLen ||
		e.cache.Contains(r.NextPC)
	if terminator {
		e.finalizeTrace()
	}
}

// finalizeTrace maps the captured trace and inserts the configuration if it
// is big enough and projected profitable. Under ShapeTranslations the
// mapping is a search over the candidate shape ladder instead of a single
// identity-shape placement.
//
// A trace the translator already refused under the current health is not
// mapped again (the refused memo): the outcome is a pure function of the
// trace and the health mask. The modelled DBT keeps no negative cache — it
// re-runs the scan and refuses again — so a memo hit re-adds the scan's
// search counts and the Report is the one a re-mapping engine produces.
func (e *Engine) finalizeTrace() {
	defer func() { e.trace = e.trace[:0] }()
	if len(e.trace) < mapper.MinOps {
		return
	}
	if e.shapes != nil {
		// Key the insert on the state the shape decision is about to be
		// taken under: if the state moved since the resident entries
		// were decided, they are stale and flush here — otherwise this
		// fresh translation would be recorded under the old state and
		// wrongly flushed (wasting its ladder scan) at its own first
		// offload. A configuration looked up before this flush is still
		// stale; remember the flush so the offload path rejects it.
		if e.cache.SyncState(fabric.KeyOf(e.opts.Health, e.ctrl.Wear(), nil)) {
			e.stateFlushed = true
		}
	}
	key := e.refusedKey[:0]
	for _, t := range e.trace {
		key = binary.LittleEndian.AppendUint32(key, t.PC)
		if t.Taken {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
	}
	e.refusedKey = key
	e.syncMemos()
	if probes, ok := e.refused[string(key)]; ok {
		if e.shapes != nil {
			e.search.LadderScans++
			e.search.LadderCandidates += uint64(len(e.shapes))
			e.search.LadderProbes += probes
		}
		return
	}
	var cfg *fabric.Config
	var consumed int
	probesBefore := e.search.LadderProbes
	if e.shapes != nil {
		cfg, consumed = e.translateShapes()
	} else {
		cfg, consumed = e.memo.Map(e.memo.Key(e.trace), mapper.Options{
			Geom:     e.opts.Geom,
			Lat:      fabric.DefaultLatencies(),
			Disabled: e.disabled,
		})
	}
	if cfg == nil || consumed < mapper.MinOps || !e.profitable(cfg) {
		if e.refused == nil {
			e.refused = make(map[string]uint64)
		}
		e.refused[string(key)] = e.search.LadderProbes - probesBefore
		return
	}
	e.cache.Insert(cfg)
	e.rep.Translations++
}

// translateShapes is the translation-time shape search: the captured trace
// is mapped once per rung of the shape ladder against the current health
// mask (identity frame — the allocation layer still chooses the pivot),
// and the candidate consuming the most ops wins — architectural throughput
// first — with ties broken by fewest ExecCycles (the denser placement),
// then least accumulated wear over the cells of the candidate's mapped
// (identity) frame — a shape-selection proxy: the allocation layer still
// chooses the actual pivot wear-aware, this tie-break only prefers, among
// equally fast shapes, one whose home footprint shows the allocator a
// fresher starting window — then ladder order for determinism. One mapper
// run per rung keeps this a pure ladder scan — an order of magnitude
// cheaper than the remap rescue's (shape × anchor) scan, which remains the
// backstop for placements the identity-frame mask cannot serve. The scan
// is counted for the derived search-cost model: every rung is mapped and
// its probes counted, with no running-best gate. The rungs map through the
// engine's memo, which hashes the trace once per scan.
func (e *Engine) translateShapes() (*fabric.Config, int) {
	e.search.LadderScans++
	e.search.LadderCandidates += uint64(len(e.shapes))
	trace := e.memo.Key(e.trace)
	wear := e.ctrl.Wear()
	var (
		best         *fabric.Config
		bestConsumed int
		bestCycles   uint64
		bestWear     float64
	)
	for _, shape := range e.shapes {
		cfg, consumed := e.memo.Map(trace, mapper.Options{
			Geom:     shape,
			Lat:      fabric.DefaultLatencies(),
			Disabled: e.disabled,
			Probes:   &e.search.LadderProbes,
		})
		if cfg == nil {
			continue
		}
		cycles := cfg.ExecCycles()
		wearYears := 0.0
		if wear != nil {
			for _, cell := range cfg.Cells() {
				if y := wear.YearsAt(cell); y > wearYears {
					wearYears = y
				}
			}
		}
		if best == nil || consumed > bestConsumed ||
			(consumed == bestConsumed && (cycles < bestCycles ||
				(cycles == bestCycles && wearYears < bestWear))) {
			best, bestConsumed, bestCycles, bestWear = cfg, consumed, cycles, wearYears
		}
	}
	return best, bestConsumed
}

// profitable projects whether executing cfg on the CGRA beats the GPP.
func (e *Engine) profitable(cfg *fabric.Config) bool {
	var gppCycles uint64
	for _, op := range cfg.Ops {
		gppCycles += e.opts.Timing.CyclesFor(op.Inst, op.Taken)
	}
	cgraCycles := offloadOverhead + cfg.ExecCycles()
	return cgraCycles < gppCycles
}

// RunGPPOnly measures the stand-alone GPP: the red reference square of
// Fig. 6. It runs the core to completion under the same timing model with
// no acceleration.
func RunGPPOnly(c *gpp.Core, timing gpp.Timing, limit uint64) (cycles uint64, classes ClassCounts, err error) {
	if timing == (gpp.Timing{}) {
		timing = gpp.DefaultTiming()
	}
	var remaining uint64
	if n := c.RetiredCount(); n < limit {
		remaining = limit - n
	}
	n, err := c.Run(remaining, func(r gpp.Retire) {
		cycles += timing.CyclesFor(r.Inst, r.Taken)
		classes[r.Inst.Op.Class()]++
	})
	if err != nil {
		if !c.Halted() && n >= remaining {
			return cycles, classes, fmt.Errorf("dbt: instruction limit %d reached", limit)
		}
		return cycles, classes, err
	}
	return cycles, classes, nil
}
