// Package dbt implements the TransRec execution engine (Fig. 2 of the
// paper): a GPP core running the application, a dynamic binary translation
// module that captures retired instruction sequences and maps them onto the
// CGRA, a PC-indexed configuration cache, and the reconfigurable unit
// itself with the aging-mitigation controller deciding where each
// configuration lands.
//
// An Engine is one chip: it owns its controller, so every program run on
// it (RunStream) accumulates stress and allocator state on one fabric, as
// the applications of a deployed system do. Everything else a run
// decides — the configuration cache, the translator's memos, the resident
// configuration and the Report — starts clean with each run.
//
// Functional execution happens once per program, on the gpp.Core
// interpreter, whose recorded retire stream (gpp.Stream) the engine then
// walks: it attributes cycles and NBTI stress to the GPP or the CGRA
// according to where each dynamic instruction logically executed. This
// trace-driven split keeps architectural state trivially correct while
// modelling the performance and aging behaviour the paper measures, and
// lets every co-simulation of a program share one recording. The GPP path
// works on the stream's words directly: a retire is priced from tables
// indexed by its word, and the trace the DBT captures is a range of the
// stream, turned into mapper entries only when it is mapped.
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
	// register file). Configuration broadcast runs as a wavefront ahead of
	// execution (Fig. 5a) and is never charged.
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
	// Health marks failed FUs the DBT must map around (the
	// graceful-degradation extension): a mutable fabric health map the
	// engine's controller adopts, read by the mapper (which places new
	// translations only on live cells) and by placement (which skips pivot
	// offsets that would rotate a configuration onto a dead FU).
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
	// Wear is the fabric's accumulated cross-epoch NBTI stress map, adopted
	// by the engine's controller. Wear-adaptive allocators (alloc.WearSetter)
	// receive it and re-explore their placement whenever its version
	// changes; the engine then observes the new pivot through the resident
	// (StartPC, Offset) identity and accounts a reconfiguration event,
	// exactly as it does when a kill forces the placement off a dead cell.
	// Wear never affects placeability — a worn FU still computes — so only
	// shape-aware translation keys the engine's state on it.
	Wear *fabric.Wear
	// ShapeTranslations enables translation-time shape search: instead of
	// mapping every hot trace at the identity full-fabric shape, the DBT
	// maps it once per rung of the candidate shape ladder (Ladder) against
	// the current health mask and keeps the candidate consuming the most
	// ops, then the fewest ExecCycles, then the least projected wear on the
	// cells it would occupy — fresh translations are born shape- and
	// health-aware instead of relying on the allocation-time remap rescue.
	// Because the chosen shape is a decision taken under one fabric state,
	// the engine's state key then covers the wear map as well as health
	// (syncState): any move flushes the translations wholesale and the trace
	// builder re-captures against the new state. Mutually exclusive with
	// StaleTranslations — shape-aware translation is precisely the regime
	// where the DBT's translation memory follows the fabric state instead of
	// predating it.
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
	// CGRACycles includes OverheadCycles.
	TotalCycles    uint64
	GPPCycles      uint64
	CGRACycles     uint64
	OverheadCycles uint64

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
	opts  Options
	cache *cfgcache.Cache
	ctrl  *core.Controller

	// shapes is the materialised translation-time shape ladder (nil when
	// ShapeTranslations is off); search tallies the ladder scans for the
	// derived cost model. stateFlushed records that a syncState flush
	// happened in finalizeTrace after the current offload's configuration
	// was already looked up — that configuration's shape decision is stale
	// and the offload must take the GPP path even though the state key is
	// already resynced.
	shapes       []fabric.Geometry
	search       searchcost.Counts
	stateFlushed bool

	// state is the fabric.StateKey the run's memoized decisions were taken
	// under (syncState); both memos drop whenever it moves. unplaceable
	// holds configurations the controller found no live placement for,
	// keyed by StartPC: a repeat offload falls back to the GPP without
	// asking the allocator again, so the allocator sees one skip-scan per
	// configuration and state, not one per offload, and a pattern
	// allocator's position does not run on through futile proposals
	// (TestUnplaceableMemoSparesProposals). refused holds captured traces
	// the translator rejected — nothing mapped, too few ops consumed, or
	// unprofitable — keyed by the trace's stream words (built into
	// refusedKey) and valued by the ladder probes the refused scan counted.
	// Within one program a stream word is exactly a (PC, taken) pair, and
	// every run starts both memos empty.
	state       fabric.StateKey
	unplaceable map[uint32]bool
	refused     map[string]uint64
	refusedKey  []byte

	// Trace capture state. The captured trace is the stream range
	// [traceStart, traceStart+traceLen): the GPP retires a trace's
	// instructions consecutively, so the range names it without copying.
	// trace materialises the range as mapper entries, only when it is
	// mapped (the refused memo missed).
	traceStart, traceLen int
	trace                []mapper.TraceEntry
	// nextMissed records that captureStep found the next PC not resident
	// and inserted nothing since, so the main loop's probe of it would
	// miss: the loop counts the miss without probing again.
	nextMissed bool
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

	// wordCycles and wordInfo are the run's Words tables, which price the
	// GPP path.
	wordCycles []uint64
	wordInfo   []uint8

	rep Report
}

// Words is the per-stream-word table of one program under one timing,
// indexed by the retire word (text index<<1 | taken): each word's cycle
// cost and instruction class, with stopBit set when the retire ends a
// trace. A GPP step is then three array loads, with no instruction decode
// or switch dispatch. The table depends only on (program, timing), so one
// table serves every run of the program; nothing writes it after
// NewWords, so engines on any number of goroutines may share it.
type Words struct {
	prog   *isa.Program
	timing gpp.Timing
	cycles []uint64
	info   []uint8
}

// stopBit marks, in Words.info, a retire that terminates the captured
// trace: an indirect jump, a system call, or a taken backward control
// transfer (superblock formation: a loop body becomes one configuration).
// The low bits hold the instruction's isa.Class, so every class must stay
// below it.
const stopBit = 1 << 7

// A class count past stopBit would make this array length negative.
var _ [stopBit - len(ClassCounts{})]struct{}

// NewWords builds p's word table under timing (zero: gpp.DefaultTiming).
func NewWords(p *isa.Program, timing gpp.Timing) *Words {
	if timing == (gpp.Timing{}) {
		timing = gpp.DefaultTiming()
	}
	w := &Words{
		prog:   p,
		timing: timing,
		cycles: make([]uint64, 2*len(p.Text)),
		info:   make([]uint8, 2*len(p.Text)),
	}
	for i, in := range p.Text {
		for taken := 0; taken < 2; taken++ {
			j := i<<1 | taken
			w.cycles[j] = timing.CyclesFor(in, taken == 1)
			w.info[j] = uint8(in.Op.Class())
			backEdge := taken == 1 && in.IsControl() && in.Imm < 0
			if in.Op == isa.JALR || in.Op == isa.ECALL || backEdge {
				w.info[j] |= stopBit
			}
		}
	}
	return w
}

// Price returns the cycles and class counts of retiring words on the GPP
// alone: what RunGPPOnly reports for the run that recorded them.
func (w *Words) Price(words []uint32) (cycles uint64, classes ClassCounts) {
	for _, r := range words {
		cycles += w.cycles[r]
		classes[w.info[r]&^stopBit]++
	}
	return cycles, classes
}

// reset starts a run under w clean: an empty configuration cache sized
// over the program's text segment (so the per-retired-instruction
// residency probes are array loads), empty memos, no resident
// configuration, and a zeroed Report and search tally.
func (e *Engine) reset(w *Words) {
	e.cache = cfgcache.New(cacheCapacity, w.prog.TextBase, len(w.prog.Text))
	clear(e.unplaceable)
	clear(e.refused)
	e.hasResident, e.stateFlushed = false, false
	e.rep, e.search = Report{}, searchcost.Counts{}
	e.wordCycles, e.wordInfo = w.cycles, w.info
}

// NewEngine validates options and builds an engine.
func NewEngine(opts Options) (*Engine, error) {
	opts.applyDefaults()
	if err := opts.Geom.Validate(); err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(opts.Geom, opts.Allocator)
	if err != nil {
		return nil, err
	}
	if opts.ShapeTranslations && opts.StaleTranslations {
		return nil, fmt.Errorf("dbt: ShapeTranslations and StaleTranslations are mutually exclusive: " +
			"shape-aware translation keys the translation memory on the fabric state, stale translation predates it")
	}
	e := &Engine{
		opts:  opts,
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
	// The controller adopts the health map so placement avoids dead cells,
	// and the wear map so wear-adaptive allocators see the aging history.
	if opts.Health != nil {
		ctrl.SetHealth(opts.Health)
	}
	if opts.Wear != nil {
		ctrl.SetWear(opts.Wear)
	}
	return e, nil
}

// UseMemo makes translations map through m, so engines and allocators
// sharing it map each (trace, shape, dead mask) once.
func (e *Engine) UseMemo(m *mapper.Memo) { e.memo = m }

// Controller exposes the aging-mitigation controller: the fabric every run
// of the engine accumulates stress on.
func (e *Engine) Controller() *core.Controller { return e.ctrl }

// Cache exposes the configuration cache of the last run (nil before the
// first run).
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
	return e.RunStream(s, NewWords(s.Prog, e.opts.Timing))
}

// RunStream co-simulates a recorded retire stream on the TransRec system
// and returns the report of this run alone; only the fabric's stress and
// allocator state carry over from earlier runs. w prices the stream's
// words and must be its program's table under the engine's timing. It
// never writes to the stream or the table, which may be shared across
// engines and goroutines.
func (e *Engine) RunStream(s *gpp.Stream, w *Words) (*Report, error) {
	if w.prog != s.Prog || w.timing != e.opts.Timing {
		return nil, fmt.Errorf("dbt: the word table is not the stream's program under the engine's timing")
	}
	e.reset(w)
	// The allocator persists across the engine's runs, so its search
	// counters are attributed to this run as a delta.
	var allocStart searchcost.Counts
	instrumented, _ := e.ctrl.Allocator().(searchcost.Instrumented)
	if instrumented != nil {
		allocStart = instrumented.SearchCounts()
	}
	// Same delta convention for the recovery monitor's checker/retry work:
	// the monitor persists across the engine's runs.
	var monStart searchcost.Counts
	if e.opts.Recovery != nil {
		monStart = e.opts.Recovery.SearchCounts()
	}
	e.stream, e.pos, e.nextMissed = s, 0, false
	for e.pos < len(s.Retires) {
		if e.nextMissed {
			e.nextMissed = false
			e.cache.CountMiss()
		} else if cfg, ok := e.cache.Lookup(s.PC(e.pos)); ok {
			// Step 5-7 of Fig. 2: offload to the CGRA.
			e.finalizeTrace()
			if err := e.offload(cfg); err != nil {
				return nil, err
			}
			continue
		}
		// Steps 1-3: execute on the GPP while the DBT captures the trace.
		e.captureStep()
	}
	e.finalizeTrace()
	e.rep.Geom = e.opts.Geom
	e.rep.AllocatorName = e.ctrl.Allocator().Name()
	e.rep.TotalCycles = e.rep.GPPCycles + e.rep.CGRACycles
	e.rep.TotalInstrs = e.rep.GPPInstrs + e.rep.CGRAInstrs
	e.rep.Util = e.ctrl.Utilization()
	e.rep.Search = e.search
	if instrumented != nil {
		e.rep.Search.Add(instrumented.SearchCounts().Sub(allocStart))
	}
	if e.opts.Recovery != nil {
		e.rep.Search.Add(e.opts.Recovery.SearchCounts().Sub(monStart))
	}
	e.rep.Cache = e.cache.Stats()
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
	// The memos read below must be the current state's. Under shape
	// translation the resident translations' shapes were decided under one
	// (health, wear) state; if either map moved, every decision is stale —
	// the cache flushed, and this instruction retires on the GPP with the
	// trace builder engaged, so the region re-translates against the new
	// state. finalizeTrace may already have consumed the flush between this
	// offload's cache hit and this check (stateFlushed): the looked-up
	// configuration is stale all the same.
	if e.syncState() || e.stateFlushed {
		e.stateFlushed = false
		e.captureStep()
		return nil
	}
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

	if !e.hasResident || e.residentPC != mapped.StartPC || e.residentOff != off {
		// Configuration broadcast (Fig. 5a) proceeds as a wavefront ahead
		// of execution and costs no extra cycles.
		e.residentPC, e.residentOff, e.hasResident = mapped.StartPC, off, true
		e.rep.ReconfigEvents++
	}

	duration := offloadOverhead + mapped.ExecCyclesFirst(n)
	if e.opts.Recovery != nil {
		e.offloadWithRecovery(mapped, off, n, early, duration)
		return nil
	}

	e.rep.CGRAInstrs += uint64(n)
	e.rep.CGRAClasses.Add(ClassCounts(mapped.ClassCountsFirst(n)))
	e.ctrl.Commit(mapped, off, duration)

	e.rep.StressSum += uint64(len(mapped.Cells())) * duration
	e.rep.CGRACycles += duration
	e.rep.OverheadCycles += offloadOverhead
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
func (e *Engine) offloadWithRecovery(mapped *fabric.Config, off fabric.Offset, n int, early bool, duration uint64) {
	mon := e.opts.Recovery
	cells := mapped.Cells()
	toGPP := false
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			mon.RecordRetry(duration)
		}
		e.ctrl.Commit(mapped, off, duration)
		e.rep.StressSum += uint64(len(cells)) * duration
		e.rep.CGRACycles += duration
		e.rep.OverheadCycles += offloadOverhead
		if attempt == 0 {
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

// syncState keys the run's decisions on the fabric state they were taken
// under: the controller's health map, plus its wear map under shape
// translation, where wear orders the ladder rungs. When the key moves, the
// unplaceable and refused memos drop, and under shape translation a
// non-empty cache flushes wholesale (every resident shape was chosen for a
// fabric that no longer exists), which syncState reports. Without shape
// translation wear is not observed: the memos' outcomes read only live
// cells, consumed ops and ExecCycles, and the cache keeps its plain
// PC-keyed behaviour. This runs on every offload: Health.Matches reads
// only the mask words the geometry uses.
func (e *Engine) syncState() (flushed bool) {
	var w *fabric.Wear
	if e.shapes != nil {
		w = e.ctrl.Wear()
	}
	if !e.state.Update(e.ctrl.Health(), w, nil) {
		return false
	}
	clear(e.unplaceable)
	clear(e.refused)
	if e.shapes == nil || e.cache.Len() == 0 {
		return false
	}
	e.cache.Clear()
	return true
}

// translationMask returns the dead cells the translator maps shape around,
// in the identity frame. StaleTranslations withholds them: new
// translations assume a pristine fabric, so clustered failures can make
// them unplaceable — the case the remap layer rescues.
func (e *Engine) translationMask(shape fabric.Geometry) fabric.Mask {
	h := e.ctrl.Health()
	if e.opts.StaleTranslations || h == nil || h.DeadCount() == 0 {
		return fabric.Mask{}
	}
	dead := h.Mask()
	return dead.Window(fabric.Offset{}, shape, e.opts.Geom)
}

// stepOnGPP retires the instruction at the stream position on the GPP and
// attributes its cycles, instruction count and class: the shared
// accounting of every GPP path, the trace-capturing step and the fallbacks
// that skip the trace builder because their region is already translated.
// It returns the retired stream word.
func (e *Engine) stepOnGPP() uint32 {
	w := e.stream.Retires[e.pos]
	e.pos++
	e.rep.GPPCycles += e.wordCycles[w]
	e.rep.GPPInstrs++
	e.rep.GPPClasses[e.wordInfo[w]&^stopBit]++
	return w
}

// captureStep retires one instruction on the GPP and feeds it to the DBT's
// trace builder by extending the captured stream range. Traces end at
// indirect jumps, system calls, backward-taken control transfers (stopBit),
// window exhaustion, or when the next PC is already translated; a halted
// core's next PC stays on its final instruction. When the next PC is not
// resident and the trace goes on, nothing is inserted before the main
// loop probes that PC, so the probe is known to miss (nextMissed).
func (e *Engine) captureStep() {
	w := e.stepOnGPP()
	if e.traceLen == 0 {
		e.traceStart = e.pos - 1
	}
	e.traceLen++
	next := e.pos - 1
	if e.pos < len(e.stream.Retires) {
		next = e.pos
	}
	if e.wordInfo[w]&stopBit != 0 || e.traceLen >= maxTraceLen || e.cache.Contains(e.stream.PC(next)) {
		e.finalizeTrace()
		return
	}
	e.nextMissed = true
}

// finalizeTrace maps the captured stream range and inserts the
// configuration if it is big enough and projected profitable. Under
// ShapeTranslations the mapping is a search over the candidate shape ladder
// instead of a single identity-shape placement.
//
// A trace the translator already refused under the current health is not
// mapped again (the refused memo): the outcome is a pure function of the
// trace and the health mask. The modelled DBT keeps no negative cache — it
// re-runs the scan and refuses again — so a memo hit re-adds the scan's
// search counts and the Report is the one a re-mapping engine produces.
func (e *Engine) finalizeTrace() {
	n := e.traceLen
	e.traceLen = 0
	if n < mapper.MinOps {
		return
	}
	// Key the translation on the state it is about to be taken under: if
	// the state moved since the resident shapes were decided, they are
	// stale and flush here — otherwise this fresh translation would be
	// recorded under the old state and wrongly flushed (wasting its ladder
	// scan) at its own first offload. A configuration looked up before this
	// flush is still stale; remember the flush so the offload path rejects
	// it.
	if e.syncState() {
		e.stateFlushed = true
	}
	words := e.stream.Retires[e.traceStart : e.traceStart+n]
	key := e.refusedKey[:0]
	for _, w := range words {
		key = binary.LittleEndian.AppendUint32(key, w)
	}
	e.refusedKey = key
	if probes, ok := e.refused[string(key)]; ok {
		if e.shapes != nil {
			e.search.LadderScans++
			e.search.LadderCandidates += uint64(len(e.shapes))
			e.search.LadderProbes += probes
		}
		return
	}
	p := e.stream.Prog
	e.trace = e.trace[:0]
	for _, w := range words {
		i := w >> 1
		e.trace = append(e.trace, mapper.TraceEntry{PC: p.TextBase + i<<2, Inst: p.Text[i], Taken: w&1 == 1})
	}
	var cfg *fabric.Config
	var consumed int
	probesBefore := e.search.LadderProbes
	if e.shapes != nil {
		cfg, consumed = e.translateShapes()
	} else {
		cfg, consumed = e.memo.Map(e.memo.Key(e.trace), mapper.Options{
			Geom: e.opts.Geom,
			Lat:  fabric.DefaultLatencies(),
			Dead: e.translationMask(e.opts.Geom),
		})
	}
	if cfg == nil || consumed < mapper.MinOps || !e.profitable(cfg) {
		if e.refused == nil {
			e.refused = make(map[string]uint64)
		}
		e.refused[string(key)] = e.search.LadderProbes - probesBefore
		return
	}
	e.cache.Insert(e.memo.Keep(cfg))
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
// engine's memo, which hashes the trace once per scan; the returned
// winner is borrowed from it.
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
			Geom:   shape,
			Lat:    fabric.DefaultLatencies(),
			Dead:   e.translationMask(shape),
			Probes: &e.search.LadderProbes,
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
