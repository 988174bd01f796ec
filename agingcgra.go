// Package agingcgra is a full reproduction of "Proactive Aging Mitigation
// in CGRAs through Utilization-Aware Allocation" (Brandalero, Lignati,
// Beck, Shafique, Hübner — DAC 2020).
//
// The library contains everything the paper's evaluation rests on, built
// from scratch: an RV32IM subset with assembler and cycle-approximate GPP
// core (internal/isa, internal/gpp), the ten MiBench-style workloads
// (internal/prog), the TransRec CGRA fabric and its dynamic binary
// translation engine with configuration cache (internal/fabric,
// internal/mapper, internal/cfgcache, internal/dbt), the utilization-aware
// allocation strategies of Section III (internal/alloc, internal/core),
// and the NBTI aging, energy and area models of Section IV
// (internal/aging, internal/energy, internal/area).
//
// This root package is the user-facing facade: build a System, run
// workloads, and regenerate every figure and table of the paper through
// the Fig*/Table* experiment drivers.
package agingcgra

import (
	"fmt"

	"agingcgra/internal/aging"
	"agingcgra/internal/alloc"
	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/energy"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/lifetime"
	"agingcgra/internal/prog"
	recov "agingcgra/internal/recover"
	"agingcgra/internal/remap"
	"agingcgra/internal/trace"
)

// Re-exported building blocks, so downstream code can stay on the facade.
type (
	// Geometry is a CGRA fabric size (rows x columns).
	Geometry = fabric.Geometry
	// Cell identifies one FU position in a fabric.
	Cell = fabric.Cell
	// Allocator decides where configurations execute.
	Allocator = alloc.Allocator
	// Report is the detailed outcome of one TransRec run.
	Report = dbt.Report
	// SuiteResult aggregates a benchmark suite on one design.
	SuiteResult = dse.SuiteResult
	// Size selects workload input scale.
	Size = prog.Size
)

// Workload sizes.
const (
	Tiny  = prog.Tiny
	Small = prog.Small
	Large = prog.Large
)

// NewGeometry builds a fabric geometry with default provisioning.
func NewGeometry(rows, cols int) Geometry { return fabric.NewGeometry(rows, cols) }

// Benchmarks returns the names of the ten-benchmark suite in paper order.
func Benchmarks() []string { return prog.Names() }

// AllocatorNames lists the selectable allocation strategies.
func AllocatorNames() []string {
	return []string{
		"baseline",
		"utilization-aware",
		"utilization-aware-rowmajor",
		"utilization-aware-diagonal",
		"utilization-aware-horizontal",
		"utilization-aware-vertical",
		"utilization-aware-shuffled",
		"health-aware",
		"explore",
		"remap",
	}
}

// NewAllocator builds a named allocation strategy for a geometry.
func NewAllocator(name string, g Geometry) (Allocator, error) {
	switch name {
	case "", "baseline":
		return alloc.Baseline{}, nil
	case "utilization-aware", "proposed", "snake":
		return alloc.NewUtilizationAware(g), nil
	case "utilization-aware-rowmajor":
		return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.RowMajor{})), nil
	case "utilization-aware-diagonal":
		return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.Diagonal{})), nil
	case "utilization-aware-horizontal":
		return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.HorizontalOnly{})), nil
	case "utilization-aware-vertical":
		return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.VerticalOnly{})), nil
	case "utilization-aware-shuffled":
		return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.Shuffled{})), nil
	case "health-aware":
		return alloc.NewHealthAware(g, 16), nil
	case "explore", "wear-aware", "explorer":
		return explore.New(g), nil
	case "remap", "shape-adaptive":
		return remap.New(g), nil
	}
	return nil, fmt.Errorf("agingcgra: unknown allocator %q (want one of %v)", name, AllocatorNames())
}

// Config describes a TransRec system instance.
type Config struct {
	// Rows and Cols size the fabric (default: the BE scenario, 2x16).
	Rows, Cols int
	// Allocator names the allocation strategy (default "baseline").
	Allocator string
}

// System is a configured TransRec instance ready to run workloads.
type System struct {
	geom      Geometry
	allocName string
	// refs memoizes the stand-alone GPP reference runs and retire streams:
	// both are pure functions of (benchmark, size), so repeated
	// RunBenchmark calls interpret each program once.
	refs *dse.RefCache
}

// NewSystem validates the configuration and builds a system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Rows == 0 {
		cfg.Rows = 2
	}
	if cfg.Cols == 0 {
		cfg.Cols = 16
	}
	g := fabric.NewGeometry(cfg.Rows, cfg.Cols)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if _, err := NewAllocator(cfg.Allocator, g); err != nil {
		return nil, err
	}
	return &System{geom: g, allocName: cfg.Allocator, refs: dse.NewRefCache()}, nil
}

// Geometry returns the system's fabric geometry.
func (s *System) Geometry() Geometry { return s.geom }

// RunResult is the outcome of running one benchmark on a System.
type RunResult struct {
	// Benchmark is the workload name.
	Benchmark string
	// Checksum is the architectural result (also validated internally).
	Checksum uint32
	// GPPCycles is the stand-alone GPP reference time.
	GPPCycles uint64
	// Report is the detailed TransRec outcome.
	Report *Report
	// RelEnergy is TransRec energy relative to the stand-alone GPP.
	RelEnergy float64
}

// Speedup returns GPP cycles / TransRec cycles.
func (r *RunResult) Speedup() float64 {
	if r.Report.TotalCycles == 0 {
		return 0
	}
	return float64(r.GPPCycles) / float64(r.Report.TotalCycles)
}

// RunBenchmark co-simulates one named workload at the given input scale.
// The program is interpreted, and its architectural result validated
// against the Go reference, once per (benchmark, size); every call replays
// that recorded retire stream.
func (s *System) RunBenchmark(name string, size Size) (*RunResult, error) {
	b, ok := prog.ByName(name)
	if !ok {
		return nil, fmt.Errorf("agingcgra: unknown benchmark %q (want one of %v)", name, prog.Names())
	}

	ref, err := s.refs.Get(b, size, gpp.DefaultTiming())
	if err != nil {
		return nil, err
	}
	allocator, err := NewAllocator(s.allocName, s.geom)
	if err != nil {
		return nil, err
	}
	eng, err := dbt.NewEngine(dbt.Options{Geom: s.geom, Allocator: allocator})
	if err != nil {
		return nil, err
	}
	rep, err := eng.RunStream(ref.Stream)
	if err != nil {
		return nil, err
	}
	model := energy.Calibrated()
	return &RunResult{
		Benchmark: name,
		Checksum:  ref.Checksum,
		GPPCycles: ref.Cycles,
		Report:    rep,
		RelEnergy: model.Relative(rep, ref.Cycles, ref.Classes),
	}, nil
}

// Lifetime simulation: the multi-year epoch loop of internal/lifetime,
// surfaced with allocators selected by name.
type (
	// LifetimeResult is the timeline of one long-horizon simulation.
	LifetimeResult = lifetime.Result
	// LifetimeRecord is one epoch of a lifetime timeline.
	LifetimeRecord = lifetime.EpochRecord
	// FaultModel maps consumed lifetime to intermittent-fault probability.
	FaultModel = lifetime.FaultModel
	// RecoveryPolicy is the detection/quarantine/recovery knob set.
	RecoveryPolicy = recov.Policy
	// RecoveryReport summarises a recovery-enabled lifetime run.
	RecoveryReport = lifetime.RecoveryReport
	// TraceEvent is one observability record of a traced lifetime run.
	TraceEvent = trace.Event
	// TraceSink receives a traced run's event stream.
	TraceSink = trace.Sink
	// TraceRecorder is a TraceSink collecting events in emission order.
	TraceRecorder = trace.Recorder
)

// LifetimePhase is one segment of a time-varying operating-point profile:
// the phase's temperature/Vdd hold until UntilYears of simulated age
// (zero fields keep the model's calibration corner, like
// LifetimeConfig.TemperatureK/Vdd).
type LifetimePhase struct {
	UntilYears   float64 `json:"until_years"`
	TemperatureK float64 `json:"temperature_k,omitempty"`
	Vdd          float64 `json:"vdd,omitempty"`
}

// LifetimeConfig describes one lifetime scenario with the allocator chosen
// by name; zero values select the BE design under the paper's calibration.
// Its JSON form is the lifetime service's scenario request body, so a field
// added here reaches HTTP and the service's fingerprints with no copy.
// InitialDead and Trace are library-only and never decoded from a request.
type LifetimeConfig struct {
	// Name labels the scenario (default "<geom>/<allocator>").
	Name string `json:"name,omitempty"`
	// Rows and Cols size the fabric (default 2x16, the BE design).
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Allocator names the allocation strategy (default "baseline").
	Allocator string `json:"allocator,omitempty"`
	// Benchmarks is the per-epoch workload mix (default: the full suite);
	// a name may repeat to weight it.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Size is the workload input scale (default Tiny); JSON carries its
	// name: "tiny", "small" or "large".
	Size Size `json:"size,omitempty"`
	// EpochYears is the simulation step (default 0.5).
	EpochYears float64 `json:"epoch_years,omitempty"`
	// MaxYears is the simulated horizon (default 15).
	MaxYears float64 `json:"max_years,omitempty"`
	// TemperatureK and Vdd override the operating point (0 keeps the
	// model's calibration corner); hotter or higher-voltage parts age
	// faster by Eq. 1's acceleration factor. Ignored when Profile is set.
	TemperatureK float64 `json:"temperature_k,omitempty"`
	Vdd          float64 `json:"vdd,omitempty"`
	// Profile optionally varies the operating point over time: each phase
	// holds until its UntilYears of simulated age, and the last phase
	// extends to the horizon. The fleet service draws device profiles from
	// weighted distributions over these.
	Profile []LifetimePhase `json:"profile,omitempty"`
	// DeadPattern names a clustered-failure layout injected before the
	// first epoch: "column[:c]", "columns:c1+c2", "quadrant",
	// "checkerboard[:p]", "survivor-row[:r]" or "healthy" (see
	// fabric.PatternCells). InitialDead adds explicit cells on top.
	DeadPattern string `json:"dead_pattern,omitempty"`
	InitialDead []Cell `json:"-"`
	// StaleTranslations models a DBT whose translation memory predates the
	// failures: configurations are mapped for the pristine fabric and only
	// placement respects the health map. This is the regime where clustered
	// failures drive translation-only allocators to the GPP and the "remap"
	// allocator keeps the kernel on-fabric by re-mapping shapes.
	StaleTranslations bool `json:"stale_translations,omitempty"`
	// ShapeTranslations enables translation-time shape search: the DBT
	// maps each hot trace over the candidate shape ladder against current
	// health and wear instead of only the identity full-fabric shape, and
	// the translation cache is keyed on the (health, wear) versions the
	// shape decisions were taken under. Mutually exclusive with
	// StaleTranslations.
	ShapeTranslations bool `json:"shape_translations,omitempty"`
	// ShapeLadder names the candidate shape ladder ("halving", "full-only",
	// "columns", "rows", "fine"; empty: halving) shared by the
	// translation-time search and the remap allocator's rescue scan.
	ShapeLadder string `json:"shape_ladder,omitempty"`
	// Seed seeds the scenario's deterministic fault-injection PRNG
	// (default 1; an explicit zero also selects the default).
	Seed uint64 `json:"seed,omitempty"`
	// Faults enables wear-dependent intermittent fault injection; requires
	// Recovery, since injecting faults with no detection layer would
	// corrupt results invisibly.
	Faults *FaultModel `json:"faults,omitempty"`
	// Recovery enables the detection/quarantine/recovery layer: placement
	// consumes the runtime's observed health map instead of the oracle, and
	// the result carries a RecoveryReport.
	Recovery *RecoveryPolicy `json:"recovery,omitempty"`
	// Trace receives the run's observability event stream (epoch
	// summaries, deaths, fault/quarantine activity, remap rescues, GPP
	// fallbacks, per-FU duty/wear snapshots). Nil disables tracing;
	// tracing is observation-only and never changes the result.
	Trace TraceSink `json:"-"`
}

// lifetimeRefs memoizes the stand-alone GPP reference runs across every
// facade-level lifetime entry point. The reference is a pure function of
// (benchmark, size, timing) — independent of geometry, allocator, health
// and wear — so one process-wide cache lets a baseline/snake/explore
// comparison (and any warm-up run before it) pay for each reference exactly
// once instead of once per allocator.
var lifetimeRefs = dse.NewRefCache()

// Scenario resolves the configuration into the internal lifetime.Scenario
// it denotes: names validated and bound (allocator, pattern, ladder,
// benchmarks), the operating point or phase profile built against the
// model's calibration corner, and the process-wide GPP-reference memo
// attached. It is the seam the lifetime service builds on — resolve once,
// then attach cross-request shared state (Scenario.Refs, EpochMemo,
// Fingerprint) before lifetime.Run.
func (c LifetimeConfig) Scenario() (lifetime.Scenario, error) {
	rows, cols := c.Rows, c.Cols
	if rows == 0 {
		rows = 2
	}
	if cols == 0 {
		cols = 16
	}
	g := fabric.NewGeometry(rows, cols)
	if err := g.Validate(); err != nil {
		return lifetime.Scenario{}, err
	}
	if _, err := NewAllocator(c.Allocator, g); err != nil {
		return lifetime.Scenario{}, err
	}
	if c.ShapeTranslations && c.StaleTranslations {
		return lifetime.Scenario{}, fmt.Errorf(
			"agingcgra: ShapeTranslations and StaleTranslations are mutually exclusive")
	}
	ladder, err := fabric.ShapeLadderByName(c.ShapeLadder)
	if err != nil {
		return lifetime.Scenario{}, err
	}
	if c.ShapeLadder != "" && !c.ShapeTranslations &&
		c.Allocator != "remap" && c.Allocator != "shape-adaptive" {
		// Nothing in this configuration walks a ladder: silently ignoring
		// the name would mislabel the results as a ladder sweep.
		return lifetime.Scenario{}, fmt.Errorf(
			"agingcgra: ShapeLadder %q has no effect without ShapeTranslations or the remap allocator", c.ShapeLadder)
	}
	allocName := c.Allocator
	factory := func(g fabric.Geometry) alloc.Allocator {
		a, err := NewAllocator(allocName, g)
		if err != nil {
			a = alloc.Baseline{}
		}
		return a
	}
	if c.ShapeLadder != "" && (allocName == "remap" || allocName == "shape-adaptive") {
		// Keep the allocation-time rescue searching the same ladder the
		// translation-time search walks.
		factory = dse.LadderRemapFactory(ladder)
	}
	calib := aging.NewModel().Cond
	cond := calib
	if c.TemperatureK > 0 {
		cond.TemperatureK = c.TemperatureK
	}
	if c.Vdd > 0 {
		cond.Vdd = c.Vdd
	}
	if err := cond.Validate(); err != nil {
		return lifetime.Scenario{}, err
	}
	var profile []lifetime.Phase
	for i, p := range c.Profile {
		pc := calib
		if p.TemperatureK > 0 {
			pc.TemperatureK = p.TemperatureK
		}
		if p.Vdd > 0 {
			pc.Vdd = p.Vdd
		}
		if err := pc.Validate(); err != nil {
			return lifetime.Scenario{}, fmt.Errorf("agingcgra: profile phase %d: %w", i, err)
		}
		if i > 0 && p.UntilYears < c.Profile[i-1].UntilYears {
			return lifetime.Scenario{}, fmt.Errorf(
				"agingcgra: profile phase %d ends at %.3g years, before phase %d", i, p.UntilYears, i-1)
		}
		profile = append(profile, lifetime.Phase{UntilYears: p.UntilYears, Cond: pc})
	}
	dead := append([]fabric.Cell(nil), c.InitialDead...)
	if c.DeadPattern != "" {
		cells, err := fabric.PatternCells(c.DeadPattern, g)
		if err != nil {
			return lifetime.Scenario{}, err
		}
		dead = append(dead, cells...)
	}
	sc := lifetime.Scenario{
		Name:        c.Name,
		Geom:        g,
		Factory:     factory,
		Mix:         c.Benchmarks,
		Size:        c.Size,
		EpochYears:  c.EpochYears,
		MaxYears:    c.MaxYears,
		Cond:        cond,
		Profile:     profile,
		InitialDead: dead,
		Refs:        lifetimeRefs,
		Seed:        c.Seed,
		FaultModel:  c.Faults,
		Recovery:    c.Recovery,
		Trace:       c.Trace,
	}
	sc.Engine.StaleTranslations = c.StaleTranslations
	sc.Engine.ShapeTranslations = c.ShapeTranslations
	if c.ShapeTranslations {
		sc.Engine.Ladder = ladder
	}
	return sc, nil
}

// RunLifetime simulates one lifetime scenario to its horizon.
func RunLifetime(c LifetimeConfig) (*LifetimeResult, error) {
	sc, err := c.Scenario()
	if err != nil {
		return nil, err
	}
	return lifetime.Run(sc)
}

// RunLifetimes simulates a batch of scenarios over a worker pool (workers
// <= 0 selects runtime.GOMAXPROCS, 1 forces the serial path). Results are ordered by
// scenario index and byte-identical between serial and parallel runs.
func RunLifetimes(cs []LifetimeConfig, workers int) ([]*LifetimeResult, error) {
	scs := make([]lifetime.Scenario, len(cs))
	for i, c := range cs {
		sc, err := c.Scenario()
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return lifetime.RunScenarios(scs, workers)
}

// RunSuite executes the whole benchmark suite on this system's design,
// accumulating stress on one shared fabric.
func (s *System) RunSuite(size Size) (*SuiteResult, error) {
	factory := func(g fabric.Geometry) alloc.Allocator {
		a, err := NewAllocator(s.allocName, g)
		if err != nil {
			a = alloc.Baseline{}
		}
		return a
	}
	return dse.RunSuite(s.geom, factory, dse.Options{Size: size, Refs: s.refs})
}
