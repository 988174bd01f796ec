package dbt

import (
	"reflect"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/cfgcache"
	"agingcgra/internal/core"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
	"agingcgra/internal/remap"
)

// naiveEngine is an independent reference implementation of the TransRec
// co-simulation, transcribed from the original (pre-optimization) engine:
// per-instruction map probes through the plain cfgcache API, per-op replay
// accounting, and switch-dispatched timing attribution. The optimized
// Engine must produce bit-identical Reports against it on every workload.
type naiveEngine struct {
	opts  Options
	cache *cfgcache.Cache
	ctrl  *core.Controller

	// health (Options.Health) masks the mapper and the controller's
	// placement. unplaceable mirrors the real engine's memo of
	// configurations with no live placement: it spares allocator proposals,
	// so it is modelled behaviour, not a simulator shortcut.
	health         *fabric.Health
	unplaceable    map[uint32]bool
	unplaceableKey fabric.StateKey

	trace []mapper.TraceEntry

	residentPC  uint32
	residentOff fabric.Offset
	hasResident bool

	rep Report
}

func newNaiveEngine(opts Options) (*naiveEngine, error) {
	opts.applyDefaults()
	if err := opts.Geom.Validate(); err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(opts.Geom, opts.Allocator)
	if err != nil {
		return nil, err
	}
	if opts.Health != nil {
		ctrl.SetHealth(opts.Health)
	}
	return &naiveEngine{
		opts:   opts,
		ctrl:   ctrl,
		health: opts.Health,
	}, nil
}

func (e *naiveEngine) run(c *gpp.Core, limit uint64) (*Report, error) {
	p := c.Program()
	e.cache = cfgcache.New(cacheCapacity, p.TextBase, len(p.Text))
	for !c.Halted() {
		if c.RetiredCount() >= limit {
			return nil, errLimit
		}
		if cfg, ok := e.cache.Lookup(c.PC); ok {
			e.finalizeTrace()
			if err := e.offload(c, cfg); err != nil {
				return nil, err
			}
			continue
		}
		r, err := e.stepGPP(c)
		if err != nil {
			return nil, err
		}
		e.observe(r)
	}
	e.finalizeTrace()
	e.rep.Geom = e.opts.Geom
	e.rep.AllocatorName = e.ctrl.Allocator().Name()
	e.rep.TotalCycles = e.rep.GPPCycles + e.rep.CGRACycles
	e.rep.TotalInstrs = e.rep.GPPInstrs + e.rep.CGRAInstrs
	e.rep.Cache = e.cache.Stats()
	e.rep.Util = e.ctrl.Utilization()
	rep := e.rep
	return &rep, nil
}

var errLimit = &limitError{}

type limitError struct{}

func (*limitError) Error() string { return "naive: instruction limit reached" }

func (e *naiveEngine) stepGPP(c *gpp.Core) (gpp.Retire, error) {
	r, err := c.Step()
	if err != nil {
		return r, err
	}
	e.rep.GPPCycles += e.opts.Timing.CyclesFor(r.Inst, r.Taken)
	e.rep.GPPInstrs++
	e.rep.GPPClasses[r.Inst.Op.Class()]++
	return r, nil
}

func (e *naiveEngine) offload(c *gpp.Core, cfg *fabric.Config) error {
	if k := fabric.KeyOf(e.health, nil, nil); k != e.unplaceableKey {
		e.unplaceable, e.unplaceableKey = nil, k
	}
	off, ok := fabric.Offset{}, !e.unplaceable[cfg.StartPC]
	if ok {
		off, ok = e.ctrl.Place(cfg)
	}
	if !ok {
		// No live placement: the step retires on the GPP without
		// re-engaging the trace builder (the region is translated).
		if e.unplaceable == nil {
			e.unplaceable = make(map[uint32]bool)
		}
		e.unplaceable[cfg.StartPC] = true
		e.rep.GPPFallbacks++
		_, err := e.stepGPP(c)
		return err
	}

	exitSeq := cfg.Ops[0].Seq
	early := false
	for _, op := range cfg.Ops {
		if c.PC != op.PC {
			early = true
			break
		}
		r, err := c.Step()
		if err != nil {
			return err
		}
		e.rep.CGRAInstrs++
		e.rep.CGRAClasses[op.Inst.Op.Class()]++
		exitSeq = op.Seq
		if op.Inst.IsBranch() && r.Taken != op.Taken {
			early = true
			break
		}
	}

	execCycles := cfg.ExecCyclesTo(exitSeq)
	overhead := offloadOverhead
	var reconfig uint64
	if !e.hasResident || e.residentPC != cfg.StartPC || e.residentOff != off {
		e.residentPC, e.residentOff, e.hasResident = cfg.StartPC, off, true
		e.rep.ReconfigEvents++
	}
	duration := overhead + reconfig + execCycles
	e.ctrl.Commit(cfg, off, duration)

	e.rep.StressSum += uint64(len(cfg.Cells())) * duration
	e.rep.CGRACycles += duration
	e.rep.OverheadCycles += overhead
	e.rep.Offloads++
	if early {
		e.rep.EarlyExits++
	}
	return nil
}

func (e *naiveEngine) observe(r gpp.Retire) {
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

func (e *naiveEngine) finalizeTrace() {
	if len(e.trace) < mapper.MinOps {
		e.trace = e.trace[:0]
		return
	}
	cfg, consumed := mapper.Map(e.trace, mapper.Options{
		Geom: e.opts.Geom,
		Lat:  fabric.DefaultLatencies(),
		Dead: e.health.Mask(),
	})
	e.trace = e.trace[:0]
	if cfg == nil || consumed < mapper.MinOps {
		return
	}
	var gppCycles uint64
	for _, op := range cfg.Ops {
		gppCycles += e.opts.Timing.CyclesFor(op.Inst, op.Taken)
	}
	if offloadOverhead+cfg.ExecCycles() >= gppCycles {
		return
	}
	e.cache.Insert(cfg)
	e.rep.Translations++
}

// TestEngineMatchesNaiveReference asserts that the optimized Engine (dense
// translation table, guided replay, batched prefix accounting, precomputed
// timing tables, the refused-translation memo) produces a Report identical
// in every field — cycle and instruction counters, class vectors, cache
// statistics and the utilization map — to the naive reference
// implementation, across workloads, allocators and degraded fabrics. The
// reference re-maps every captured trace, so the degraded cases (where
// traces get refused) pin the memo to the behaviour it replaces.
func TestEngineMatchesNaiveReference(t *testing.T) {
	workloads := []string{"crc32", "bitcount", "stringsearch"}
	allocators := []struct {
		name    string
		factory func(fabric.Geometry) alloc.Allocator
	}{
		{"baseline", func(fabric.Geometry) alloc.Allocator { return alloc.Baseline{} }},
		{"utilization-aware", func(g fabric.Geometry) alloc.Allocator { return alloc.NewUtilizationAware(g) }},
	}
	geom := fabric.NewGeometry(2, 16)
	// The healthy case keeps the bare workload/allocator subtest name. The
	// last three leave so few live pivots that most retires run on the GPP:
	// refused-trace repeats, unplaceable fallbacks and traces cut at
	// maxTraceLen.
	patterns := []string{"", "column:5", "columns:0+8", "quadrant", "checkerboard", "survivor-row"}

	for _, name := range workloads {
		b, ok := prog.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		for _, al := range allocators {
			for _, pattern := range patterns {
				sub := name + "/" + al.name
				if pattern != "" {
					sub += "@" + pattern
				}
				t.Run(sub, func(t *testing.T) {
					options := func() Options {
						o := Options{Geom: geom, Allocator: al.factory(geom)}
						if pattern != "" {
							cells, err := fabric.PatternCells(pattern, geom)
							if err != nil {
								t.Fatal(err)
							}
							if o.Health, err = fabric.NewHealthWithDead(geom, cells); err != nil {
								t.Fatal(err)
							}
						}
						return o
					}
					cNaive, err := b.NewCore(prog.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newNaiveEngine(options())
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.run(cNaive, b.MaxInstructions)
					if err != nil {
						t.Fatal(err)
					}

					cOpt, err := b.NewCore(prog.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := NewEngine(options())
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.Run(cOpt, b.MaxInstructions)
					if err != nil {
						t.Fatal(err)
					}

					if !reflect.DeepEqual(want, got) {
						t.Errorf("optimized report diverges from naive reference\nnaive: %+v\n  opt: %+v", want, got)
					}
					if cNaive.Regs != cOpt.Regs {
						t.Errorf("architectural register state diverges")
					}
				})
			}
		}
	}
}

// TestShapeEquivalentArchitecturalState is the engine-level half of the
// architectural-equivalence layer behind the shape-adaptive remapper and
// the translation-time shape search: for every kernel in the suite,
// co-simulating on reshaped fabrics (2×16, 4×8, 8×4, 16×2 — the same 32
// FUs in different rectangles) under the remap allocator yields
// byte-identical architectural state in the Report and the core — the same
// retired-instruction total and the same final register file, with the
// golden checksum intact — and the same holds when the DBT itself chooses
// the shape per translation (ShapeTranslations walking the candidate
// ladder). Shapes redistribute ops in space and change only the
// performance numbers; any divergence here means a mapping leaked into
// architectural behaviour and reshaping (at either layer) would be
// unsound.
func TestShapeEquivalentArchitecturalState(t *testing.T) {
	geoms := []fabric.Geometry{
		fabric.NewGeometry(2, 16),
		fabric.NewGeometry(4, 8),
		fabric.NewGeometry(8, 4),
		fabric.NewGeometry(16, 2),
	}
	modes := []struct {
		name   string
		shaped bool
	}{
		{"identity-translation", false},
		{"dbt-chosen-shapes", true},
	}
	for _, name := range prog.Names() {
		t.Run(name, func(t *testing.T) {
			b, ok := prog.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			type outcome struct {
				geom   fabric.Geometry
				mode   string
				regs   [isa.NumRegs]uint32
				instrs uint64
			}
			var first *outcome
			for _, mode := range modes {
				for _, g := range geoms {
					c, err := b.NewCore(prog.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := NewEngine(Options{
						Geom:              g,
						Allocator:         remap.New(g),
						ShapeTranslations: mode.shaped,
					})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := eng.Run(c, b.MaxInstructions)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
						t.Fatalf("%v/%s: wrong architectural result: %v", g, mode.name, err)
					}
					got := &outcome{geom: g, mode: mode.name, regs: c.Regs, instrs: rep.TotalInstrs}
					if first == nil {
						first = got
						continue
					}
					if got.regs != first.regs {
						t.Errorf("register file diverges between %v/%s and %v/%s",
							first.geom, first.mode, g, mode.name)
					}
					if got.instrs != first.instrs {
						t.Errorf("retired instructions diverge: %v/%s ran %d, %v/%s ran %d",
							first.geom, first.mode, first.instrs, g, mode.name, got.instrs)
					}
				}
			}
		})
	}
}
