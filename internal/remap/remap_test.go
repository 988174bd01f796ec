package remap

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/core"
	"agingcgra/internal/dbt"
	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
	"agingcgra/internal/searchcost"
)

func alu(pc uint32, rd, rs1, rs2 isa.Reg) mapper.TraceEntry {
	return mapper.TraceEntry{PC: pc, Inst: isa.Inst{Op: isa.ADD, Rd: rd, Rs1: rs1, Rs2: rs2}}
}

func lw(pc uint32, rd, rs1 isa.Reg) mapper.TraceEntry {
	return mapper.TraceEntry{PC: pc, Inst: isa.Inst{Op: isa.LW, Rd: rd, Rs1: rs1}}
}

// independentALUs builds n data-independent single-column ops: the greedy
// mapper packs them row-first, column by column, filling the fabric.
func independentALUs(n int) []mapper.TraceEntry {
	out := make([]mapper.TraceEntry, n)
	for i := range out {
		out[i] = alu(0x1000+uint32(4*i), isa.T0, isa.A0, isa.A1)
	}
	return out
}

// dependentALUs builds an n-op dependence chain: strictly increasing
// columns, so the chain length bounds the shapes it fits.
func dependentALUs(n int) []mapper.TraceEntry {
	out := make([]mapper.TraceEntry, n)
	prev := isa.A0
	for i := range out {
		rd := isa.T0
		if i%2 == 1 {
			rd = isa.T1
		}
		out[i] = alu(0x1000+uint32(4*i), rd, prev, isa.A1)
		prev = rd
	}
	return out
}

// loads builds n independent loads: width-4 ops that need four consecutive
// live cells in one row wherever they go.
func loads(n int) []mapper.TraceEntry {
	out := make([]mapper.TraceEntry, n)
	for i := range out {
		out[i] = lw(0x1000+uint32(4*i), isa.T0, isa.A0)
	}
	return out
}

// mapHealthy places a trace on the pristine fabric, as the DBT would have
// translated it before any failure.
func mapHealthy(t *testing.T, trace []mapper.TraceEntry, g fabric.Geometry) *fabric.Config {
	t.Helper()
	cfg, n := mapper.Map(trace, mapper.Options{Geom: g, Lat: fabric.DefaultLatencies()})
	if cfg == nil || n != len(trace) {
		t.Fatalf("healthy mapping consumed %d/%d ops", n, len(trace))
	}
	return cfg
}

// physCellsLive checks every cell cfg occupies under off against the health
// map.
func physCellsLive(h *fabric.Health, cfg *fabric.Config, off fabric.Offset, g fabric.Geometry) bool {
	for _, c := range cfg.Cells() {
		if h.Dead(off.Apply(c, g)) {
			return false
		}
	}
	return true
}

// TestClusteredFailures is the table-driven pin of the tentpole behaviour:
// for each clustered-failure pattern, a configuration translated on the
// healthy fabric has no live pivot (the skip-scan path must fall back to
// the GPP), while the shape search finds a live placement holding the
// longest feasible prefix — and reports failure only when no placement of
// any shape exists.
func TestClusteredFailures(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cases := []struct {
		name  string
		trace []mapper.TraceEntry
		dead  []fabric.Cell
		// wantOps is the longest prefix any placement can hold (0 = no
		// placement exists and RemapConfig must fail).
		wantOps int
	}{
		// 32 independent ops fill every cell; one dead column blocks every
		// pivot, but 30 live cells still hold a 30-op prefix.
		{"dead-column/full-fabric", independentALUs(32), fabric.DeadColumnCells(g, 5), 30},
		// The dead quadrant (row 0, columns 0-7) leaves 24 live cells.
		{"dead-quadrant/full-fabric", independentALUs(32), fabric.DeadQuadrantCells(g), 24},
		// Checkerboard: half the cells survive, none adjacent; single-column
		// ops flow around, 16 fit.
		{"checkerboard/alu", independentALUs(32), fabric.CheckerboardCells(g, 0), 16},
		// A 16-op dependence chain needs 16 strictly increasing columns; a
		// dead column caps any placement at 15 ops.
		{"dead-column/chain", dependentALUs(16), fabric.DeadColumnCells(g, 7), 15},
		// Everything dead but row 1: the two-row healthy footprint never
		// fits, the survivor row holds all eight ops.
		{"survivor-row/two-row-config", independentALUs(8), fabric.SurvivorRowCells(g, 1), 8},
		// Width-4 loads need four consecutive live cells in a row; the
		// checkerboard has none, so no placement of any shape exists.
		{"checkerboard/loads", loads(4), fabric.CheckerboardCells(g, 0), 0},
		// Nothing survives at all.
		{"fully-dead", independentALUs(8), fabric.CheckerboardCells(g, 0), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mapHealthy(t, tc.trace, g)
			dead := tc.dead
			if tc.name == "fully-dead" {
				dead = append(fabric.CheckerboardCells(g, 0), fabric.CheckerboardCells(g, 1)...)
			}
			h, err := fabric.NewHealthWithDead(g, dead)
			if err != nil {
				t.Fatal(err)
			}

			// The translation-only path: the snake skip-scan must find no
			// live pivot for the healthy-shaped rectangle.
			ctrl, err := core.NewController(g, alloc.NewUtilizationAware(g))
			if err != nil {
				t.Fatal(err)
			}
			ctrl.SetHealth(h)
			if _, ok := ctrl.Place(cfg); ok {
				t.Fatalf("skip-scan placed the healthy-shaped config despite the %s cluster", tc.name)
			}

			m := New(g, WithMinOps(1))
			m.SetHealth(h)
			m.SetWear(fabric.NewWear(g))
			mapped, off, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
			if tc.wantOps == 0 {
				if ok {
					t.Fatalf("RemapConfig found a placement where none exists: %d ops at %v", len(mapped.Ops), off)
				}
				return
			}
			if !ok {
				t.Fatalf("RemapConfig found no placement; want a %d-op prefix", tc.wantOps)
			}
			if len(mapped.Ops) != tc.wantOps {
				t.Errorf("remapped prefix holds %d ops, want %d", len(mapped.Ops), tc.wantOps)
			}
			if !physCellsLive(h, mapped, off, g) {
				t.Errorf("remapped placement drives a dead FU")
			}
			if err := mapped.Validate(); err != nil {
				t.Errorf("remapped config invalid: %v", err)
			}
			// The prefix replays the original sequence: same PCs, same
			// expected directions, op for op.
			opcs, odirs := cfg.ReplayTables()
			mpcs, mdirs := mapped.ReplayTables()
			if !reflect.DeepEqual(opcs[:len(mpcs)], mpcs) || !reflect.DeepEqual(odirs[:len(mdirs)], mdirs) {
				t.Errorf("remapped replay tables diverge from the original prefix")
			}
		})
	}
}

// TestReshapeArchitecturalEquivalence is the property test behind the
// equivalence layer: for every kernel in the suite, every configuration the
// DBT translates, reshaped to every candidate shape on a healthy fabric,
// replays the identical instruction sequence — byte-identical replay
// tables and per-class op counts — whenever the shape holds the full
// sequence (e.g. 2×16 vs 1×16 vs 2×8). Shapes only redistribute ops in
// space; the architectural contract never changes.
func TestReshapeArchitecturalEquivalence(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	for _, name := range prog.Names() {
		t.Run(name, func(t *testing.T) {
			b, ok := prog.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			c, err := b.NewCore(prog.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := dbt.NewEngine(dbt.Options{Geom: g})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(c, b.MaxInstructions); err != nil {
				t.Fatal(err)
			}
			cfgs := eng.Cache().Configs()
			if len(cfgs) == 0 {
				t.Skipf("%s translates no configuration at tiny scale", name)
			}
			full := 0
			for _, cfg := range cfgs {
				for _, shape := range CandidateShapes(g) {
					mc, n := Reshape(cfg, shape, fabric.Offset{}, g, nil, fabric.DefaultLatencies())
					if mc == nil || n < len(cfg.Ops) {
						continue // the narrower shape cannot hold the sequence
					}
					full++
					opcs, odirs := cfg.ReplayTables()
					mpcs, mdirs := mc.ReplayTables()
					if !reflect.DeepEqual(opcs, mpcs) || !reflect.DeepEqual(odirs, mdirs) {
						t.Fatalf("cfg %#x reshaped to %v: replay tables diverge", cfg.StartPC, shape)
					}
					for k := 0; k <= len(cfg.Ops); k++ {
						if cfg.ClassCountsFirst(k) != mc.ClassCountsFirst(k) {
							t.Fatalf("cfg %#x reshaped to %v: class counts diverge at prefix %d", cfg.StartPC, shape, k)
						}
					}
					if err := mc.Validate(); err != nil {
						t.Fatalf("cfg %#x reshaped to %v: %v", cfg.StartPC, shape, err)
					}
					for _, cell := range mc.Cells() {
						if cell.Row >= shape.Rows || cell.Col >= shape.Cols {
							t.Fatalf("cfg %#x reshaped to %v: cell %v outside shape", cfg.StartPC, shape, cell)
						}
					}
				}
			}
			if full == 0 {
				t.Errorf("%s: no (config, shape) pair held the full sequence — property vacuous", name)
			}
		})
	}
}

// TestTraceRoundTrip pins that a configuration re-mapped at its own shape
// on a healthy fabric reproduces the original placement exactly: the
// reconstructed trace carries everything the mapper saw.
func TestTraceRoundTrip(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, dependentALUs(12), g)
	mc, n := Reshape(cfg, g, fabric.Offset{}, g, nil, fabric.DefaultLatencies())
	if mc == nil || n != len(cfg.Ops) {
		t.Fatalf("round-trip consumed %d/%d", n, len(cfg.Ops))
	}
	if !reflect.DeepEqual(cfg.Ops, mc.Ops) {
		t.Errorf("round-trip placement diverges:\n%+v\n%+v", cfg.Ops, mc.Ops)
	}
}

// TestRemapCacheKeying pins the shape-cache invalidation contract: results
// are reused while the (health, wear) versions stand still and re-searched
// as soon as either moves — a death changes which placements exist, a wear
// advance changes which one the scoring prefers.
func TestRemapCacheKeying(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, independentALUs(32), g)
	h, err := fabric.NewHealthWithDead(g, fabric.DeadColumnCells(g, 5))
	if err != nil {
		t.Fatal(err)
	}
	w := fabric.NewWear(g)
	m := New(g)
	m.SetHealth(h)
	m.SetWear(w)

	if _, _, ok := m.RemapConfig(cfg, fabric.Offset{}, false); !ok {
		t.Fatal("remap failed on a dead column")
	}
	a1, _, _ := m.RemapConfig(cfg, fabric.Offset{}, false)
	if st := m.RemapStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after repeat = %+v, want 1 hit / 1 miss", st)
	}

	// A wear advance must re-rank (possibly re-choosing the anchor).
	w.Add(fabric.Cell{Row: 0, Col: 0}, 1.5)
	m.RemapConfig(cfg, fabric.Offset{}, false)
	if st := m.RemapStats(); st.Misses != 2 || st.Flushes != 1 {
		t.Fatalf("stats after wear advance = %+v, want a flush and a re-search", st)
	}

	// A further death must re-search against the new health.
	h.Kill(fabric.Cell{Row: 0, Col: 9})
	a2, _, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
	if !ok {
		t.Fatal("remap failed after one more death")
	}
	if st := m.RemapStats(); st.Misses != 3 || st.Flushes != 2 {
		t.Fatalf("stats after kill = %+v, want another flush and re-search", st)
	}
	if len(a2.Ops) >= len(a1.Ops) {
		t.Errorf("prefix grew from %d to %d ops after losing a cell", len(a1.Ops), len(a2.Ops))
	}
}

// TestWearSteersAnchor pins the explore-composition: among equally long
// placements the remapper picks the one whose worst cell has the least
// projected ΔVt, so piling wear onto one half of the fabric pushes the
// chosen anchor to the other half.
func TestWearSteersAnchor(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	// An 8-op two-row block: fits at many anchors once remapped.
	cfg := mapHealthy(t, independentALUs(8), g)
	// Kill one full column so the skip-scan fails for some pivot yet many
	// remap anchors remain. (The healthy 2×4 footprint misses most offsets
	// only when the dead column cuts them; use survivor pattern instead.)
	h, err := fabric.NewHealthWithDead(g, fabric.SurvivorRowCells(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	w := fabric.NewWear(g)
	// Row 1, columns 0-7 are heavily worn; columns 8-15 are fresh.
	for c := 0; c < 8; c++ {
		w.Add(fabric.Cell{Row: 1, Col: c}, 2)
	}
	m := New(g)
	m.SetHealth(h)
	m.SetWear(w)
	mapped, off, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
	if !ok {
		t.Fatal("remap failed on the survivor row")
	}
	for _, cell := range mapped.Cells() {
		p := off.Apply(cell, g)
		if p.Row != 1 {
			t.Fatalf("placed on dead row: %v", p)
		}
		if p.Col < 8 {
			t.Errorf("placed on worn column %d; wear scoring should prefer the fresh half", p.Col)
		}
	}
}

// TestEngineRemapKeepsKernelOnFabric is the engine-level pin: with stale
// translations (configs mapped before the failures) and everything dead but
// one row, the explorer-backed snake path offloads nothing while the remap
// allocator keeps the kernel on-fabric — with the architectural result
// identical to the reference.
func TestEngineRemapKeepsKernelOnFabric(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	run := func(factory func(fabric.Geometry) alloc.Allocator) *dbt.Report {
		h, err := fabric.NewHealthWithDead(g, fabric.SurvivorRowCells(g, 1))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := prog.ByName("crc32")
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := dbt.NewEngine(dbt.Options{
			Geom: g, Allocator: factory(g), Health: h, StaleTranslations: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(c, b.MaxInstructions)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
			t.Fatalf("wrong architectural result through the remap path: %v", err)
		}
		return rep
	}
	snake := run(func(g fabric.Geometry) alloc.Allocator { return alloc.NewUtilizationAware(g) })
	remapped := run(func(g fabric.Geometry) alloc.Allocator { return New(g) })

	if snake.Offloads != 0 {
		t.Errorf("snake offloaded %d times through a one-row fabric with stale translations; want 0", snake.Offloads)
	}
	if remapped.Offloads == 0 {
		t.Error("remap allocator fell back to the GPP; want the kernel on-fabric")
	}
	if remapped.TotalInstrs != snake.TotalInstrs {
		t.Errorf("instruction totals diverge: remap %d, snake %d", remapped.TotalInstrs, snake.TotalInstrs)
	}
	if remapped.TotalCycles >= snake.TotalCycles {
		t.Errorf("remap (%d cycles) should beat the full GPP fallback (%d cycles)",
			remapped.TotalCycles, snake.TotalCycles)
	}
}

// TestWearTriggerSubstitutesBetterShape pins the second remap trigger: even
// when the translated rectangle still has a live pivot, the remapper
// substitutes a full-sequence reshape whose worst cell projects strictly
// less wear — and keeps the translation when nothing scores better, so its
// worst projected wear never exceeds the translation-only choice.
func TestWearTriggerSubstitutesBetterShape(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	// Eight independent ops: a 2×4 block at the origin.
	cfg := mapHealthy(t, independentALUs(8), g)
	// One dead cell far away keeps the fabric degraded (the trigger is
	// armed) without constraining the 2×4 block.
	h, err := fabric.NewHealthWithDead(g, []fabric.Cell{{Row: 1, Col: 15}})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh wear: the translated placement at the origin is as good as any
	// reshape, so the translation must stand.
	m := New(g)
	m.SetHealth(h)
	m.SetWear(fabric.NewWear(g))
	got, off, ok := m.RemapConfig(cfg, fabric.Offset{}, true)
	if !ok || got != cfg || off != (fabric.Offset{}) {
		t.Fatalf("fresh fabric: RemapConfig = (%p, %v, %v), want the translation kept", got, off, ok)
	}

	// Pile wear onto row 0: every pivot of the two-row rectangle touches
	// row 0 somewhere, but a 1×8 reshape fits entirely into the fresh row 1.
	w := fabric.NewWear(g)
	for c := 0; c < g.Cols; c++ {
		w.Add(fabric.Cell{Row: 0, Col: c}, 2)
	}
	m2 := New(g)
	m2.SetHealth(h)
	m2.SetWear(w)
	got, off, ok = m2.RemapConfig(cfg, fabric.Offset{}, true)
	if !ok {
		t.Fatal("RemapConfig failed")
	}
	if got == cfg {
		t.Fatal("translation kept although a one-row reshape avoids the worn row entirely")
	}
	if len(got.Ops) != len(cfg.Ops) {
		t.Fatalf("wear trigger substituted a partial prefix: %d/%d ops", len(got.Ops), len(cfg.Ops))
	}
	for _, cell := range got.Cells() {
		p := off.Apply(cell, g)
		if p.Row != 1 {
			t.Errorf("substituted placement touches worn row 0 at %v", p)
		}
	}
	if s1, s0 := m2.Explorer().Score(got, off), m2.Explorer().Score(cfg, fabric.Offset{}); s1 >= s0 {
		t.Errorf("substitute scores %v, not below the translation's %v", s1, s0)
	}
}

// TestTraceRoundTripDirectJump pins Trace/Reshape on configurations
// containing width-0 direct-jump ops: a jal consumes no FU (its link value
// is a translation-time constant), yet it must survive the trace
// reconstruction and re-mapping byte-identically — the translation-time
// shape search feeds every shape decision through exactly this path.
func TestTraceRoundTripDirectJump(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	trace := []mapper.TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.T0, isa.A1),
		{PC: 0x1008, Inst: isa.Inst{Op: isa.JAL, Rd: isa.RA, Imm: 16}, Taken: true},
		alu(0x1018, isa.T2, isa.T1, isa.RA),
		alu(0x101c, isa.T0, isa.T2, isa.A0),
	}
	cfg := mapHealthy(t, trace, g)

	// The jump is in the op list with zero width and occupies no cell.
	jumps := 0
	for _, op := range cfg.Ops {
		if op.Inst.Op == isa.JAL {
			jumps++
			if op.Width != 0 {
				t.Fatalf("direct jump placed with width %d", op.Width)
			}
		}
	}
	if jumps != 1 {
		t.Fatalf("%d jumps placed, want 1", jumps)
	}

	// Trace reconstruction carries the jump (PC, instruction, direction).
	rebuilt := Trace(cfg)
	for i, e := range trace {
		if rebuilt[i].PC != e.PC || rebuilt[i].Inst != e.Inst || rebuilt[i].Taken != e.Taken {
			t.Fatalf("rebuilt trace entry %d = %+v, want %+v", i, rebuilt[i], e)
		}
	}

	// Re-mapping at the original shape reproduces the placement exactly,
	// and every ladder shape holding the full sequence replays identically.
	mc, n := Reshape(cfg, g, fabric.Offset{}, g, nil, fabric.DefaultLatencies())
	if mc == nil || n != len(cfg.Ops) {
		t.Fatalf("round-trip consumed %d/%d", n, len(cfg.Ops))
	}
	if !reflect.DeepEqual(cfg.Ops, mc.Ops) {
		t.Errorf("round-trip placement diverges:\n%+v\n%+v", cfg.Ops, mc.Ops)
	}
	opcs, odirs := cfg.ReplayTables()
	for _, shape := range CandidateShapes(g) {
		sc, n := Reshape(cfg, shape, fabric.Offset{}, g, nil, fabric.DefaultLatencies())
		if sc == nil || n < len(cfg.Ops) {
			continue
		}
		spcs, sdirs := sc.ReplayTables()
		if !reflect.DeepEqual(opcs, spcs) || !reflect.DeepEqual(odirs, sdirs) {
			t.Errorf("shape %v: replay tables diverge on the jump-bearing sequence", shape)
		}
	}
}

// TestReshapeWrapAroundAnchor pins Reshape at anchors where the placement
// spans the physical column seam: the anchor-frame health mask must wrap
// exactly like the placement does, the remapped prefix must replay the
// original sequence byte-identically, and every occupied cell must land
// live under the wrapped anchor.
func TestReshapeWrapAroundAnchor(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, independentALUs(12), g)
	// Dead cells in physical columns 2 and 3: a 2x8 shape anchored at
	// column 12 wraps onto physical columns 12..15,0..3, so the mask seen
	// in the anchor frame has its holes at virtual columns 6 and 7 —
	// beyond the seam.
	h, err := fabric.NewHealthWithDead(g, fabric.DeadColumnsCells(g, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	shape := fabric.Geometry{Rows: 2, Cols: 8, CtxLines: g.CtxLines, CfgLines: g.CfgLines}
	anchor := fabric.Offset{Row: 1, Col: 12} // wraps rows and columns
	mc, consumed := Reshape(cfg, shape, anchor, g, h, fabric.DefaultLatencies())
	if mc == nil {
		t.Fatal("no placement across the seam although 12 live cells fit the window")
	}
	if consumed != len(cfg.Ops) {
		t.Fatalf("consumed %d/%d ops; the wrapped window holds 12 live cells", consumed, len(cfg.Ops))
	}
	for _, cell := range mc.Cells() {
		p := anchor.Apply(cell, g)
		if h.Dead(p) {
			t.Errorf("virtual cell %v lands on dead physical cell %v across the seam", cell, p)
		}
		if cell.Col >= 6 && cell.Col < 8 && cell.Row >= 0 {
			// Virtual columns 6-7 are the masked (dead) window columns.
			t.Errorf("virtual cell %v occupies a masked column of the anchor frame", cell)
		}
	}
	opcs, odirs := cfg.ReplayTables()
	mpcs, mdirs := mc.ReplayTables()
	if !reflect.DeepEqual(opcs[:len(mpcs)], mpcs) || !reflect.DeepEqual(odirs[:len(mdirs)], mdirs) {
		t.Errorf("wrapped remap's replay tables diverge from the original prefix")
	}
	if err := mc.Validate(); err != nil {
		t.Errorf("wrapped remap invalid: %v", err)
	}
}

// TestRemapWorkerCountInvariance runs the same rescue search serial
// (GOMAXPROCS=1) and striped over four workers (GOMAXPROCS=4) on a
// clustered-failure fabric with a skewed wear map, and pins that both
// produce the same placement and — because the counters sum over the fixed
// viable-candidate set, not the order the running best happened to improve
// in — byte-identical searchcost Counts.
func TestRemapWorkerCountInvariance(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, independentALUs(8), g)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(workers int) (*fabric.Config, fabric.Offset, bool, searchcost.Counts) {
		runtime.GOMAXPROCS(workers)
		// Dead quadrant (row 0, columns 0-7): the healthy shape survives
		// at some anchors, narrower shapes at more — a real multi-shape,
		// multi-anchor scan.
		h, err := fabric.NewHealthWithDead(g, fabric.DeadQuadrantCells(g))
		if err != nil {
			t.Fatal(err)
		}
		w := fabric.NewWear(g)
		for c := 0; c < 8; c++ {
			w.Add(fabric.Cell{Row: 1, Col: c}, 2)
		}
		m := New(g)
		m.SetHealth(h)
		m.SetWear(w)
		mc, off, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
		return mc, off, ok, m.SearchCounts()
	}
	cfgS, offS, okS, countsS := run(1)
	cfgP, offP, okP, countsP := run(4)
	if okS != okP || offS != offP {
		t.Fatalf("serial (ok=%v off=%v) != parallel (ok=%v off=%v)", okS, offS, okP, offP)
	}
	if okS {
		if cfgS.Geom != cfgP.Geom || cfgS.UsedCols != cfgP.UsedCols || len(cfgS.Ops) != len(cfgP.Ops) {
			t.Fatalf("configs diverge: serial %v/%d ops, parallel %v/%d ops",
				cfgS.Geom, len(cfgS.Ops), cfgP.Geom, len(cfgP.Ops))
		}
		for i := range cfgS.Ops {
			if cfgS.Ops[i] != cfgP.Ops[i] {
				t.Fatalf("op %d diverges: serial %+v, parallel %+v", i, cfgS.Ops[i], cfgP.Ops[i])
			}
		}
	}
	if countsS != countsP {
		t.Fatalf("searchcost counts diverge:\nserial:   %+v\nparallel: %+v", countsS, countsP)
	}
}

// TestScanStripesCount pins how many stripes a scan fans out to: never more
// than the items, one for a non-positive worker count, none for an empty or
// negative range.
func TestScanStripesCount(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{0, 4, 0},
		{-3, 4, 0},
		{10, 0, 1},
		{10, -1, 1},
		{10, 1, 1},
		{10, 4, 4},
		{3, 8, 3}, // never more stripes than items
		{1, 8, 1}, // single item is the serial path
		{10, 10, 10},
	}
	for _, c := range cases {
		got := scanStripes(c.n, c.workers, func(lo, hi int) int { return hi - lo })
		if len(got) != c.want {
			t.Errorf("scanStripes(%d, %d) made %d stripes, want %d", c.n, c.workers, len(got), c.want)
		}
	}
}

// TestScanStripesCoversEveryIndexOnce is the determinism contract's
// foundation: for any (n, workers), including n < workers and n = 0, the
// stripes are contiguous, returned in stripe order, at most min(n, workers)
// of them, and partition [0, n) exactly — every index evaluated once.
func TestScanStripesCoversEveryIndexOnce(t *testing.T) {
	type stripe struct{ lo, hi int }
	for n := 0; n <= 33; n++ {
		for workers := -1; workers <= 9; workers++ {
			hits := make([]int32, n)
			got := scanStripes(n, workers, func(lo, hi int) stripe {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return stripe{lo, hi}
			})
			want := min(max(workers, 1), n)
			if len(got) != want {
				t.Fatalf("n=%d workers=%d: %d stripes, want %d", n, workers, len(got), want)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d evaluated %d times", n, workers, i, h)
				}
			}
			lo := 0
			for s, st := range got {
				if st.lo != lo || st.hi <= st.lo {
					t.Fatalf("n=%d workers=%d: stripe %d is [%d,%d), expected non-empty from %d",
						n, workers, s, st.lo, st.hi, lo)
				}
				lo = st.hi
			}
			if lo != n {
				t.Fatalf("n=%d workers=%d: stripes end at %d", n, workers, lo)
			}
		}
	}
}

// TestScanStripesSerialPathStaysOnCallerGoroutine pins the single-stripe
// fast path: with one stripe the callback runs synchronously, so callers
// may touch caller-local state without synchronization.
func TestScanStripesSerialPathStaysOnCallerGoroutine(t *testing.T) {
	calls := 0 // unsynchronized on purpose; -race proves the contract
	got := scanStripes(100, 1, func(lo, hi int) int {
		if lo != 0 || hi != 100 {
			t.Fatalf("serial stripe = [%d, %d)", lo, hi)
		}
		calls++
		return calls
	})
	if calls != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("serial path ran %d times, returned %v", calls, got)
	}
}
