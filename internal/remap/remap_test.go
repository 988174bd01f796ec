package remap

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/core"
	"agingcgra/internal/dbt"
	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
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

// allButCells kills every cell except the first n of row 1.
func allButCells(g fabric.Geometry, n int) []fabric.Cell {
	var dead []fabric.Cell
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if r != 1 || c >= n {
				dead = append(dead, fabric.Cell{Row: r, Col: c})
			}
		}
	}
	return dead
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
// any shape exists. The cases lower the rescue threshold to one op so they
// pin the search itself; the cases marked defaultMinOps keep
// mapper.MinOps and pin that the rescue refuses shorter prefixes.
func TestClusteredFailures(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cases := []struct {
		name  string
		trace []mapper.TraceEntry
		dead  []fabric.Cell
		// wantOps is the longest prefix any placement can hold (0 = no
		// placement exists and RemapConfig must fail).
		wantOps int
		// defaultMinOps keeps the rescue at mapper.MinOps instead of
		// lowering it to one op.
		defaultMinOps bool
	}{
		// 32 independent ops fill every cell; one dead column blocks every
		// pivot, but 30 live cells still hold a 30-op prefix.
		{"dead-column/full-fabric", independentALUs(32), fabric.DeadColumnCells(g, 5), 30, false},
		// The dead quadrant (row 0, columns 0-7) leaves 24 live cells.
		{"dead-quadrant/full-fabric", independentALUs(32), fabric.DeadQuadrantCells(g), 24, false},
		// Checkerboard: half the cells survive, none adjacent; single-column
		// ops flow around, 16 fit.
		{"checkerboard/alu", independentALUs(32), fabric.CheckerboardCells(g, 0), 16, false},
		// A 16-op dependence chain needs 16 strictly increasing columns; a
		// dead column caps any placement at 15 ops.
		{"dead-column/chain", dependentALUs(16), fabric.DeadColumnCells(g, 7), 15, false},
		// Everything dead but row 1: the two-row healthy footprint never
		// fits, the survivor row holds all eight ops.
		{"survivor-row/two-row-config", independentALUs(8), fabric.SurvivorRowCells(g, 1), 8, false},
		// Width-4 loads need four consecutive live cells in a row; the
		// checkerboard has none, so no placement of any shape exists.
		{"checkerboard/loads", loads(4), fabric.CheckerboardCells(g, 0), 0, false},
		// Nothing survives at all.
		{"fully-dead", independentALUs(8), fabric.CheckerboardCells(g, 0), 0, false},
		// Only three cells of row 1 survive: a placement holds at most
		// three ops, fewer than mapper.MinOps, so at the default
		// threshold the rescue refuses and the kernel stays on the GPP.
		{"three-live-cells/below-min-ops", independentALUs(8), allButCells(g, 3), 0, true},
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

			m := New(g)
			if !tc.defaultMinOps {
				m.minOps = 1
			}
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

// TestRemapCacheKeying pins the rescue memo's invalidation contract:
// results are reused while the health and wear maps stand still and
// re-searched as soon as either moves — a death changes which placements
// exist, a wear advance changes which one the scoring prefers.
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
	scans := func() uint64 { return m.SearchCounts().RemapScans }

	if _, _, ok := m.RemapConfig(cfg, fabric.Offset{}, false); !ok {
		t.Fatal("remap failed on a dead column")
	}
	a1, _, _ := m.RemapConfig(cfg, fabric.Offset{}, false)
	if n := scans(); n != 1 {
		t.Fatalf("scans after repeat = %d, want 1", n)
	}

	// A wear advance must re-rank (possibly re-choosing the anchor).
	w.Add(fabric.Cell{Row: 0, Col: 0}, 1.5)
	m.RemapConfig(cfg, fabric.Offset{}, false)
	if n := scans(); n != 2 {
		t.Fatalf("scans after wear advance = %d, want a re-search (2)", n)
	}

	// A further death must re-search against the new health.
	h.Kill(fabric.Cell{Row: 0, Col: 9})
	a2, _, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
	if !ok {
		t.Fatal("remap failed after one more death")
	}
	if n := scans(); n != 3 {
		t.Fatalf("scans after kill = %d, want another re-search (3)", n)
	}
	if len(a2.Ops) >= len(a1.Ops) {
		t.Errorf("prefix grew from %d to %d ops after losing a cell", len(a1.Ops), len(a2.Ops))
	}
}

// TestRemapNegativeOutcomeMemoized pins that a failed rescue is memoized
// like a successful one: a region no shape can place stays on the GPP
// without re-searching on every offload until the health key moves.
func TestRemapNegativeOutcomeMemoized(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, independentALUs(32), g)
	h := fabric.NewHealth(g)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			h.Kill(fabric.Cell{Row: r, Col: c})
		}
	}
	m := New(g)
	m.SetHealth(h)
	m.SetWear(fabric.NewWear(g))
	scans := func() uint64 { return m.SearchCounts().RemapScans }

	for i := 0; i < 3; i++ {
		if mc, _, ok := m.RemapConfig(cfg, fabric.Offset{}, false); ok || mc != nil {
			t.Fatalf("offload %d: remap placed %v on a fully dead fabric", i, mc)
		}
	}
	if n := scans(); n != 1 {
		t.Fatalf("scans after three offloads = %d, want the negative outcome reused (1)", n)
	}

	h.Revive(fabric.Cell{Row: 0, Col: 0})
	m.RemapConfig(cfg, fabric.Offset{}, false)
	if n := scans(); n != 2 {
		t.Fatalf("scans after a health move = %d, want a re-search (2)", n)
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

// TestRescueThroughMemoMatchesDirect pins the rescue's use of the mapping
// memo on a dead-quadrant fabric with skewed wear: a remapper mapping every
// candidate directly, one filling an empty memo and one reading a memo a
// previous remapper filled (every candidate a hit) choose the same
// placement and report byte-identical searchcost Counts, since hits re-add
// the probes. Two more passes share that memo: one under wear skewed the
// other way, whose stored candidates must be re-scored into the direct
// remapper's new choice, and one around dead columns, which must map
// afresh. No pass hands out a configuration the memo stores, or one an
// earlier pass handed out.
func TestRescueThroughMemoMatchesDirect(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	cfg := mapHealthy(t, independentALUs(8), g)
	quadrant, err := fabric.NewHealthWithDead(g, fabric.DeadQuadrantCells(g))
	if err != nil {
		t.Fatal(err)
	}
	columns, err := fabric.NewHealthWithDead(g, []fabric.Cell{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 0, Col: 8}, {Row: 1, Col: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// skewed wears columns [from, to) of row, leaving the rest fresh.
	skewed := func(row, from, to int) *fabric.Wear {
		w := fabric.NewWear(g)
		for c := from; c < to; c++ {
			w.Add(fabric.Cell{Row: row, Col: c}, 2)
		}
		return w
	}
	rescue := func(memo *mapper.Memo, h *fabric.Health, w *fabric.Wear) (*fabric.Config, fabric.Offset, *Remapper) {
		m := New(g)
		m.UseMemo(memo)
		m.SetHealth(h)
		m.SetWear(w)
		mc, off, ok := m.RemapConfig(cfg, fabric.Offset{}, false)
		if !ok {
			t.Fatal("no shape rescues the configuration")
		}
		return mc, off, m
	}
	memo := mapper.NewMemo()
	handed := make(map[*fabric.Config]string)
	var first *fabric.Config
	var firstOff fabric.Offset
	for _, pass := range []struct {
		name string
		h    *fabric.Health
		w    *fabric.Wear
	}{
		{"miss", quadrant, skewed(1, 0, 8)},
		{"hit", quadrant, skewed(1, 0, 8)},
		{"hit under other wear", quadrant, skewed(1, 8, 16)},
		{"other dead cells", columns, skewed(1, 0, 8)},
	} {
		want, wantOff, direct := rescue(nil, pass.h, pass.w)
		got, off, m := rescue(memo, pass.h, pass.w)
		if off != wantOff || got.Geom != want.Geom || got.UsedCols != want.UsedCols ||
			!reflect.DeepEqual(got.Ops, want.Ops) {
			t.Fatalf("%s: rescue %v at %v, direct rescue %v at %v", pass.name, got.Geom, off, want.Geom, wantOff)
		}
		if m.SearchCounts() != direct.SearchCounts() {
			t.Fatalf("%s: searchcost counts diverge:\nmemo:   %+v\ndirect: %+v",
				pass.name, m.SearchCounts(), direct.SearchCounts())
		}
		if p, ok := handed[got]; ok {
			t.Fatalf("%s: the rescue handed out %s's configuration again", pass.name, p)
		}
		handed[got] = pass.name
		dead := pass.h.Mask()
		stored, _ := memo.Map(memo.Key(Trace(cfg)), mapper.Options{
			Geom: got.Geom,
			Lat:  fabric.DefaultLatencies(),
			Dead: dead.Window(off, got.Geom, g),
		})
		if stored == nil {
			t.Fatalf("%s: the memo stores no placement for the winner's window", pass.name)
		}
		if stored == got {
			t.Fatalf("%s: the rescue handed out the memo's stored configuration", pass.name)
		}
		switch pass.name {
		case "miss":
			first, firstOff = got, off
		case "hit":
		default:
			// A pass that chose the first pass's placement could not tell a
			// stale candidate list or score from a fresh one.
			if off == firstOff && got.Geom == first.Geom && reflect.DeepEqual(got.Ops, first.Ops) {
				t.Fatalf("%s: chose the first pass's placement, %v at %v, again", pass.name, got.Geom, off)
			}
		}
	}
}

// referenceRescue is the rescue search ranked by ΔVt alone, window by
// window through mapper.Map, as it stood before candidate lists and year
// ranking: the longest prefix wins, then the strictly lowest Score, then
// shape order and row-major anchor order.
func referenceRescue(m *Remapper, cfg *fabric.Config) (*fabric.Config, fabric.Offset, bool) {
	minOps := min(m.minOps, len(cfg.Ops))
	dead := m.health.Mask()
	var (
		best      *fabric.Config
		bestOff   fabric.Offset
		bestN     int
		bestScore float64
	)
	for _, shape := range m.shapes {
		for a := 0; a < m.geom.NumFUs(); a++ {
			anchor := fabric.Offset{Row: a / m.geom.Cols, Col: a % m.geom.Cols}
			mc, n := mapper.Map(Trace(cfg), mapper.Options{
				Geom: shape,
				Lat:  fabric.DefaultLatencies(),
				Dead: dead.Window(anchor, shape, m.geom),
			})
			if mc == nil || n < minOps || !m.health.PlacementOK(mc.Cells(), anchor) {
				continue
			}
			score := m.ex.Score(mc, anchor)
			if best == nil || n > bestN || (n == bestN && score < bestScore) {
				best, bestOff, bestN, bestScore = mc, anchor, n, score
			}
		}
	}
	return best, bestOff, best != nil
}

// TestRescueSharedMemoMatchesMemoLess is the rescue's generated-input
// differential test. On 2x8 and 4x8 fabrics, seeded passes draw a
// configuration from three trace kinds, a dead mask from a small pool (so
// later passes re-score stored candidate lists), and random wear and duty.
// Each pass builds a fresh remapper that maps through one memo shared by
// every pass, as the lifetime simulator builds one per epoch, and a
// memo-less one. Under both triggers they must choose the same placement
// at the same offset with equal search counts, and the capacity rescue
// must be the reference search's choice.
func TestRescueSharedMemoMatchesMemoLess(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	reused, substituted := 0, 0
	for _, g := range []fabric.Geometry{fabric.NewGeometry(2, 8), fabric.NewGeometry(4, 8)} {
		var pool []*fabric.Health
		for len(pool) < 3 {
			h := fabric.NewHealth(g)
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				h.Kill(fabric.Cell{Row: r.Intn(g.Rows), Col: r.Intn(g.Cols)})
			}
			if r.Intn(2) == 0 {
				col := r.Intn(g.Cols)
				for row := 0; row < g.Rows; row++ {
					h.Kill(fabric.Cell{Row: row, Col: col})
				}
			}
			pool = append(pool, h)
		}
		memo := mapper.NewMemo()
		seen := make(map[string]bool)
		for pass := 0; pass < 40; pass++ {
			var trace []mapper.TraceEntry
			switch n := 2 + r.Intn(g.Rows*2); r.Intn(3) {
			case 0:
				trace = independentALUs(n * 2)
			case 1:
				trace = dependentALUs(min(n+2, g.Cols))
			default:
				trace = loads(min(n, g.Rows))
			}
			cfg, n := mapper.Map(trace, mapper.Options{Geom: g, Lat: fabric.DefaultLatencies()})
			if cfg == nil || n != len(trace) {
				continue
			}
			h := pool[r.Intn(len(pool))]
			w := fabric.NewWear(g)
			for i := 0; i < g.NumFUs(); i++ {
				if r.Intn(2) == 0 {
					w.Add(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, 3*r.Float64())
				}
			}
			type duty struct {
				off    fabric.Offset
				cycles uint64
			}
			var duties []duty
			for i, n := 0, r.Intn(4); i < n; i++ {
				duties = append(duties, duty{fabric.Offset{Row: r.Intn(g.Rows), Col: r.Intn(g.Cols)}, uint64(1 + r.Intn(1000))})
			}
			build := func(memo *mapper.Memo) *Remapper {
				m := New(g)
				m.UseMemo(memo)
				m.SetHealth(h)
				m.SetWear(w)
				for _, d := range duties {
					m.ObserveStress(cfg.Cells(), d.off, d.cycles)
				}
				return m
			}
			if key := fmt.Sprint(Trace(cfg), h.Mask()); seen[key] {
				reused++
			} else {
				seen[key] = true
			}
			for _, placed := range []bool{false, h.PlacementOK(cfg.Cells(), fabric.Offset{})} {
				shared, direct := build(memo), build(nil)
				got, off, ok := shared.RemapConfig(cfg, fabric.Offset{}, placed)
				want, wantOff, wantOK := direct.RemapConfig(cfg, fabric.Offset{}, placed)
				what := fmt.Sprintf("%v pass %d placed %v", g, pass, placed)
				if ok && got != cfg {
					substituted++
				}
				if !samePlacement(got, off, ok, want, wantOff, wantOK) {
					t.Fatalf("%s: shared memo chose %v at %v (%v), memo-less %v at %v (%v)",
						what, got, off, ok, want, wantOff, wantOK)
				}
				if shared.SearchCounts() != direct.SearchCounts() {
					t.Fatalf("%s: search counts diverge:\nshared:    %+v\nmemo-less: %+v",
						what, shared.SearchCounts(), direct.SearchCounts())
				}
				if placed {
					continue
				}
				if ref, refOff, refOK := referenceRescue(build(nil), cfg); !samePlacement(got, off, ok, ref, refOff, refOK) {
					t.Fatalf("%s: rescue chose %v at %v (%v), the ΔVt-ranked reference %v at %v (%v)",
						what, got, off, ok, ref, refOff, refOK)
				}
			}
		}
	}
	if reused == 0 || substituted == 0 {
		t.Fatalf("%d passes re-scored a stored candidate list, %d substituted a shape", reused, substituted)
	}
	t.Logf("%d passes re-scored a stored candidate list, %d substituted a shape", reused, substituted)
}

// samePlacement reports whether two rescue outcomes hold the same ops in
// the same shape at the same offset.
func samePlacement(a *fabric.Config, aOff fabric.Offset, aOK bool, b *fabric.Config, bOff fabric.Offset, bOK bool) bool {
	if aOK != bOK || aOff != bOff || (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Geom == b.Geom && a.UsedCols == b.UsedCols && reflect.DeepEqual(a.Ops, b.Ops)
}
