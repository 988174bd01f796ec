package dbt

import (
	"testing"

	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
	"agingcgra/internal/mapper"
	"agingcgra/internal/prog"
	"agingcgra/internal/remap"
)

// TestShapeTranslationsAccelerateLoop pins the healthy-path behaviour of
// translation-time shape search: the hot loop still translates, offloads
// and computes the right result, and the ladder scan is counted for the
// derived cost model.
func TestShapeTranslationsAccelerateLoop(t *testing.T) {
	c := loopCore(t)
	e, err := NewEngine(Options{
		Geom:              fabric.NewGeometry(2, 16),
		ShapeTranslations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(c, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.A0] != loopReference(200) {
		t.Fatalf("architectural result corrupted: %d", c.Regs[isa.A0])
	}
	if rep.Offloads == 0 {
		t.Fatal("hot loop never offloaded under shape translations")
	}
	if rep.Search.LadderScans == 0 || rep.Search.LadderCandidates == 0 || rep.Search.LadderProbes == 0 {
		t.Errorf("ladder scan uncounted: %+v", rep.Search)
	}
	if rep.Search.LadderScans != rep.Translations {
		// Scans without a winning candidate (too small / unprofitable) do
		// not insert, so scans >= translations.
		if rep.Search.LadderScans < rep.Translations {
			t.Errorf("%d ladder scans for %d translations", rep.Search.LadderScans, rep.Translations)
		}
	}
}

// TestShapeTranslationsRejectStaleCombination pins the regime exclusivity:
// shape-aware translation keys the translation memory on the fabric state,
// stale translation models memory predating it — asking for both is a
// configuration error.
func TestShapeTranslationsRejectStaleCombination(t *testing.T) {
	_, err := NewEngine(Options{
		Geom:              fabric.NewGeometry(2, 16),
		ShapeTranslations: true,
		StaleTranslations: true,
	})
	if err == nil {
		t.Fatal("ShapeTranslations+StaleTranslations accepted")
	}
}

// TestShapeTranslationsFlowAroundDeadColumns pins the health-aware half of
// the search: with two dead columns the shape-aware DBT still keeps the
// kernel on-fabric (every translation's identity placement avoids the dead
// cells), where the same translations mapped blind for the pristine fabric
// would have no live pivot.
func TestShapeTranslationsFlowAroundDeadColumns(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	h, err := fabric.NewHealthWithDead(g, fabric.DeadColumnsCells(g, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := prog.ByName("crc32")
	c, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{
		Geom:              g,
		Allocator:         remap.New(g),
		Health:            h,
		ShapeTranslations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(c, b.MaxInstructions)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
		t.Fatalf("wrong architectural result: %v", err)
	}
	if rep.Offloads == 0 {
		t.Error("kernel fell back to the GPP although shape-aware translations fit the live cells")
	}
	// Every shape decision is live by construction at the anchor its mask
	// was expressed in: each cached translation must have at least one live
	// pivot on the degraded fabric.
	for _, cfg := range e.Cache().Configs() {
		live := false
		for r := 0; r < g.Rows && !live; r++ {
			for c := 0; c < g.Cols && !live; c++ {
				live = h.PlacementOK(cfg.Cells(), fabric.Offset{Row: r, Col: c})
			}
		}
		if !live {
			t.Fatalf("translation %#x has no live pivot despite the health-aware shape search", cfg.StartPC)
		}
	}
}

// TestShapeTranslationsRetranslateOnStateChange pins the engine's state
// keying under shape translation: the resident translations' shape
// decisions are valid for exactly one fabric.StateKey of the health and
// wear maps — a death or a wear advance in the middle of a run flushes
// them wholesale and the re-captured traces translate against the new
// state, while a run that starts on a dead, worn fabric and sees no move
// never flushes.
func TestShapeTranslationsRetranslateOnStateChange(t *testing.T) {
	const killAt, wearAt = 5, 100
	g := fabric.NewGeometry(2, 16)
	run := func(moves bool) (*Engine, *Report, *fabric.Health) {
		t.Helper()
		h, w := fabric.NewHealth(g), fabric.NewWear(g)
		kill := func() { h.Kill(fabric.Cell{Row: 0, Col: 0}) }
		wear := func() { w.Add(fabric.Cell{Row: 1, Col: 3}, 2) }
		a := &hookAllocator{at: map[int]func(){killAt: kill, wearAt: wear}}
		if !moves {
			kill()
			wear()
			a.at = nil
		}
		e, err := NewEngine(Options{Geom: g, Health: h, Wear: w, Allocator: a, ShapeTranslations: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(loopCore(t), 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if a.calls < wearAt {
			t.Fatalf("the run made %d placement proposals; the test needs %d", a.calls, wearAt)
		}
		return e, rep, h
	}

	if e, _, _ := run(false); e.Cache().Stats().Flushes != 0 {
		t.Fatalf("flushed %d times without a state change", e.Cache().Stats().Flushes)
	}

	// The death moves the health key and the wear advance the wear
	// version: each must flush, and the region re-translate around the
	// dead cell.
	e, rep, h := run(true)
	if got := e.Cache().Stats().Flushes; got != 2 {
		t.Fatalf("flushes = %d after a death and a wear advance, want 2", got)
	}
	if rep.Translations < 3 {
		t.Errorf("%d translations; each flush must be followed by a re-translation", rep.Translations)
	}
	for _, cfg := range e.Cache().Configs() {
		live := false
		for r := 0; r < g.Rows && !live; r++ {
			for c := 0; c < g.Cols && !live; c++ {
				live = h.PlacementOK(cfg.Cells(), fabric.Offset{Row: r, Col: c})
			}
		}
		if !live {
			t.Fatalf("post-flush translation %#x has no live pivot", cfg.StartPC)
		}
	}
}

// TestShapeTranslationWearTieBreak pins the wear-aware tie-break: two
// independent single-column ops fit the full 2×16 shape (a vertical pair in
// column 0) and the 1×16 shape (a horizontal pair) in the same single
// cycle, so heavy wear on the row-1 cell must steer the search to the
// one-row shape whose identity placement avoids it.
func TestShapeTranslationWearTieBreak(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	trace := []mapper.TraceEntry{
		{PC: 0x1000, Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs1: isa.A0, Rs2: isa.A1}},
		{PC: 0x1004, Inst: isa.Inst{Op: isa.ADD, Rd: isa.T1, Rs1: isa.A0, Rs2: isa.A1}},
	}

	fresh, err := NewEngine(Options{Geom: g, ShapeTranslations: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh.trace = trace
	cfg, consumed := fresh.translateShapes()
	if cfg == nil || consumed != 2 {
		t.Fatalf("fresh search consumed %d/2", consumed)
	}
	if cfg.Geom.Rows != g.Rows {
		t.Errorf("fresh fabric chose %v; want the full shape (first rung) on a tie", cfg.Geom)
	}

	w := fabric.NewWear(g)
	w.Add(fabric.Cell{Row: 1, Col: 0}, 3)
	worn, err := NewEngine(Options{Geom: g, ShapeTranslations: true, Wear: w})
	if err != nil {
		t.Fatal(err)
	}
	worn.trace = trace
	cfg, consumed = worn.translateShapes()
	if cfg == nil || consumed != 2 {
		t.Fatalf("worn search consumed %d/2", consumed)
	}
	if cfg.Geom.Rows != 1 {
		t.Errorf("worn row 1: search chose %v; want a one-row shape avoiding the worn cell", cfg.Geom)
	}
	for _, cell := range cfg.Cells() {
		if w.YearsAt(cell) > 0 {
			t.Errorf("chosen placement touches worn cell %v", cell)
		}
	}
}

// TestShapeTranslationsRejectEmptyLadder pins the malformed-ladder guard:
// a ladder that expands to no candidate shapes must be a configuration
// error, not a silent fall-back to identity translation.
func TestShapeTranslationsRejectEmptyLadder(t *testing.T) {
	_, err := NewEngine(Options{
		Geom:              fabric.NewGeometry(2, 16),
		ShapeTranslations: true,
		Ladder:            fabric.ShapeLadder{Name: "custom", ColFracs: []float64{0.5}},
	})
	if err == nil {
		t.Fatal("ladder with no row fractions accepted")
	}
}
