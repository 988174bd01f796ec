package dbt

import (
	"maps"
	"testing"

	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
	"agingcgra/internal/searchcost"
)

// TestShapeTranslationSearchCountsPinned pins the translation-time ladder
// scan's search counts on degraded fabrics to the values the engine
// produced before it memoized refused translations. The modelled DBT keeps
// no negative cache — it re-scans a trace it already refused — so the memo
// must re-add each skipped scan's counts exactly. qsort and bitcount refuse
// most of their scans, so they exercise the memo-hit path heavily.
func TestShapeTranslationSearchCountsPinned(t *testing.T) {
	cases := []struct {
		bench, dead  string
		want         searchcost.Counts
		translations uint64
	}{
		{"crc32", "columns:0+8", searchcost.Counts{LadderScans: 6, LadderCandidates: 48, LadderProbes: 839}, 6},
		{"qsort", "columns:0+8", searchcost.Counts{LadderScans: 542, LadderCandidates: 4336, LadderProbes: 64986}, 5},
		{"bitcount", "column:5", searchcost.Counts{LadderScans: 132, LadderCandidates: 1056, LadderProbes: 16348}, 5},
	}
	g := fabric.NewGeometry(2, 16)
	for _, tc := range cases {
		t.Run(tc.bench+"@"+tc.dead, func(t *testing.T) {
			cells, err := fabric.PatternCells(tc.dead, g)
			if err != nil {
				t.Fatal(err)
			}
			h, err := fabric.NewHealthWithDead(g, cells)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := prog.ByName(tc.bench)
			c, err := b.NewCore(prog.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: true})
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
			if rep.Search != tc.want {
				t.Errorf("search counts = %+v, want %+v", rep.Search, tc.want)
			}
			if rep.Translations != tc.translations {
				t.Errorf("translations = %d, want %d", rep.Translations, tc.translations)
			}
		})
	}
}

// TestRefusedTranslationMemoInvalidatedByHealth pins the memo's
// invalidation: a trace refused under one health state is re-mapped, and
// its fresh probes counted, once a cell dies — while under unchanged health
// the repeat is served from the memo with the stored counts re-added.
func TestRefusedTranslationMemoInvalidatedByHealth(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	// A run of stores gains nothing from the fabric (one GPP cycle each,
	// four columns each on the CGRA): the profitability gate refuses it.
	p := &isa.Program{TextBase: 0x1000, Text: make([]isa.Inst, 6)}
	trace := &gpp.Stream{Prog: p}
	for i := range p.Text {
		p.Text[i] = isa.Inst{Op: isa.SW, Rs1: isa.A1, Rs2: isa.A0, Imm: 4 * int32(i)}
		trace.Retires = append(trace.Retires, uint32(i)<<1)
	}
	h := fabric.NewHealth(g)
	e, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: true})
	if err != nil {
		t.Fatal(err)
	}
	finalize := func() searchcost.Counts {
		before := e.search
		captureTrace(e, trace)
		return e.search.Sub(before)
	}

	first := finalize()
	if e.rep.Translations != 0 || len(e.refused) != 1 {
		t.Fatalf("store run not refused: %d translations, %d memo entries", e.rep.Translations, len(e.refused))
	}
	if first.LadderScans != 1 || first.LadderProbes == 0 {
		t.Fatalf("first refusal counted %+v", first)
	}
	if repeat := finalize(); repeat != first {
		t.Errorf("memo hit counted %+v, want the refused scan's %+v", repeat, first)
	}

	h.Kill(fabric.Cell{Row: 0, Col: 0})
	// A fresh engine on the degraded fabric is the re-mapping reference.
	ref, err := NewEngine(Options{Geom: g, Health: h, ShapeTranslations: true})
	if err != nil {
		t.Fatal(err)
	}
	captureTrace(ref, trace)
	if ref.search.LadderProbes == first.LadderProbes {
		t.Fatalf("the dead cell does not change the scan's probes (%d); the test cannot tell a re-map from a memo hit",
			first.LadderProbes)
	}
	if got := finalize(); got != ref.search {
		t.Errorf("after a death the repeat counted %+v, want a fresh scan's %+v", got, ref.search)
	}
	if len(e.refused) != 1 {
		t.Errorf("%d memo entries after the re-map, want 1", len(e.refused))
	}
}

// TestRefusedTranslationMemoKeyCoversBranchDirections pins the memo key to
// the whole captured path: two traces over the same PCs that differ only in
// a branch direction are different translations. A forward branch costs the
// GPP one cycle not taken and six taken (redirect plus mispredict), so the
// same chain is unprofitable with the fall-through and profitable with the
// taken branch — the first refusal must not swallow the second trace.
func TestRefusedTranslationMemoKeyCoversBranchDirections(t *testing.T) {
	e, err := NewEngine(Options{Geom: fabric.NewGeometry(2, 16)})
	if err != nil {
		t.Fatal(err)
	}
	// Both paths run one program, so the memo is not dropped between them.
	p := &isa.Program{TextBase: 0x1000}
	for i := 0; i < 4; i++ {
		p.Text = append(p.Text, isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs1: isa.T0, Rs2: isa.A0})
	}
	p.Text = append(p.Text, isa.Inst{Op: isa.BEQ, Rs1: isa.T0, Rs2: isa.A0, Imm: 16})
	capture := func(taken bool) {
		s := &gpp.Stream{Prog: p, Retires: []uint32{0 << 1, 1 << 1, 2 << 1, 3 << 1, 4 << 1}}
		if taken {
			s.Retires[4] |= 1
		}
		captureTrace(e, s)
	}
	capture(false)
	if e.rep.Translations != 0 || len(e.refused) != 1 {
		t.Fatalf("fall-through path not refused: %d translations, %d memo entries", e.rep.Translations, len(e.refused))
	}
	capture(true)
	if e.rep.Translations != 1 {
		t.Errorf("taken path refused: the memo key does not cover branch directions")
	}
}

// captureTrace makes the whole of s the engine's captured trace, as the
// GPP path captures a stream range, and finalizes it. Captures of one
// program share one run, so its memos carry over between them.
func captureTrace(e *Engine, s *gpp.Stream) {
	if e.stream == nil || e.stream.Prog != s.Prog {
		e.reset(NewWords(s.Prog, e.opts.Timing))
	}
	e.stream = s
	e.traceStart, e.traceLen = 0, len(s.Retires)
	e.finalizeTrace()
}

// TestRefusedTranslationMemoDroppedOnProgramChange pins the memo's scope:
// its keys are stream words, which index one program's text, and a suite's
// programs share one text base, so an engine running another program must
// start that run with the memo a fresh engine would have.
func TestRefusedTranslationMemoDroppedOnProgramChange(t *testing.T) {
	b, _ := prog.ByName("stringsearch")
	c, err := b.NewCore(prog.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	reused := newTestEngine(t, nil)
	if _, err := reused.Run(c, b.MaxInstructions); err != nil {
		t.Fatal(err)
	}
	if len(reused.refused) == 0 {
		t.Fatal("stringsearch refused no trace; the test needs one")
	}
	fresh := newTestEngine(t, nil)
	for _, e := range []*Engine{reused, fresh} {
		if _, err := e.Run(loopCore(t), 1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.Equal(reused.refused, fresh.refused) {
		t.Errorf("reused engine kept refusals across programs: %d memo entries, fresh engine %d",
			len(reused.refused), len(fresh.refused))
	}
}
