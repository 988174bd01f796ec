package mapper

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// suiteTraces cuts each suite kernel's Tiny retire stream into DBT-style
// traces — ending at indirect jumps, system calls, backward-taken control
// transfers and the 32-entry window — and keeps up to perKernel distinct
// ones per kernel. PCs repeat across kernels with different instructions,
// so the set also exercises the memo's program aliasing.
func suiteTraces(t *testing.T, perKernel int) [][]TraceEntry {
	t.Helper()
	var out [][]TraceEntry
	for _, b := range prog.All() {
		c, err := b.NewCore(prog.Tiny)
		if err != nil {
			t.Fatal(err)
		}
		s, err := gpp.Record(c, b.MaxInstructions)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		var cur []TraceEntry
		for p := 0; p < len(s.Retires) && len(seen) < perKernel; p++ {
			r := s.Retire(p)
			cur = append(cur, TraceEntry{PC: r.PC, Inst: r.Inst, Taken: r.Taken})
			backEdge := r.Taken && r.Inst.IsControl() && r.Inst.Imm < 0
			if r.Inst.Op != isa.JALR && r.Inst.Op != isa.ECALL && !backEdge && len(cur) < 32 {
				continue
			}
			if len(cur) >= MinOps {
				if k := fmt.Sprint(cur); !seen[k] {
					seen[k] = true
					out = append(out, cur)
				}
			}
			cur = nil
		}
	}
	return out
}

// anchoredMask kills a random set of physical cells and returns the dead
// mask the remap rescue builds for one anchor, as a function of the shape:
// shape cell c is dead when the physical cell it lands on under anchor is.
func anchoredMask(r *rand.Rand, phys fabric.Geometry) func(shape fabric.Geometry) fabric.Mask {
	h := fabric.NewHealth(phys)
	for i, n := 0, r.Intn(6); i < n; i++ {
		h.Kill(fabric.Cell{Row: r.Intn(phys.Rows), Col: r.Intn(phys.Cols)})
	}
	if r.Intn(3) == 0 {
		col := r.Intn(phys.Cols)
		for row := 0; row < phys.Rows; row++ {
			h.Kill(fabric.Cell{Row: row, Col: col})
		}
	}
	anchor := fabric.Offset{Row: r.Intn(phys.Rows), Col: r.Intn(phys.Cols)}
	dead := h.Mask()
	return func(shape fabric.Geometry) fabric.Mask { return dead.Window(anchor, shape, phys) }
}

type mapping struct {
	cfg      *fabric.Config
	consumed int
	probes   uint64
}

func mapDirect(trace []TraceEntry, opt Options) mapping {
	var m mapping
	opt.Probes = &m.probes
	m.cfg, m.consumed = Map(trace, opt)
	return m
}

func mapMemo(memo *Memo, k TraceKey, opt Options) mapping {
	var m mapping
	opt.Probes = &m.probes
	m.cfg, m.consumed = memo.Map(k, opt)
	return m
}

func sameMapping(t *testing.T, what string, got, want mapping) {
	t.Helper()
	if got.consumed != want.consumed || got.probes != want.probes {
		t.Fatalf("%s: consumed %d probes %d, Map gives consumed %d probes %d",
			what, got.consumed, got.probes, want.consumed, want.probes)
	}
	if (got.cfg == nil) != (want.cfg == nil) {
		t.Fatalf("%s: config %v, Map gives %v", what, got.cfg, want.cfg)
	}
	if want.cfg == nil {
		return
	}
	g, w := got.cfg, want.cfg
	if g.StartPC != w.StartPC || g.Geom != w.Geom || g.UsedCols != w.UsedCols ||
		!reflect.DeepEqual(g.Ops, w.Ops) {
		t.Fatalf("%s: placement differs from Map's", what)
	}
	if !reflect.DeepEqual(g.Cells(), w.Cells()) {
		t.Fatalf("%s: cells %v, Map's placement occupies %v", what, g.Cells(), w.Cells())
	}
}

// TestMemoMatchesMap is the memo's differential test: for the suite
// kernels' traces at every default-ladder shape on 2×16, under random
// anchored dead masks, Memo.Map returns what Map returns — ops, used
// columns, consumed entries and probes — on the miss and on every hit.
// Every hit lends the stored configuration, and Keep turns it into a
// distinct one with the same placement. One memo serves every kernel, so a
// key that aliased two programs or two masks would fail here.
func TestMemoMatchesMap(t *testing.T) {
	phys := fabric.NewGeometry(2, 16)
	shapes := fabric.DefaultShapeLadder().Shapes(phys)
	traces := suiteTraces(t, 12)
	if len(traces) < 50 {
		t.Fatalf("only %d suite traces", len(traces))
	}
	r := rand.New(rand.NewSource(18))
	memo := NewMemo()
	hits := 0
	for ti, trace := range traces {
		k := memo.Key(trace)
		for mi := 0; mi < 3; mi++ {
			window := anchoredMask(r, phys)
			for _, shape := range shapes {
				opt := Options{Geom: shape, Lat: fabric.DefaultLatencies()}
				if mi > 0 {
					opt.Dead = window(shape)
				}
				want := mapDirect(trace, opt)
				first := mapMemo(memo, k, opt)
				sameMapping(t, "first", first, want)
				again := mapMemo(memo, memo.Key(trace), opt)
				sameMapping(t, "hit", again, want)
				hits++
				if first.cfg != again.cfg {
					t.Fatalf("trace %d shape %v: a hit returned %p, not the stored %p", ti, shape, again.cfg, first.cfg)
				}
				if want.cfg != nil {
					kept := mapping{cfg: memo.Keep(again.cfg), consumed: again.consumed, probes: again.probes}
					if kept.cfg == again.cfg {
						t.Fatalf("trace %d shape %v: Keep returned the memo's own *Config", ti, shape)
					}
					sameMapping(t, "kept", kept, want)
				}
			}
		}
	}
	if hits == 0 || len(memo.results) == 0 {
		t.Fatal("no memo traffic")
	}
}

// TestMemoKeysOnContent pins the key's parts one at a time: the same PCs
// with another instruction, the same trace into another shape or around
// another dead cell, each maps afresh, while the same dead cell seen
// through another anchor of another fabric shares the stored result.
func TestMemoKeysOnContent(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.A0, isa.A2),
		alu(0x1008, isa.T2, isa.A0, isa.A3),
	}
	other := append([]TraceEntry(nil), trace...)
	other[1].Inst = isa.Inst{Op: isa.MUL, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.A2}
	g := fabric.NewGeometry(2, 4)
	deadAt := func(phys fabric.Geometry, c fabric.Cell, anchor fabric.Offset) fabric.Mask {
		h := fabric.NewHealth(phys)
		h.Kill(c)
		dead := h.Mask()
		return dead.Window(anchor, g, phys)
	}
	base := Options{Geom: g, Lat: fabric.DefaultLatencies()}
	memo := NewMemo()
	same := func(o Options) Options { return o }
	cases := []struct {
		name  string
		trace []TraceEntry
		opt   func(Options) Options
		fresh bool
	}{
		{"first", trace, same, true},
		{"repeat", trace, same, false},
		{"same PCs, other instruction", other, same, true},
		{"other shape", trace, func(o Options) Options {
			o.Geom = fabric.NewGeometry(1, 4)
			return o
		}, true},
		{"dead cell", trace, func(o Options) Options {
			o.Dead = deadAt(g, fabric.Cell{}, fabric.Offset{})
			return o
		}, true},
		{"same dead cell through another anchor", trace, func(o Options) Options {
			o.Dead = deadAt(fabric.NewGeometry(4, 8), fabric.Cell{Row: 2, Col: 3}, fabric.Offset{Row: 2, Col: 3})
			return o
		}, false},
		{"other latencies", trace, func(o Options) Options {
			o.Lat.ALU = 2
			return o
		}, true},
	}
	for _, c := range cases {
		before := len(memo.results)
		opt := c.opt(base)
		sameMapping(t, c.name, mapMemo(memo, memo.Key(c.trace), opt), mapDirect(c.trace, opt))
		if fresh := len(memo.results) > before; fresh != c.fresh {
			t.Errorf("%s: stored a new result = %v, want %v", c.name, fresh, c.fresh)
		}
	}
}

// TestTinyFabricsEveryDeadMask enumerates every dead mask of the 2x2, 2x3
// and 2x4 fabrics and maps the suite's traces, cut to their first six
// entries, around each: no op lands on a dead cell, Memo.Map returns Map's
// ops, consumed count and probes on the miss and on a repeat call, and
// every returned configuration's ops are sized exactly.
func TestTinyFabricsEveryDeadMask(t *testing.T) {
	seen := make(map[string]bool)
	var traces [][]TraceEntry
	for _, trace := range suiteTraces(t, 12) {
		trace = trace[:min(len(trace), 6)]
		if k := fmt.Sprint(trace); !seen[k] {
			seen[k] = true
			traces = append(traces, trace)
		}
	}
	placed := 0
	for _, cols := range []int{2, 3, 4} {
		g := fabric.NewGeometry(2, cols)
		memo := NewMemo()
		for bits := 0; bits < 1<<g.NumFUs(); bits++ {
			opt := Options{Geom: g, Lat: fabric.DefaultLatencies()}
			opt.Dead[0] = uint64(bits)
			for _, trace := range traces {
				want := mapDirect(trace, opt)
				k := memo.Key(trace)
				first, repeat := mapMemo(memo, k, opt), mapMemo(memo, k, opt)
				sameMapping(t, "first", first, want)
				sameMapping(t, "repeat", repeat, want)
				if want.cfg == nil {
					continue
				}
				for _, m := range []mapping{want, first, repeat} {
					if cap(m.cfg.Ops) != len(m.cfg.Ops) {
						t.Fatalf("%v, dead mask %b: %d ops with capacity %d", g, bits, len(m.cfg.Ops), cap(m.cfg.Ops))
					}
				}
				placed++
				for _, c := range want.cfg.Cells() {
					if opt.Dead.Has(c.Row*g.Cols + c.Col) {
						t.Fatalf("%v, dead mask %b: op placed on dead cell %v", g, bits, c)
					}
				}
			}
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	t.Logf("%d traces, %d placements", len(traces), placed)
}

// kept is where TestKeptClonesShareDerivedTables stores each clone, so
// every Keep it counts reaches the heap.
var kept *fabric.Config

// TestKeptClonesShareDerivedTables keeps two clones of one Map result:
// each is its own pointer, and both read the placement's derived tables —
// cells, replay tables, live-pivot mask and cover table — from one set of
// backing arrays. On a warmed placement, Keep plus every derived-table
// read costs one allocation, the clone itself.
func TestKeptClonesShareDerivedTables(t *testing.T) {
	g := fabric.NewGeometry(2, 16)
	memo := NewMemo()
	cfg, _ := memo.Map(memo.Key(suiteTraces(t, 1)[0]), Options{Geom: g, Lat: fabric.DefaultLatencies()})
	if cfg == nil {
		t.Fatal("the trace placed nothing")
	}
	h := fabric.NewHealth(g)
	h.Kill(fabric.Cell{Row: 1, Col: 5})
	a, b := memo.Keep(cfg), memo.Keep(cfg)
	if a == b || a == cfg || b == cfg {
		t.Fatalf("kept clones %p and %p of %p share a pointer", a, b, cfg)
	}
	apcs, adirs := a.ReplayTables()
	bpcs, bdirs := b.ReplayTables()
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"cells", &a.Cells()[0], &b.Cells()[0]},
		{"replay PCs", &apcs[0], &bpcs[0]},
		{"replay directions", &adirs[0], &bdirs[0]},
		{"live pivots", &a.LivePivots(h)[0], &b.LivePivots(h)[0]},
		{"cover table", &a.Cover(g)[0], &b.Cover(g)[0]},
	} {
		if c.a != c.b {
			t.Errorf("the kept clones' %s have separate backing arrays", c.name)
		}
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	allocs := testing.AllocsPerRun(100, func() {
		kept = memo.Keep(cfg)
		kept.Cells()
		kept.ReplayTables()
		kept.ExecCyclesFirst(kept.NumOps())
		kept.ClassCountsFirst(kept.NumOps())
		kept.LivePivots(h)
		kept.Cover(g)
	})
	if allocs != 1 {
		t.Fatalf("Keep and the derived-table reads of a warmed placement make %v allocations, want 1", allocs)
	}
}

// scanDirect is Scan's oracle: every window of the scan mapped with Map, in
// shape order then row-major anchor order, keeping those that place on live
// physical cells, and the probes of all windows.
func scanDirect(trace []TraceEntry, shapes []fabric.Geometry, phys fabric.Geometry, dead fabric.Mask) ([]Window, uint64) {
	var ws []Window
	var probes uint64
	for _, shape := range shapes {
		for a := 0; a < phys.NumFUs(); a++ {
			anchor := fabric.Offset{Row: a / phys.Cols, Col: a % phys.Cols}
			m := mapDirect(trace, Options{Geom: shape, Lat: fabric.DefaultLatencies(), Dead: dead.Window(anchor, shape, phys)})
			probes += m.probes
			if m.cfg == nil {
				continue
			}
			live := true
			for _, c := range m.cfg.Cells() {
				p := anchor.Apply(c, phys)
				live = live && !dead.Has(p.Row*phys.Cols+p.Col)
			}
			if live {
				ws = append(ws, Window{Cfg: m.cfg, Consumed: m.consumed, Anchor: anchor})
			}
		}
	}
	return ws, probes
}

func sameWindows(t *testing.T, what string, got []Window, gotProbes uint64, want []Window, wantProbes uint64) {
	t.Helper()
	if len(got) != len(want) || gotProbes != wantProbes {
		t.Fatalf("%s: %d windows, %d probes; Map gives %d windows, %d probes", what, len(got), gotProbes, len(want), wantProbes)
	}
	for i := range got {
		if got[i].Anchor != want[i].Anchor {
			t.Fatalf("%s: window %d anchored at %v, Map's at %v", what, i, got[i].Anchor, want[i].Anchor)
		}
		sameMapping(t, fmt.Sprintf("%s: window %d", what, i),
			mapping{cfg: got[i].Cfg, consumed: got[i].Consumed},
			mapping{cfg: want[i].Cfg, consumed: want[i].Consumed})
	}
}

// TestScanReusesItsList checks Memo.Scan against a window-by-window Map
// scan and pins its reuse: a second scan of the same trace, ladder and
// dead mask runs no Map at all (the memo's results, emptied in between,
// stay empty) and returns the stored list with the same probe total; a
// moved dead mask maps afresh; a nil memo returns the same list. On 4x32 a
// mask spans two words, and a cell dead in the second word alone moves it.
func TestScanReusesItsList(t *testing.T) {
	traces := suiteTraces(t, 2)
	for _, tc := range []struct {
		phys         fabric.Geometry
		dead, moved  []fabric.Cell
		tracesToScan int
	}{
		{fabric.NewGeometry(2, 16),
			[]fabric.Cell{{Row: 0, Col: 0}, {Row: 1, Col: 0}, {Row: 0, Col: 8}, {Row: 1, Col: 8}},
			[]fabric.Cell{{Row: 0, Col: 3}, {Row: 1, Col: 3}, {Row: 0, Col: 11}, {Row: 1, Col: 11}}, 6},
		{fabric.NewGeometry(4, 32),
			[]fabric.Cell{{Row: 0, Col: 5}},
			[]fabric.Cell{{Row: 0, Col: 5}, {Row: 3, Col: 30}}, 2},
	} {
		shapes := fabric.DefaultShapeLadder().Shapes(tc.phys)
		mask := func(cells []fabric.Cell) fabric.Mask {
			h, err := fabric.NewHealthWithDead(tc.phys, cells)
			if err != nil {
				t.Fatal(err)
			}
			return h.Mask()
		}
		dead, moved := mask(tc.dead), mask(tc.moved)
		memo := NewMemo()
		for ti, trace := range traces[:tc.tracesToScan] {
			what := fmt.Sprintf("%v trace %d", tc.phys, ti)
			want, wantProbes := scanDirect(trace, shapes, tc.phys, dead)
			if len(want) == 0 {
				t.Fatalf("%s: no window places", what)
			}
			var probes uint64
			first := memo.Scan(memo.Key(trace), shapes, fabric.DefaultLatencies(), tc.phys, dead, &probes)
			sameWindows(t, what+" first", first, probes, want, wantProbes)

			clear(memo.results)
			probes = 0
			again := memo.Scan(memo.Key(trace), shapes, fabric.DefaultLatencies(), tc.phys, dead, &probes)
			if len(memo.results) != 0 {
				t.Fatalf("%s: the repeat scan ran Map %d times", what, len(memo.results))
			}
			if &again[0] != &first[0] {
				t.Fatalf("%s: the repeat scan built a new list", what)
			}
			sameWindows(t, what+" repeat", again, probes, want, wantProbes)

			probes = 0
			got := memo.Scan(memo.Key(trace), shapes, fabric.DefaultLatencies(), tc.phys, moved, &probes)
			if len(memo.results) == 0 {
				t.Fatalf("%s: a moved dead mask mapped nothing", what)
			}
			want, wantProbes = scanDirect(trace, shapes, tc.phys, moved)
			sameWindows(t, what+" moved", got, probes, want, wantProbes)

			probes = 0
			var none *Memo
			got = none.Scan(none.Key(trace), shapes, fabric.DefaultLatencies(), tc.phys, moved, &probes)
			sameWindows(t, what+" nil memo", got, probes, want, wantProbes)
		}
	}
}
