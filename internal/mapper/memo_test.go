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

// anchoredMask kills a random set of physical cells and returns the
// predicate the remap rescue builds for one anchor: shape cell c is
// disabled when the physical cell it lands on under anchor is dead.
func anchoredMask(r *rand.Rand, phys fabric.Geometry) func(fabric.Cell) bool {
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
	return func(c fabric.Cell) bool { return h.Dead(anchor.Apply(c, phys)) }
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
// columns, consumed entries and probes — on the miss and on every hit, and
// each hit is a distinct configuration. One memo serves every kernel, so a
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
			disabled := anchoredMask(r, phys)
			if mi == 0 {
				disabled = nil
			}
			for _, shape := range shapes {
				opt := Options{Geom: shape, Lat: fabric.DefaultLatencies(), Disabled: disabled}
				want := mapDirect(trace, opt)
				first := mapMemo(memo, k, opt)
				sameMapping(t, "first", first, want)
				again := mapMemo(memo, memo.Key(trace), opt)
				sameMapping(t, "hit", again, want)
				hits++
				if want.cfg != nil && first.cfg == again.cfg {
					t.Fatalf("trace %d shape %v: two calls returned the same *Config", ti, shape)
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
// another dead cell, each maps afresh, while a mask that differs only
// outside the shape's window shares the stored result.
func TestMemoKeysOnContent(t *testing.T) {
	trace := []TraceEntry{
		alu(0x1000, isa.T0, isa.A0, isa.A1),
		alu(0x1004, isa.T1, isa.A0, isa.A2),
		alu(0x1008, isa.T2, isa.A0, isa.A3),
	}
	other := append([]TraceEntry(nil), trace...)
	other[1].Inst = isa.Inst{Op: isa.MUL, Rd: isa.T1, Rs1: isa.T0, Rs2: isa.A2}
	deadAt := func(cells ...fabric.Cell) func(fabric.Cell) bool {
		return func(c fabric.Cell) bool {
			for _, d := range cells {
				if c == d {
					return true
				}
			}
			return false
		}
	}
	g := fabric.NewGeometry(2, 4)
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
		{"dead cell in window", trace, func(o Options) Options {
			o.Disabled = deadAt(fabric.Cell{Row: 0, Col: 0})
			return o
		}, true},
		{"dead cell outside window", trace, func(o Options) Options {
			o.Disabled = deadAt(fabric.Cell{Row: 5, Col: 9})
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

// TestMapAsksOnlyInsideGeom pins the premise the memo's key rests on: Map
// queries Disabled only for cells inside opt.Geom, so the predicate's
// answers over those cells determine the placement.
func TestMapAsksOnlyInsideGeom(t *testing.T) {
	phys := fabric.NewGeometry(2, 16)
	r := rand.New(rand.NewSource(5))
	queries := 0
	for _, trace := range suiteTraces(t, 4) {
		for _, shape := range fabric.DefaultShapeLadder().Shapes(phys) {
			inner := anchoredMask(r, phys)
			recording := func(c fabric.Cell) bool {
				queries++
				if c.Row < 0 || c.Row >= shape.Rows || c.Col < 0 || c.Col >= shape.Cols {
					t.Fatalf("Map asked about %v outside %v", c, shape)
				}
				return inner(c)
			}
			Map(trace, Options{Geom: shape, Lat: fabric.DefaultLatencies(), Disabled: recording})
		}
	}
	if queries == 0 {
		t.Fatal("Map never consulted Disabled")
	}
}
