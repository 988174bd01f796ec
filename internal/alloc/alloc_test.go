package alloc

import (
	"testing"

	"agingcgra/internal/fabric"
)

func TestBaselineAlwaysOrigin(t *testing.T) {
	var b Baseline
	cfg := &fabric.Config{Geom: fabric.NewGeometry(2, 8)}
	for i := 0; i < 10; i++ {
		if off := b.Next(cfg); off != (fabric.Offset{}) {
			t.Fatalf("baseline moved: %v", off)
		}
	}
	if b.Name() != "baseline" {
		t.Error("name wrong")
	}
}

// fullCoverage asserts a pattern visits every grid position exactly once.
func fullCoverage(t *testing.T, p Pattern, g fabric.Geometry) {
	t.Helper()
	seq := p.Sequence(g)
	if len(seq) != g.NumFUs() {
		t.Fatalf("%s: sequence length %d, want %d", p.Name(), len(seq), g.NumFUs())
	}
	seen := make(map[fabric.Offset]bool)
	for _, o := range seq {
		if o.Row < 0 || o.Row >= g.Rows || o.Col < 0 || o.Col >= g.Cols {
			t.Fatalf("%s: offset %v out of bounds", p.Name(), o)
		}
		if seen[o] {
			t.Fatalf("%s: offset %v visited twice", p.Name(), o)
		}
		seen[o] = true
	}
}

func TestFullCoveragePatterns(t *testing.T) {
	geoms := []fabric.Geometry{
		fabric.NewGeometry(2, 16),
		fabric.NewGeometry(4, 32),
		fabric.NewGeometry(8, 32),
		fabric.NewGeometry(1, 8),
	}
	for _, g := range geoms {
		fullCoverage(t, Snake{}, g)
		fullCoverage(t, RowMajor{}, g)
		fullCoverage(t, Diagonal{}, g)
		fullCoverage(t, Shuffled{Seed: 42}, g)
	}
}

func TestSnakeAdjacency(t *testing.T) {
	// The snake moves one step at a time: consecutive offsets differ by one
	// column within a row, or one row at row changes (Fig. 3b).
	g := fabric.NewGeometry(4, 8)
	seq := Snake{}.Sequence(g)
	for i := 1; i < len(seq); i++ {
		dr := seq[i].Row - seq[i-1].Row
		dc := seq[i].Col - seq[i-1].Col
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		if dr+dc != 1 {
			t.Fatalf("snake step %d: %v -> %v is not adjacent", i, seq[i-1], seq[i])
		}
	}
}

func TestPartialPatterns(t *testing.T) {
	g := fabric.NewGeometry(4, 8)
	h := HorizontalOnly{}.Sequence(g)
	if len(h) != g.Cols {
		t.Errorf("horizontal-only length %d, want %d", len(h), g.Cols)
	}
	for _, o := range h {
		if o.Row != 0 {
			t.Errorf("horizontal-only moved vertically: %v", o)
		}
	}
	v := VerticalOnly{}.Sequence(g)
	if len(v) != g.Rows {
		t.Errorf("vertical-only length %d, want %d", len(v), g.Rows)
	}
	for _, o := range v {
		if o.Col != 0 {
			t.Errorf("vertical-only moved horizontally: %v", o)
		}
	}
}

func TestShuffledDeterministicPerSeed(t *testing.T) {
	g := fabric.NewGeometry(4, 8)
	a := Shuffled{Seed: 7}.Sequence(g)
	b := Shuffled{Seed: 7}.Sequence(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := Shuffled{Seed: 8}.Sequence(g)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestUtilizationAwareWalk(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	u := NewUtilizationAware(g)
	cfg := &fabric.Config{StartPC: 0x1000, Geom: g}
	seq := Snake{}.Sequence(g)
	for epoch := 0; epoch < 2; epoch++ {
		for i, want := range seq {
			if got := u.Next(cfg); got != want {
				t.Fatalf("epoch %d step %d: got %v, want %v", epoch, i, got, want)
			}
		}
	}
}

func TestUtilizationAwareName(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	if got := NewUtilizationAware(g).Name(); got != "utilization-aware/snake" {
		t.Errorf("name = %q", got)
	}
	if got := NewUtilizationAware(g, WithPattern(Diagonal{})).Name(); got != "utilization-aware/diagonal" {
		t.Errorf("name = %q", got)
	}
}

func TestHealthAwareAvoidsStressedCells(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	h := NewHealthAware(g, 1)
	cfg := &fabric.Config{
		StartPC: 0x1000,
		Geom:    g,
		Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1},
		},
		UsedCols: 1,
	}
	// Stress everything except (1,2) heavily.
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if r == 1 && c == 2 {
				continue
			}
			h.ObserveStress([]fabric.Cell{{Row: r, Col: c}}, fabric.Offset{}, 1000)
		}
	}
	off := h.Next(cfg)
	placed := off.Apply(fabric.Cell{Row: 0, Col: 0}, g)
	if placed != (fabric.Cell{Row: 1, Col: 2}) {
		t.Errorf("health-aware placed on %v, want the cold cell (1,2)", placed)
	}
}

// TestHealthAwareAvoidsDeadCells pins the failure-adaptive behavior: a
// dead cell must never attract the pivot search (dead cells stop accruing
// stress, so without the health exclusion their frozen-low stress would
// make bestOffset actively prefer them), and a kill forces an immediate
// recompute even while the pivot is held between recompute periods.
func TestHealthAwareAvoidsDeadCells(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	h := NewHealthAware(g, 16) // long hold: the kill must break it
	hm := fabric.NewHealth(g)
	h.SetHealth(hm)
	cfg := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	// Leave (1,2) cold so the search picks it, then kill it.
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if r == 1 && c == 2 {
				continue
			}
			h.ObserveStress([]fabric.Cell{{Row: r, Col: c}}, fabric.Offset{}, 1000)
		}
	}
	off := h.Next(cfg)
	if placed := off.Apply(fabric.Cell{Row: 0, Col: 0}, g); placed != (fabric.Cell{Row: 1, Col: 2}) {
		t.Fatalf("pre-kill placement on %v, want the cold cell (1,2)", placed)
	}
	hm.Kill(fabric.Cell{Row: 1, Col: 2})
	for i := 0; i < 4; i++ {
		off = h.Next(cfg)
		placed := off.Apply(fabric.Cell{Row: 0, Col: 0}, g)
		if placed == (fabric.Cell{Row: 1, Col: 2}) {
			t.Fatalf("call %d after kill still places on the dead cell", i)
		}
	}
}

func TestHealthAwareRecomputePeriod(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	h := NewHealthAware(g, 4)
	cfg := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	first := h.Next(cfg)
	for i := 0; i < 3; i++ {
		if got := h.Next(cfg); got != first {
			t.Fatal("pivot changed within hold period")
		}
	}
}

func TestHealthAwareBalancesOverTime(t *testing.T) {
	// Repeatedly executing one small config must spread stress instead of
	// hammering one cell.
	g := fabric.NewGeometry(2, 8)
	h := NewHealthAware(g, 1)
	cfg := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	for i := 0; i < 160; i++ {
		off := h.Next(cfg)
		h.ObserveStress(cfg.Cells(), off, 10)
	}
	var maxS, minS uint64 = 0, ^uint64(0)
	for _, s := range h.stress {
		if s > maxS {
			maxS = s
		}
		if s < minS {
			minS = s
		}
	}
	// 160 executions over 16 cells: perfectly balanced would be 100 each.
	if maxS > 2*minS+20 {
		t.Errorf("health-aware imbalance: min %d max %d", minS, maxS)
	}
}
