package fabric

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestHealthKillAndQueries(t *testing.T) {
	g := NewGeometry(2, 4)
	h := NewHealth(g)
	if h.DeadCount() != 0 || h.AliveFraction() != 1 {
		t.Fatal("fresh health map should be all alive")
	}
	if !h.Kill(Cell{Row: 1, Col: 2}) {
		t.Fatal("first kill should report newly killed")
	}
	if h.Kill(Cell{Row: 1, Col: 2}) {
		t.Error("repeated kill should be idempotent")
	}
	if h.Kill(Cell{Row: 5, Col: 0}) {
		t.Error("out-of-range kill should be rejected")
	}
	if !h.Dead(Cell{Row: 1, Col: 2}) {
		t.Error("killed cell should read dead")
	}
	if h.Dead(Cell{Row: 0, Col: 0}) {
		t.Error("untouched cell should read alive")
	}
	if !h.Dead(Cell{Row: -1, Col: 0}) {
		t.Error("out-of-range cells must read dead")
	}
	if got, want := h.AliveFraction(), 7.0/8; got != want {
		t.Errorf("alive fraction %v, want %v", got, want)
	}
	if cells := h.DeadCells(); len(cells) != 1 || cells[0] != (Cell{Row: 1, Col: 2}) {
		t.Errorf("dead cells %v", cells)
	}
}

func TestHealthPlacementOK(t *testing.T) {
	g := NewGeometry(2, 4)
	h := NewHealth(g)
	h.Kill(Cell{Row: 0, Col: 0})
	cells := []Cell{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	if h.PlacementOK(cells, Offset{}) {
		t.Error("identity placement over a dead cell should fail")
	}
	if !h.PlacementOK(cells, Offset{Row: 1}) {
		t.Error("shifting to the live row should pass")
	}
	// Wrap-around: offset col 3 maps virtual col 1 onto physical col 0.
	if h.PlacementOK(cells, Offset{Col: 3}) {
		t.Error("wrapped placement over the dead cell should fail")
	}
}

func TestNewHealthWithDead(t *testing.T) {
	g := NewGeometry(2, 4)
	h, err := NewHealthWithDead(g, []Cell{{Row: 0, Col: 1}, {Row: 1, Col: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if h.DeadCount() != 2 {
		t.Errorf("dead count %d, want 2", h.DeadCount())
	}
	if _, err := NewHealthWithDead(g, []Cell{{Row: 9, Col: 9}}); err == nil {
		t.Error("out-of-range dead cell accepted")
	}
}

func TestHealthRevive(t *testing.T) {
	g := NewGeometry(2, 4)
	h := NewHealth(g)
	c := Cell{Row: 1, Col: 2}
	if h.Revive(c) {
		t.Error("reviving an alive cell should be a no-op")
	}
	h.Kill(c)
	if !h.Revive(c) {
		t.Fatal("reviving a dead cell should report a change")
	}
	if h.Dead(c) || h.DeadCount() != 0 {
		t.Error("revived cell should read alive again")
	}
	if h.Mask() != (Mask{}) {
		t.Error("revive must restore the pristine mask")
	}
	if h.Revive(c) {
		t.Error("repeated revive should be idempotent")
	}
	if h.Mask() != (Mask{}) {
		t.Error("no-op revive must not move the mask")
	}
	if h.Revive(Cell{Row: 5, Col: 0}) {
		t.Error("out-of-range revive should be rejected")
	}
}

// randomConfig builds a configuration on geometry g with up to maxOps ops of width 0–4 at random positions. Ops may overlap:
// Validate would reject that, but Cells and the pivot masks must not care.
func randomConfig(r *rand.Rand, g Geometry, maxOps int) *Config {
	cfg := &Config{StartPC: 0x1000, Geom: g}
	for i, n := 0, 1+r.Intn(maxOps); i < n; i++ {
		op := PlacedOp{Seq: i, Row: r.Intn(g.Rows), Col: r.Intn(g.Cols), Width: r.Intn(5)}
		if op.EndCol() > g.Cols {
			op.Width = g.Cols - op.Col
		}
		cfg.Ops = append(cfg.Ops, op)
	}
	return cfg
}

// checkLivePivots compares every entry of cfg's mask under h with
// PlacementOK for the same pivot. A nil mask, every pivot live, is for
// maps without a dead cell.
func checkLivePivots(t *testing.T, label string, cfg *Config, h *Health) {
	t.Helper()
	g := h.Geometry()
	live := cfg.LivePivots(h)
	if (live == nil) != (h.DeadCount() == 0) || live != nil && len(live) != g.NumFUs() {
		t.Fatalf("%s: mask has %d entries with %d dead cells, want %d or nil without dead cells",
			label, len(live), h.DeadCount(), g.NumFUs())
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			off := Offset{Row: r, Col: c}
			if got, want := live == nil || live[r*g.Cols+c], h.PlacementOK(cfg.Cells(), off); got != want {
				t.Fatalf("%s: pivot %v live = %v, PlacementOK = %v (cells %v, dead %v)",
					label, off, got, want, cfg.Cells(), h.DeadCells())
			}
		}
	}
}

// TestLivePivotsMatchesPlacementOK is the mask's defining property: for
// random geometries, dead sets and configurations — including smaller
// remap shapes placed on the full fabric — every entry equals PlacementOK.
func TestLivePivotsMatchesPlacementOK(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, gg := range []struct{ rows, cols int }{{1, 1}, {2, 16}, {4, 8}, {8, 32}} {
		g := NewGeometry(gg.rows, gg.cols)
		for trial := 0; trial < 200; trial++ {
			h := NewHealth(g)
			for i, n := 0, r.Intn(g.NumFUs()/4+2); i < n; i++ {
				h.Kill(Cell{Row: r.Intn(g.Rows), Col: r.Intn(g.Cols)})
			}
			shape := g
			if trial%2 == 1 {
				shape = NewGeometry(1+r.Intn(g.Rows), 1+r.Intn(g.Cols))
			}
			cfg := randomConfig(r, shape, 8)
			checkLivePivots(t, fmt.Sprintf("%v trial %d (shape %v)", g, trial, shape), cfg, h)
		}
	}
}

// TestLivePivotsInvalidation pins the memo key: the mask is keyed on the
// dead cells' content, not on which map holds them. Two maps with the same
// dead cells share one table without a rebuild, a Kill undone by a Revive
// gives the original answers, and a different dead set forces a rebuild.
func TestLivePivotsInvalidation(t *testing.T) {
	g := NewGeometry(2, 4)
	cfg := &Config{Geom: g, Ops: []PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 2}}, UsedCols: 2}
	h := NewHealth(g)
	checkLivePivots(t, "pristine", cfg, h)
	h.Kill(Cell{Row: 0, Col: 1})
	checkLivePivots(t, "after Kill", cfg, h)
	h.Revive(Cell{Row: 0, Col: 1})
	checkLivePivots(t, "after Revive", cfg, h)

	a, b := NewHealth(g), NewHealth(g)
	a.Kill(Cell{Row: 0, Col: 0})
	b.Kill(Cell{Row: 0, Col: 0})
	live := cfg.LivePivots(a)
	// Plant a wrong answer: only a rebuild would overwrite it.
	live[0] = true
	if got := cfg.LivePivots(b); &got[0] != &live[0] || !got[0] {
		t.Fatal("a map with the same dead cells rebuilt the table")
	}
	live[0] = false

	c := NewHealth(g)
	c.Kill(Cell{Row: 1, Col: 3})
	for i := 0; i < 3; i++ {
		checkLivePivots(t, "map a", cfg, a)
		checkLivePivots(t, "map c", cfg, c)
	}
}
