package explore

import (
	"math"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/fabric"
)

// testConfig is an L-shaped three-cell configuration: wide enough that dead
// cells genuinely constrain placement, small enough that live placements
// exist until the fabric is nearly gone.
func testConfig(g fabric.Geometry) *fabric.Config {
	return &fabric.Config{
		StartPC: 0x1000,
		Geom:    g,
		Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1},
			{Seq: 1, Row: 0, Col: 1, Width: 1},
			{Seq: 2, Row: 1, Col: 0, Width: 1},
		},
		UsedCols: 2,
	}
}

// xorshift is the deterministic pseudo-random source the property tests
// derive wear patterns and kill orders from.
func xorshift(state *uint32) uint32 {
	*state ^= *state << 13
	*state ^= *state >> 17
	*state ^= *state << 5
	return *state
}

func anyLivePlacement(h *fabric.Health, cfg *fabric.Config, g fabric.Geometry) bool {
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if h.PlacementOK(cfg.Cells(), fabric.Offset{Row: r, Col: c}) {
				return true
			}
		}
	}
	return false
}

// TestNeverPlacesOnDeadFU kills cells one by one under an evolving wear map
// and checks the explorer's every proposal stays on live FUs for as long as
// any live placement exists.
func TestNeverPlacesOnDeadFU(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	cfg := testConfig(g)
	e := New(g)
	h := fabric.NewHealth(g)
	w := fabric.NewWear(g)
	e.SetHealth(h)
	e.SetWear(w)

	state := uint32(0x1234567)
	for kill := 0; kill < g.NumFUs(); kill++ {
		cell := fabric.Cell{
			Row: int(xorshift(&state)) % g.Rows,
			Col: int(xorshift(&state)) % g.Cols,
		}
		h.Kill(cell)
		w.Add(cell, float64(xorshift(&state)%100)/25)
		if !anyLivePlacement(h, cfg, g) {
			return // fabric exhausted: the controller falls back to the GPP
		}
		for i := 0; i < 40; i++ {
			off := e.Next(cfg)
			if !h.PlacementOK(cfg.Cells(), off) {
				t.Fatalf("after %d kills: explorer proposed dead placement %v (dead: %v)",
					h.DeadCount(), off, h.DeadCells())
			}
			e.ObserveStress(cfg.Cells(), off, uint64(10+i))
		}
	}
}

// TestNeverWorseThanSkipScan pins the explorer's defining property: its
// placement minimises the maximum projected ΔVt over every live pivot, so
// in particular it never scores worse than the skip-scan fallback it
// replaces (the pattern walk advanced to the first live pivot).
func TestNeverWorseThanSkipScan(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	cfg := testConfig(g)
	snake := alloc.Snake{}.Sequence(g)

	state := uint32(0xbeef)
	for trial := 0; trial < 50; trial++ {
		e := New(g)
		h := fabric.NewHealth(g)
		w := fabric.NewWear(g)
		for i := 0; i < g.NumFUs(); i++ {
			cell := fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}
			w.Add(cell, float64(xorshift(&state)%1000)/100)
			if xorshift(&state)%5 == 0 {
				h.Kill(cell)
			}
		}
		if !anyLivePlacement(h, cfg, g) {
			continue
		}
		e.SetHealth(h)
		e.SetWear(w)

		chosen := e.Next(cfg)
		chosenScore := e.Score(cfg, chosen)

		// Argmin over the whole live pivot space...
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				off := fabric.Offset{Row: r, Col: c}
				if !h.PlacementOK(cfg.Cells(), off) {
					continue
				}
				if s := e.Score(cfg, off); chosenScore > s+1e-15 {
					t.Fatalf("trial %d: explorer score %v at %v beaten by %v at %v",
						trial, chosenScore, chosen, s, off)
				}
			}
		}
		// ...which subsumes the skip-scan fallback: the first live pivot of
		// the snake walk, from any starting phase.
		for phase := range snake {
			for k := 0; k < len(snake); k++ {
				off := snake[(phase+k)%len(snake)]
				if h.PlacementOK(cfg.Cells(), off) {
					if s := e.Score(cfg, off); chosenScore > s+1e-15 {
						t.Fatalf("trial %d: explorer worse than skip-scan pivot %v", trial, off)
					}
					break
				}
			}
		}
	}
}

// TestWearSteersPlacement seeds heavy wear on the left half of the fabric
// and checks the explorer's placement avoids the most-degraded cells.
func TestWearSteersPlacement(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	cfg := testConfig(g)
	e := New(g)
	w := fabric.NewWear(g)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < 4; c++ {
			w.Add(fabric.Cell{Row: r, Col: c}, 2.5)
		}
	}
	e.SetWear(w)

	off := e.Next(cfg)
	for _, cell := range cfg.Cells() {
		p := off.Apply(cell, g)
		if y := w.YearsAt(p); y > 0 {
			t.Fatalf("placement %v touches worn cell %v (%.1f stress-years) although fresh cells fit",
				off, p, y)
		}
	}
}

// TestRecomputesOnWearChange pins the staleness rule: a wear update between
// executions forces an immediate re-exploration instead of waiting out the
// RecomputeEvery hold period.
func TestRecomputesOnWearChange(t *testing.T) {
	g := fabric.NewGeometry(1, 8)
	cfg := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	e := New(g, WithRecomputeEvery(1000))
	w := fabric.NewWear(g)
	e.SetWear(w)

	first := e.Next(cfg)
	if first != (fabric.Offset{}) {
		t.Fatalf("fresh fabric placement %v, want the zero offset", first)
	}
	// Age the held cell far past everything else: the held pivot is stale.
	w.Add(fabric.Cell{Row: 0, Col: 0}, 10)
	next := e.Next(cfg)
	if next == first {
		t.Fatalf("explorer held pivot %v across a wear change", next)
	}
	p := next.Apply(fabric.Cell{Row: 0, Col: 0}, g)
	if w.YearsAt(p) != 0 {
		t.Fatalf("re-exploration landed on worn cell %v", p)
	}
}

// TestHorizonProjectionIsFinite sanity-checks Score: projected ΔVt must be
// finite and monotone in accumulated wear.
func TestHorizonProjectionIsFinite(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	cfg := testConfig(g)
	e := New(g)
	w := fabric.NewWear(g)
	e.SetWear(w)

	s0 := e.Score(cfg, fabric.Offset{})
	if math.IsNaN(s0) || math.IsInf(s0, 0) || s0 < 0 {
		t.Fatalf("fresh-fabric score %v", s0)
	}
	w.Add(fabric.Cell{Row: 0, Col: 0}, 3)
	s1 := e.Score(cfg, fabric.Offset{})
	if !(s1 > s0) {
		t.Fatalf("score did not grow with wear: %v -> %v", s0, s1)
	}
}

// TestWithHorizonIgnoresBadValues: a horizon that is not finite and
// positive keeps the default, so Score stays finite.
func TestWithHorizonIgnoresBadValues(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := New(g, WithHorizon(h))
		if e.horizonYears != 1 {
			t.Errorf("WithHorizon(%v): horizon %v, want the default 1", h, e.horizonYears)
		}
		e.SetWear(fabric.NewWear(g))
		if s := e.Score(testConfig(g), fabric.Offset{}); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Errorf("WithHorizon(%v): fresh-fabric score %v", h, s)
		}
	}
	if e := New(g, WithHorizon(4)); e.horizonYears != 4 {
		t.Errorf("WithHorizon(4): horizon %v", e.horizonYears)
	}
}

// TestHeldPivotRevalidatedPerConfig regresses the small-fabric trap: the
// pivot held for one configuration's footprint must not be proposed for a
// different footprint it would dead-hit. The controller's skip-scan is
// bounded by NumFUs proposals, so on fabrics smaller than the hold period a
// stale proposal repeated NumFUs times would wrongly force a GPP fallback.
func TestHeldPivotRevalidatedPerConfig(t *testing.T) {
	g := fabric.NewGeometry(2, 4) // NumFUs = 8 < the 16-execution hold
	narrow := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	wide := &fabric.Config{
		StartPC: 0x2000,
		Geom:    g,
		Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1},
			{Seq: 1, Row: 1, Col: 0, Width: 1},
		},
		UsedCols: 1,
	}
	e := New(g)
	h := fabric.NewHealth(g)
	e.SetHealth(h)
	e.SetWear(fabric.NewWear(g))

	// Hold a pivot explored for the narrow footprint...
	held := e.Next(narrow)
	// ...then kill the cell directly below it, so the wide footprint
	// dead-hits at the held pivot while plenty of live placements remain.
	h.Kill(held.Apply(fabric.Cell{Row: 1, Col: 0}, g))
	// Burn the post-kill staleness recompute on the narrow config: its
	// single-cell footprint stays clear of the dead cell, so the held
	// pivot can legitimately survive this exploration.
	e.Next(narrow)

	for i := 0; i < g.NumFUs(); i++ {
		off := e.Next(wide)
		if !h.PlacementOK(wide.Cells(), off) {
			t.Fatalf("proposal %d for the wide footprint dead-hits at %v", i, off)
		}
	}
}

// TestHoldPeriodCountsCommittedExecutions regresses the hold-period
// accounting bug: the RecomputeEvery clock must advance on committed
// executions (ObserveStress), not on allocator proposals. The controller's
// dead-cell skip-scan calls Next up to NumFUs times per offload, so under
// the pre-fix per-proposal counting a skip-scan-heavy workload silently
// eroded RecomputeEvery=16 toward "recompute every offload" (and could
// re-explore mid-scan). The scenario drives exactly that mix: one
// placeable kernel committed once per round, plus one unplaceable kernel
// whose offload burns a full NumFUs-proposal skip-scan every round.
func TestHoldPeriodCountsCommittedExecutions(t *testing.T) {
	g := fabric.NewGeometry(2, 4) // NumFUs = 8, below the 16-commit hold
	narrow := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	// The wide kernel needs the whole fabric: one dead cell anywhere makes
	// it unplaceable, so the controller's Place loop proposes NumFUs times.
	var wideOps []fabric.PlacedOp
	for i := 0; i < g.NumFUs(); i++ {
		wideOps = append(wideOps, fabric.PlacedOp{
			Seq: i, Row: i / g.Cols, Col: i % g.Cols, Width: 1,
		})
	}
	wide := &fabric.Config{StartPC: 0x2000, Geom: g, Ops: wideOps, UsedCols: g.Cols}

	e := New(g) // RecomputeEvery = 16
	h := fabric.NewHealth(g)
	h.Kill(fabric.Cell{Row: 1, Col: 3})
	e.SetHealth(h)
	e.SetWear(fabric.NewWear(g))

	const rounds = 40
	for i := 0; i < rounds; i++ {
		// One committed offload of the placeable kernel...
		off := e.Next(narrow)
		if !h.PlacementOK(narrow.Cells(), off) {
			t.Fatalf("round %d: narrow proposal %v dead-hits", i, off)
		}
		e.ObserveStress(narrow.Cells(), off, 10)
		// ...then the controller's full skip-scan for the unplaceable one.
		for j := 0; j < g.NumFUs(); j++ {
			if off := e.Next(wide); h.PlacementOK(wide.Cells(), off) {
				t.Fatalf("round %d: wide kernel placed despite the dead cell at %v", i, off)
			}
		}
	}

	// 40 commits at RecomputeEvery=16 re-explore the narrow kernel at
	// commits 0, 16 and 32; the unplaceable wide kernel costs exactly one
	// exploration for the whole (unchanged) health state. Per-proposal
	// counting would have advanced the clock 9x per round and rescanned the
	// unplaceable footprint on every proposal — hundreds of explorations.
	if got := e.SearchCounts().PivotScans; got != 4 {
		t.Errorf("%d explorations over %d rounds, want 4 (3 narrow re-explorations + 1 wide no-live scan)",
			got, rounds)
	}
}

// TestHeldPivotKeyedPerConfig regresses the shared-pivot bug: with a
// multi-kernel mix the explorer used to hold one global pivot, so kernel B
// inherited a pivot explored for kernel A's footprint — liveness was
// revalidated but the wear score was not, and B could ride a
// wear-suboptimal placement for a whole hold period. Keyed per StartPC,
// each kernel's first proposal is the argmin for its own footprint.
func TestHeldPivotKeyedPerConfig(t *testing.T) {
	g := fabric.NewGeometry(2, 8)
	kernelA := &fabric.Config{ // single-cell footprint
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	kernelB := &fabric.Config{ // vertical pair: needs both rows of a column
		StartPC: 0x2000,
		Geom:    g,
		Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1},
			{Seq: 1, Row: 1, Col: 0, Width: 1},
		},
		UsedCols: 1,
	}

	e := New(g)
	// Background wear of 1y everywhere; (0,3) is the uniquely freshest
	// single cell (A's argmin) but its row-1 neighbour is the most worn
	// cell of the fabric, so the shared pivot would be the worst possible
	// inheritance for B, whose own argmin is the column-5 pair.
	fresh := fabric.Cell{Row: 0, Col: 3} // A's argmin
	pairCol := 5                         // B's argmin column
	w := fabric.NewWear(g)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			cell := fabric.Cell{Row: r, Col: c}
			switch {
			case cell == fresh: // 0y: A's unique argmin
			case cell == (fabric.Cell{Row: 1, Col: 3}):
				w.Add(cell, 5) // the trap below A's pivot
			case c == pairCol:
				w.Add(cell, 0.1) // B's argmin pair
			default:
				w.Add(cell, 1)
			}
		}
	}
	e.SetWear(w)

	offA := e.Next(kernelA)
	if got := offA.Apply(fabric.Cell{Row: 0, Col: 0}, g); got != fresh {
		t.Fatalf("kernel A placed on %v, want the freshest cell %v", got, fresh)
	}
	offB := e.Next(kernelB)
	worst := 0.0
	for _, cell := range kernelB.Cells() {
		if y := w.YearsAt(offB.Apply(cell, g)); y > worst {
			worst = y
		}
	}
	if worst > 0.1 {
		t.Errorf("kernel B inherited a wear-suboptimal pivot %v (worst cell %v stress-years); want its own argmin pair at column %d",
			offB, worst, pairCol)
	}
}
