package core

import (
	"math"
	"math/rand"
	"testing"

	"agingcgra/internal/alloc"
	"agingcgra/internal/explore"
	"agingcgra/internal/fabric"
)

func smallConfig(g fabric.Geometry) *fabric.Config {
	return &fabric.Config{
		StartPC: 0x1000,
		Geom:    g,
		Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1},
			{Seq: 1, Row: 0, Col: 1, Width: 1},
		},
		UsedCols: 2,
	}
}

func TestTrackerRecord(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	tr := NewTracker(g)
	cells := []fabric.Cell{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	tr.Record(cells, fabric.Offset{}, 10)
	tr.Record(cells, fabric.Offset{Row: 1, Col: 2}, 5)
	if tr.ActiveCycles() != 15 || tr.TotalExecs() != 2 {
		t.Fatalf("active=%d execs=%d", tr.ActiveCycles(), tr.TotalExecs())
	}
	if tr.StressCycles(0, 0) != 10 || tr.StressCycles(0, 1) != 10 {
		t.Error("first execution stress wrong")
	}
	if tr.StressCycles(1, 2) != 5 || tr.StressCycles(1, 3) != 5 {
		t.Error("offset execution stress wrong")
	}
	if tr.StressCycles(1, 0) != 0 {
		t.Error("untouched cell has stress")
	}
}

func TestUtilizationMapMetrics(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	tr := NewTracker(g)
	cells := []fabric.Cell{{Row: 0, Col: 0}}
	tr.Record(cells, fabric.Offset{}, 30)
	tr.Record(cells, fabric.Offset{}, 30)
	tr.Record(cells, fabric.Offset{Row: 1, Col: 1}, 40)
	u := tr.Utilization()
	if got := u.At(0, 0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("duty(0,0) = %v, want 0.6", got)
	}
	if got := u.At(1, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("duty(1,1) = %v, want 0.4", got)
	}
	maxD, cell := u.Max()
	if maxD != 0.6 || cell != (fabric.Cell{Row: 0, Col: 0}) {
		t.Errorf("Max = %v at %v", maxD, cell)
	}
	wantAvg := (0.6 + 0.4) / 8
	if got := u.Avg(); math.Abs(got-wantAvg) > 1e-12 {
		t.Errorf("Avg = %v, want %v", got, wantAvg)
	}
	if u.Min() != 0 {
		t.Errorf("Min = %v, want 0", u.Min())
	}
	// Presence metric: (0,0) present in 2 of 3 executions.
	if got := u.PresenceAt(0, 0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("presence(0,0) = %v", got)
	}
}

func TestControllerBaselineConcentratesStress(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	ctrl, err := NewController(g, alloc.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(g)
	for i := 0; i < 8; i++ {
		off, _ := ctrl.Place(cfg)
		ctrl.Commit(cfg, off, 10)
	}
	u := ctrl.Utilization()
	if u.At(0, 0) != 1.0 || u.At(0, 1) != 1.0 {
		t.Error("baseline should keep the config's home cells at 100% duty")
	}
	if u.At(1, 0) != 0 {
		t.Error("baseline should never touch other rows")
	}
}

func TestControllerRotationBalancesStress(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	ctrl, err := NewController(g, alloc.NewUtilizationAware(g))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(g)
	// One full epoch: 8 pivot positions.
	for i := 0; i < g.NumFUs(); i++ {
		off, _ := ctrl.Place(cfg)
		ctrl.Commit(cfg, off, 10)
	}
	u := ctrl.Utilization()
	// The 2-cell config visited every pivot once: every cell must have been
	// stressed exactly twice out of 8 executions -> duty 0.25 everywhere.
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if got := u.At(r, c); math.Abs(got-0.25) > 1e-12 {
				t.Errorf("duty(%d,%d) = %v, want 0.25", r, c, got)
			}
		}
	}
}

func TestControllerFeedsStressObserver(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	h := alloc.NewHealthAware(g, 1)
	ctrl, err := NewController(g, h)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(g)
	offs := make(map[fabric.Offset]bool)
	for i := 0; i < 8; i++ {
		off, _ := ctrl.Place(cfg)
		offs[off] = true
		ctrl.Commit(cfg, off, 10)
	}
	if len(offs) < 3 {
		t.Errorf("health-aware allocator never moved (visited %d offsets); stress feedback broken", len(offs))
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(fabric.Geometry{}, alloc.Baseline{}); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := NewController(fabric.NewGeometry(2, 4), nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

// Property: rotation preserves total stress (it only redistributes).
func TestRotationPreservesTotalStress(t *testing.T) {
	g := fabric.NewGeometry(4, 8)
	base, _ := NewController(g, alloc.Baseline{})
	rot, _ := NewController(g, alloc.NewUtilizationAware(g))
	cfg := smallConfig(g)
	for i := 0; i < 100; i++ {
		ob, _ := base.Place(cfg)
		base.Commit(cfg, ob, 7)
		or, _ := rot.Place(cfg)
		rot.Commit(cfg, or, 7)
	}
	sum := func(tr *Tracker) (s uint64) {
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				s += tr.StressCycles(r, c)
			}
		}
		return s
	}
	if sum(base.Tracker()) != sum(rot.Tracker()) {
		t.Errorf("total stress differs: baseline %d, rotated %d",
			sum(base.Tracker()), sum(rot.Tracker()))
	}
	// And the rotated max must be strictly lower.
	bMax, _ := base.Utilization().Max()
	rMax, _ := rot.Utilization().Max()
	if rMax >= bMax {
		t.Errorf("rotation did not reduce max duty: baseline %v, rotated %v", bMax, rMax)
	}
}

// wearSpy records the maps a controller forwards to a wear-adaptive
// allocator.
type wearSpy struct {
	alloc.Baseline
	wear   *fabric.Wear
	health *fabric.Health
}

func (s *wearSpy) SetWear(w *fabric.Wear)     { s.wear = w }
func (s *wearSpy) SetHealth(h *fabric.Health) { s.health = h }

// TestControllerForwardsWear pins the feedback plumbing the wear-aware
// explorer depends on: SetWear reaches alloc.WearSetter implementations and
// is exposed through Wear(), symmetrically to SetHealth/HealthSetter.
func TestControllerForwardsWear(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	spy := &wearSpy{}
	ctrl, err := NewController(g, spy)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Wear() != nil {
		t.Error("fresh controller has a wear map")
	}
	w := fabric.NewWear(g)
	ctrl.SetWear(w)
	if ctrl.Wear() != w {
		t.Error("Wear() does not return the attached map")
	}
	if spy.wear != w {
		t.Error("SetWear not forwarded to the wear-adaptive allocator")
	}
	h := fabric.NewHealth(g)
	ctrl.SetHealth(h)
	if spy.health != h {
		t.Error("SetHealth not forwarded to the health-adaptive allocator")
	}
}

// remapSpy is a minimal shape-adaptive allocator: Next always proposes the
// zero offset; RemapConfig keeps a successful translation and substitutes
// a fixed alternative for a blocked one.
type remapSpy struct {
	alloc.Baseline
	sub        *fabric.Config
	off        fabric.Offset
	ok         bool
	calls      int
	lastPlaced bool
}

func (s *remapSpy) RemapConfig(cfg *fabric.Config, off fabric.Offset, placed bool) (*fabric.Config, fabric.Offset, bool) {
	s.calls++
	s.lastPlaced = placed
	if placed {
		return cfg, off, true
	}
	return s.sub, s.off, s.ok
}

// TestPlaceOrRemap pins the controller's shape-adaptive seam: the ordinary
// path flows the translated placement through the remapper (which may keep
// it), a blocked placement lets alloc.ConfigRemapper substitute, and a
// failed remap is the GPP fallback.
func TestPlaceOrRemap(t *testing.T) {
	g := fabric.NewGeometry(2, 4)
	cfg := &fabric.Config{
		StartPC:  0x1000,
		Geom:     g,
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	sub := &fabric.Config{
		StartPC:  0x1000,
		Geom:     fabric.Geometry{Rows: 1, Cols: 4, CtxLines: g.CtxLines, CfgLines: g.CfgLines},
		Ops:      []fabric.PlacedOp{{Seq: 0, Row: 0, Col: 0, Width: 1}},
		UsedCols: 1,
	}
	spy := &remapSpy{sub: sub, off: fabric.Offset{Row: 1, Col: 2}, ok: true}
	ctrl, err := NewController(g, spy)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy: the remapper sees the successful placement and keeps it.
	got, _, ok := ctrl.PlaceOrRemap(cfg)
	if !ok || got != cfg {
		t.Fatalf("healthy PlaceOrRemap = (%v, ok=%v), want the original config", got, ok)
	}
	if spy.calls != 1 || !spy.lastPlaced {
		t.Fatalf("remapper saw (calls=%d, placed=%v), want the placed outcome", spy.calls, spy.lastPlaced)
	}

	// Kill the config's only cell: the baseline's zero pivot is dead, so the
	// controller must fall through to the remapper and return its substitute.
	h := fabric.NewHealth(g)
	h.Kill(fabric.Cell{Row: 0, Col: 0})
	ctrl.SetHealth(h)
	got, off, ok := ctrl.PlaceOrRemap(cfg)
	if !ok || got != sub || off != spy.off {
		t.Fatalf("blocked PlaceOrRemap = (%v, %v, ok=%v), want the substitute at %v", got, off, ok, spy.off)
	}
	if spy.calls != 2 || spy.lastPlaced {
		t.Fatalf("remapper saw (calls=%d, placed=%v), want the blocked outcome", spy.calls, spy.lastPlaced)
	}

	// A failing remap is the GPP fallback.
	spy.ok = false
	if _, _, ok := ctrl.PlaceOrRemap(cfg); ok {
		t.Fatal("PlaceOrRemap succeeded although both placement and remap failed")
	}

	// Non-remapping allocators keep the plain two-outcome contract.
	plain, err := NewController(g, alloc.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	plain.SetHealth(h)
	if _, _, ok := plain.PlaceOrRemap(cfg); ok {
		t.Fatal("baseline PlaceOrRemap succeeded on a dead pivot")
	}
}

// referencePlace is the skip-scan Place replaced: up to NumFUs proposals,
// each checked with Health.PlacementOK over every cell.
func referencePlace(a alloc.Allocator, h *fabric.Health, g fabric.Geometry, cfg *fabric.Config) (fabric.Offset, bool) {
	if h == nil || h.DeadCount() == 0 {
		return a.Next(cfg), true
	}
	for i := 0; i < g.NumFUs(); i++ {
		off := a.Next(cfg)
		if h.PlacementOK(cfg.Cells(), off) {
			return off, true
		}
	}
	return fabric.Offset{}, false
}

// TestPlaceMatchesReferenceWalk replays random Kill/Revive interleavings
// through a controller and through the reference walk, each over its own
// instance of the same allocator and the same health map. Offsets, ok
// flags and the allocators' later proposals must agree step for step.
func TestPlaceMatchesReferenceWalk(t *testing.T) {
	g := fabric.NewGeometry(4, 8)
	allocators := map[string]func() alloc.Allocator{
		"snake": func() alloc.Allocator { return alloc.NewUtilizationAware(g) },
		"row-major": func() alloc.Allocator {
			return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.RowMajor{}))
		},
		"diagonal": func() alloc.Allocator {
			return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.Diagonal{}))
		},
		// The two axis-only sequences are shorter than NumFUs, so a
		// refused placement wraps them several times.
		"horizontal-only": func() alloc.Allocator {
			return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.HorizontalOnly{}))
		},
		"vertical-only": func() alloc.Allocator {
			return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.VerticalOnly{}))
		},
		"shuffled": func() alloc.Allocator {
			return alloc.NewUtilizationAware(g, alloc.WithPattern(alloc.Shuffled{}))
		},
		// Allocators built for another geometry than the controller's
		// propose pivots that wrap into it: the live mask is indexed over
		// the controller's geometry, not theirs.
		"snake/built-for-8x4": func() alloc.Allocator { return alloc.NewUtilizationAware(fabric.NewGeometry(8, 4)) },
		"snake/built-for-6x8": func() alloc.Allocator { return alloc.NewUtilizationAware(fabric.NewGeometry(6, 8)) },
		"health-aware":        func() alloc.Allocator { return alloc.NewHealthAware(g, 4) },
		"explore":             func() alloc.Allocator { return explore.New(g) },
	}
	// Footprints of different sizes, one from a smaller remap shape, with
	// distinct StartPCs so the explorer holds a pivot per configuration.
	cfgs := []*fabric.Config{
		{StartPC: 0x1000, Geom: g, UsedCols: 2, Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 1}, {Seq: 1, Row: 0, Col: 1, Width: 1}}},
		{StartPC: 0x2000, Geom: g, UsedCols: 6, Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 0, Col: 0, Width: 4}, {Seq: 1, Row: 1, Col: 4, Width: 2}, {Seq: 2, Row: 3, Col: 1, Width: 1}}},
		{StartPC: 0x3000, Geom: fabric.NewGeometry(2, 4), UsedCols: 3, Ops: []fabric.PlacedOp{
			{Seq: 0, Row: 1, Col: 0, Width: 2}, {Seq: 1, Width: 0}, {Seq: 2, Row: 0, Col: 2, Width: 1}}},
	}
	for name, mk := range allocators {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			h := fabric.NewHealth(g)
			ctrl, err := NewController(g, mk())
			if err != nil {
				t.Fatal(err)
			}
			ctrl.SetHealth(h)
			ref := mk()
			if hs, ok := ref.(alloc.HealthSetter); ok {
				hs.SetHealth(h)
			}
			// Kills outpace revives until a third of the fabric is dead, so
			// placements mix first-proposal hits, long skip walks and GPP
			// fallbacks (about 7% of the placements).
			for step := 0; step < 600; step++ {
				switch p := r.Intn(20); {
				case p < 3:
					h.Kill(fabric.Cell{Row: r.Intn(g.Rows), Col: r.Intn(g.Cols)})
				case p == 3 || h.DeadCount() > g.NumFUs()/3:
					if dead := h.DeadCells(); len(dead) > 0 {
						h.Revive(dead[r.Intn(len(dead))])
					}
				default:
					cfg := cfgs[r.Intn(len(cfgs))]
					off, ok := ctrl.Place(cfg)
					wantOff, wantOK := referencePlace(ref, h, g, cfg)
					if off != wantOff || ok != wantOK {
						t.Fatalf("%s seed %d step %d (dead %v): Place = (%v, %v), reference (%v, %v)",
							name, seed, step, h.DeadCells(), off, ok, wantOff, wantOK)
					}
					if ok {
						cycles := uint64(1 + r.Intn(9))
						ctrl.Commit(cfg, off, cycles)
						if so, isObs := ref.(alloc.StressObserver); isObs {
							so.ObserveStress(cfg.Cells(), off, cycles)
						}
					}
				}
			}
			for i, cfg := range cfgs {
				if got, want := ctrl.Allocator().Next(cfg), ref.Next(cfg); got != want {
					t.Errorf("%s seed %d: next proposal for config %d = %v, reference %v", name, seed, i, got, want)
				}
			}
		}
	}
}
