package explore

import (
	"math"
	"testing"

	"agingcgra/internal/aging"
	"agingcgra/internal/fabric"
)

// refState is the brute-force reference of the incremental projection: it
// mirrors every ObserveStress into its own stress table and recomputes the
// projection from the live fabric.Wear map on every query — exactly what
// the pre-incremental explorer did per scan.
type refState struct {
	geom    fabric.Geometry
	model   aging.Model
	horizon float64
	wear    *fabric.Wear
	stress  []uint64
	active  uint64
}

func newRefState(g fabric.Geometry, w *fabric.Wear) *refState {
	return &refState{
		geom:    g,
		model:   aging.NewModel(),
		horizon: 1,
		wear:    w,
		stress:  make([]uint64, g.NumFUs()),
	}
}

func (r *refState) observe(cells []fabric.Cell, off fabric.Offset, cycles uint64) {
	for _, c := range cells {
		p := off.Apply(c, r.geom)
		r.stress[p.Row*r.geom.Cols+p.Col] += cycles
	}
	r.active += cycles
}

// score is the reference objective: max over the footprint of
// ΔVt(wearYears + stress·horizon/active), evaluated per cell from scratch.
func (r *refState) score(cfg *fabric.Config, off fabric.Offset) float64 {
	k := 0.0
	if r.active > 0 {
		k = r.horizon / float64(r.active)
	}
	maxVt := 0.0
	for _, c := range cfg.Cells() {
		p := off.Apply(c, r.geom)
		y := r.wear.YearsAt(p) + float64(r.stress[p.Row*r.geom.Cols+p.Col])*k
		if vt := r.model.Cond.DeltaVt(y, 1); vt > maxVt {
			maxVt = vt
		}
	}
	return maxVt
}

// TestIncrementalProjectionMatchesFullRecompute drives the explorer through
// random interleavings of committed executions, hard deaths, probation
// revives (the recovery layer's observed-health flow) and cross-epoch wear
// advances, and pins after every step that the incrementally maintained
// projection scores exactly what a full per-cell recompute from the live
// maps produces — and that Explore's argmin is never beaten by any live
// pivot under the reference objective. It runs on the paper's 4x8 fabric
// with single-cell deaths and on an 8x16 fabric (128 pivots) whose deaths
// are clustered 2x2 blobs.
func TestIncrementalProjectionMatchesFullRecompute(t *testing.T) {
	for _, tc := range []struct {
		name string
		geom fabric.Geometry
		blob int // side of the square cluster one hard death kills
		seed uint32
	}{
		{"4x8", fabric.NewGeometry(4, 8), 1, 0xbeef01},
		{"8x16_clustered", fabric.NewGeometry(8, 16), 2, 0xfeed02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.geom
			cfg := testConfig(g)
			state := tc.seed
			for trial := 0; trial < 5; trial++ {
				h := fabric.NewHealth(g)
				w := fabric.NewWear(g)
				e := New(g)
				e.SetHealth(h)
				e.SetWear(w)
				ref := newRefState(g, w)

				for step := 0; step < 300; step++ {
					cell := fabric.Cell{
						Row: int(xorshift(&state)) % g.Rows,
						Col: int(xorshift(&state)) % g.Cols,
					}
					switch xorshift(&state) % 8 {
					case 0, 1, 2, 3: // committed execution at a random pivot
						off := fabric.Offset{Row: cell.Row, Col: cell.Col}
						cycles := uint64(xorshift(&state)%500 + 1)
						e.ObserveStress(cfg.Cells(), off, cycles)
						ref.observe(cfg.Cells(), off, cycles)
					case 4: // hard death of a blob x blob cluster
						for dr := 0; dr < tc.blob; dr++ {
							for dc := 0; dc < tc.blob; dc++ {
								h.Kill(fabric.Cell{Row: (cell.Row + dr) % g.Rows, Col: (cell.Col + dc) % g.Cols})
							}
						}
					case 5: // probation revive (observed-health flow)
						if dead := h.DeadCells(); len(dead) > 0 {
							h.Revive(dead[int(xorshift(&state))%len(dead)])
						}
					default: // cross-epoch wear advance
						w.Add(cell, float64(xorshift(&state)%1000)/4000.0)
					}

					// Score equality at a random pivot: incremental == recompute.
					off := fabric.Offset{
						Row: int(xorshift(&state)) % g.Rows,
						Col: int(xorshift(&state)) % g.Cols,
					}
					got := e.Score(cfg, off)
					want := ref.score(cfg, off)
					if math.Abs(got-want) > 1e-15*(1+math.Abs(want)) {
						t.Fatalf("%v trial %d step %d: incremental score %.18g != recompute %.18g at %v",
							g, trial, step, got, want, off)
					}

					if step%25 != 0 {
						continue
					}
					// Argmin optimality under the reference objective: no live
					// pivot beats the explorer's choice.
					chosen := e.Explore(cfg)
					if !h.PlacementOK(cfg.Cells(), chosen) && anyLivePlacement(h, cfg, g) {
						t.Fatalf("%v trial %d step %d: Explore chose dead placement %v with live pivots available",
							g, trial, step, chosen)
					}
					if h.PlacementOK(cfg.Cells(), chosen) {
						chosenScore := ref.score(cfg, chosen)
						for r := 0; r < g.Rows; r++ {
							for c := 0; c < g.Cols; c++ {
								off := fabric.Offset{Row: r, Col: c}
								if !h.PlacementOK(cfg.Cells(), off) {
									continue
								}
								if s := ref.score(cfg, off); s < chosenScore-1e-15*(1+chosenScore) {
									t.Fatalf("%v trial %d step %d: pivot %v scores %.18g, beats chosen %v at %.18g",
										g, trial, step, off, s, chosen, chosenScore)
								}
							}
						}
					}
				}
			}
		})
	}
}
