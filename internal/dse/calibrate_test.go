package dse

import (
	"math"
	"testing"

	"agingcgra/internal/energy"
	"agingcgra/internal/fabric"
	"agingcgra/internal/prog"
)

// TestCalibrateEnergy grid-searches five energy constants against the
// paper's Fig. 6 anchors (BE 0.90x, BP 1.20x, BU 1.46x) and pins the
// result: the grid's argmin must be energy.Calibrated(), and under it
// L8,W2 must cost more than L16,W2 so the BE selection matches the paper.
// -v logs the calibrated ratios next to their targets.
func TestCalibrateEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration is slow")
	}
	anchors := []struct {
		geom   fabric.Geometry
		target float64
	}{
		{fabric.NewGeometry(2, 16), 0.90},
		{fabric.NewGeometry(4, 32), 1.20},
		{fabric.NewGeometry(8, 32), 1.46},
	}
	// Also keep an eye on L8,W2: it must cost MORE than L16,W2 so the BE
	// selection matches the paper.
	watch := fabric.NewGeometry(2, 8)

	type raw struct {
		res *SuiteResult
	}
	var rawAnchors []raw
	for _, a := range anchors {
		res, err := RunSuite(a.geom, BaselineFactory, Options{Size: prog.Small})
		if err != nil {
			t.Fatal(err)
		}
		rawAnchors = append(rawAnchors, raw{res})
	}
	watchRes, err := RunSuite(watch, BaselineFactory, Options{Size: prog.Small})
	if err != nil {
		t.Fatal(err)
	}

	ratioWith := func(m energy.Model, res *SuiteResult) float64 {
		var tr, gp float64
		for _, b := range res.PerBench {
			tr += m.TransRecEnergy(b.Report)
		}
		// GPP energy needs class counts; recompute from stored reports'
		// full class split (GPP-only classes equal total workload classes).
		for _, b := range res.PerBench {
			classes := b.Report.GPPClasses
			classes.Add(b.Report.CGRAClasses)
			gp += m.GPPEnergy(b.GPPCycles, classes)
		}
		return tr / gp
	}

	var best energy.Model
	bestErr := math.Inf(1)
	for _, gppStatic := range []float64{4, 6, 8, 10, 14, 18, 24} {
		for _, leak := range []float64{0.005, 0.01, 0.015, 0.02, 0.03, 0.04, 0.06, 0.08, 0.1, 0.14} {
			for _, perCtx := range []float64{0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8} {
				for _, opBase := range []float64{0.5, 1, 2, 3, 4, 5, 6} {
					for _, offCtx := range []float64{5, 10, 20, 30, 40} {
						m := energy.Calibrated()
						m.GPPStatic = gppStatic
						m.FULeak = leak
						m.CGRAOpPerCtxLine = perCtx
						m.CGRAOpBase = opBase
						m.OffloadCtx = offCtx
						var errSum float64
						for i, a := range anchors {
							r := ratioWith(m, rawAnchors[i].res)
							d := r - a.target
							errSum += d * d
						}
						// Hard constraint: L8,W2 must cost more than L16,W2
						// so BE selection matches the paper.
						if ratioWith(m, watchRes) <= ratioWith(m, rawAnchors[0].res) {
							continue
						}
						if errSum < bestErr {
							bestErr = errSum
							best = m
						}
					}
				}
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		t.Fatalf("no grid point keeps %v costlier than %v", watch, anchors[0].geom)
	}
	want := energy.Calibrated()
	if best != want {
		t.Errorf("grid argmin GPPStatic=%v FULeak=%v PerCtx=%v OpBase=%v OffloadCtx=%v; energy.Calibrated() has %v %v %v %v %v",
			best.GPPStatic, best.FULeak, best.CGRAOpPerCtxLine, best.CGRAOpBase, best.OffloadCtx,
			want.GPPStatic, want.FULeak, want.CGRAOpPerCtxLine, want.CGRAOpBase, want.OffloadCtx)
	}
	for i, a := range anchors {
		t.Logf("%v: ratio %.3f (target %.2f)", a.geom, ratioWith(want, rawAnchors[i].res), a.target)
	}
	if w, be := ratioWith(want, watchRes), ratioWith(want, rawAnchors[0].res); w <= be {
		t.Errorf("%v ratio %.3f is not above %v's %.3f", watch, w, anchors[0].geom, be)
	}
}
