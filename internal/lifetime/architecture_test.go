package lifetime

import (
	"reflect"
	"testing"

	"agingcgra/internal/dbt"
	"agingcgra/internal/dse"
	"agingcgra/internal/fabric"
	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
	recov "agingcgra/internal/recover"
)

// TestFaultsNeverTouchArchitecture pins the premise of stream-driven
// epochs: on a degraded fabric (column 5 dead) under the default fault
// model and recovery policy, co-simulating the interpreting run
// (Engine.Run on a fresh core) and replaying the shared recorded stream
// (Engine.RunStream) with two monitors of the same seed give identical
// Reports and monitor statistics, and the interpreted core still computes
// the right result. Faults and placement change only where retires are
// accounted, never what retires.
func TestFaultsNeverTouchArchitecture(t *testing.T) {
	geom := fabric.NewGeometry(2, 16)
	dead, err := fabric.PatternCells("column:5", geom)
	if err != nil {
		t.Fatal(err)
	}
	var fm FaultModel
	fm.applyDefaults()
	refs := dse.NewRefCache()

	// run co-simulates one program on a fresh fabric: ground truth with
	// column 5 dead, every live cell worn to 90% of its lifetime so the
	// default fault model fires, and a monitor seeded identically per run.
	run := func(t *testing.T, drive func(*dbt.Engine) (*dbt.Report, error)) (*dbt.Report, recov.Stats) {
		truth, err := fabric.NewHealthWithDead(geom, dead)
		if err != nil {
			t.Fatal(err)
		}
		wear := fabric.NewWear(geom)
		for r := 0; r < geom.Rows; r++ {
			for c := 0; c < geom.Cols; c++ {
				wear.Add(fabric.Cell{Row: r, Col: c}, 0.9)
			}
		}
		faults := fabric.NewFaults(geom)
		updateFaults(faults, wear, truth, 1, fm)
		mon := recov.NewMonitor(geom, recov.Policy{}, truth, faults, 7)
		mon.BeginEpoch(0)
		eng, err := dbt.NewEngine(dbt.Options{Geom: geom, Health: mon.Observed(), Recovery: mon})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := drive(eng)
		if err != nil {
			t.Fatal(err)
		}
		st, _, _ := mon.EndEpoch()
		return rep, st
	}

	for _, name := range []string{"crc32", "sha"} {
		t.Run(name, func(t *testing.T) {
			b, _ := prog.ByName(name)
			ref, err := refs.Get(b, prog.Tiny, gpp.Timing{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := b.NewCore(prog.Tiny)
			if err != nil {
				t.Fatal(err)
			}
			interp, interpStats := run(t, func(e *dbt.Engine) (*dbt.Report, error) { return e.Run(c, b.MaxInstructions) })
			replay, replayStats := run(t, func(e *dbt.Engine) (*dbt.Report, error) { return e.RunStream(ref.Stream, ref.Words) })

			if interpStats.FaultedExecs == 0 || interpStats.DetectedFaults == 0 || interp.GPPFallbacks+interp.Remaps == 0 {
				t.Fatalf("scenario exercises nothing: faulted %d detected %d fallbacks+remaps %d",
					interpStats.FaultedExecs, interpStats.DetectedFaults, interp.GPPFallbacks+interp.Remaps)
			}
			if !reflect.DeepEqual(interp, replay) {
				t.Errorf("interpreting and stream-driven reports diverge\ninterp: %+v\nreplay: %+v", interp, replay)
			}
			if interpStats != replayStats {
				t.Errorf("monitor statistics diverge: %+v vs %+v", interpStats, replayStats)
			}
			if interp.TotalInstrs != uint64(len(ref.Stream.Retires)) {
				t.Errorf("accounted %d instructions, the stream retires %d", interp.TotalInstrs, len(ref.Stream.Retires))
			}
			if err := b.Check(c.Mem, c.Regs[isa.A0], prog.Tiny); err != nil {
				t.Errorf("wrong result on a degraded, faulty fabric: %v", err)
			}
		})
	}
}
