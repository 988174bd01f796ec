package agingcgra

import (
	"bytes"
	"encoding/json"
	"testing"
)

// shapeSweepOpts is the reduced grid the determinism pin runs: 3 ladder
// variants × 2 failure scenarios over a short horizon.
func shapeSweepOpts(workers int) ShapeSweepOptions {
	return ShapeSweepOptions{
		Ladders:  []string{"halving", "full-only", "fine"},
		Failures: []string{"column", "columns:0+8"},
		MaxYears: 3,
		Workers:  workers,
	}
}

// TestShapeSweepDeterministic pins the (ladder × failure) preset: point
// order is the deterministic failure-major grid, serial and parallel runs
// are byte-identical, repeated runs reproduce the same bytes, and every
// point carries the derived search overhead the ladder cost — the numbers
// the cgra-dse -shape-sweep CSV output rests on.
func TestShapeSweepDeterministic(t *testing.T) {
	serial, err := ShapeSweep(shapeSweepOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ShapeSweep(shapeSweepOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ShapeSweep(shapeSweepOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	sj, err := json.MarshalIndent(serial, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	pj, _ := json.MarshalIndent(parallel, "", " ")
	aj, _ := json.MarshalIndent(again, "", " ")
	if !bytes.Equal(sj, pj) {
		t.Fatalf("serial and parallel sweeps differ:\n%s\n%s", sj, pj)
	}
	if !bytes.Equal(sj, aj) {
		t.Fatalf("repeated sweeps differ:\n%s\n%s", sj, aj)
	}

	if len(serial.Points) != 6 {
		t.Fatalf("%d points, want 6", len(serial.Points))
	}
	i := 0
	for _, failure := range []string{"column", "columns:0+8"} {
		for _, ladder := range []string{"halving", "full-only", "fine"} {
			pt := serial.Points[i]
			if pt.Failure != failure || pt.Ladder != ladder {
				t.Fatalf("point %d = (%s, %s), want (%s, %s)", i, pt.Failure, pt.Ladder, failure, ladder)
			}
			i++
		}
	}

	for _, pt := range serial.Points {
		// Richer ladders expand to more rungs; full-only is the degenerate
		// single-rung ladder.
		if pt.Ladder == "full-only" && pt.Rungs != 1 {
			t.Errorf("full-only ladder expanded to %d rungs", pt.Rungs)
		}
		if pt.Ladder == "fine" && pt.Rungs <= 7 {
			t.Errorf("fine ladder expanded to only %d rungs", pt.Rungs)
		}
		// Shape-aware translation keeps the kernel accelerating around a
		// single dead column, and the cost model prices every point's scans.
		if pt.Failure == "column" && pt.InitialSpeedup <= 1 {
			t.Errorf("column point %+v: no acceleration despite 30 live cells", pt)
		}
		if pt.SearchPerOffloadCycles <= 0 {
			t.Errorf("point %+v: derived search overhead missing", pt)
		}
	}

	if serial.Render() == "" || len(serial.CSVRows()) != len(serial.Points) {
		t.Error("render/CSV surface broken")
	}
}
