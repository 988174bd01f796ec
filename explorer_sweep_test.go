package agingcgra

import (
	"bytes"
	"encoding/json"
	"testing"
)

// sweepOpts is the reduced grid the determinism pin runs: 2 horizons × 2
// periods × 2 failure scenarios over a short horizon.
func sweepOpts(workers int) ExplorerSweepOptions {
	return ExplorerSweepOptions{
		Horizons: []float64{0.5, 2},
		Periods:  []int{8, 32},
		Failures: []string{"column", "survivor-row:1"},
		MaxYears: 3,
		Workers:  workers,
	}
}

// TestExplorerSweepDeterministic pins the (horizon × period × failure)
// preset: point order is the deterministic failure-major grid, serial and
// parallel runs are byte-identical, and repeated runs reproduce the same
// bytes — the property the cgra-dse preset's CSV output rests on.
func TestExplorerSweepDeterministic(t *testing.T) {
	serial, err := ExplorerSweep(sweepOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExplorerSweep(sweepOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	again, err := ExplorerSweep(sweepOpts(1))
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

	if len(serial.Points) != 8 {
		t.Fatalf("%d points, want 8", len(serial.Points))
	}
	i := 0
	for _, failure := range []string{"column", "survivor-row:1"} {
		for _, h := range []float64{0.5, 2} {
			for _, p := range []int{8, 32} {
				pt := serial.Points[i]
				if pt.Failure != failure || pt.HorizonYears != h || pt.Period != p {
					t.Fatalf("point %d = (%s, %v, %d), want (%s, %v, %d)",
						i, pt.Failure, pt.HorizonYears, pt.Period, failure, h, p)
				}
				i++
			}
		}
	}

	// The survivor-row cluster kills half the fabric up front; every point
	// must reflect it, and the explorer must still accelerate on what is
	// left of the healthy-column scenario.
	for _, pt := range serial.Points {
		switch pt.Failure {
		case "survivor-row:1":
			if pt.AliveFraction > 0.5+1e-9 {
				t.Errorf("survivor-row point %+v: alive fraction ignores the cluster", pt)
			}
		case "column":
			if pt.InitialSpeedup <= 1 {
				t.Errorf("column point %+v: no acceleration despite 30 live cells", pt)
			}
		}
	}

	if serial.Render() == "" || len(serial.CSVRows()) != len(serial.Points) {
		t.Error("render/CSV surface broken")
	}
}
