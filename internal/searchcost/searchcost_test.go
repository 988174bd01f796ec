package searchcost

import "testing"

func TestAssessPricesFamiliesIndependently(t *testing.T) {
	m := Model{ScoreCycles: 1, ProjectCycles: 4, ProbeCycles: 2, EnergyPerCycleNJ: 0.5}
	c := Counts{
		PivotScans: 3, PivotCells: 100, PivotProjections: 32,
		RemapScans: 1, RemapCandidates: 7, RemapProbes: 40,
		LadderScans: 2, LadderCandidates: 12, LadderProbes: 30,
	}
	b := m.Assess(c)
	if want := 32*4.0 + 100*1.0; b.Explorer.Cycles != want {
		t.Errorf("explorer cycles %v, want %v", b.Explorer.Cycles, want)
	}
	if want := 40 * 2.0; b.Remap.Cycles != want {
		t.Errorf("remap cycles %v, want %v", b.Remap.Cycles, want)
	}
	if want := 30 * 2.0; b.Translation.Cycles != want {
		t.Errorf("translation cycles %v, want %v", b.Translation.Cycles, want)
	}
	total := b.Total()
	if want := b.Explorer.Cycles + b.Remap.Cycles + b.Translation.Cycles; total.Cycles != want {
		t.Errorf("total cycles %v, want %v", total.Cycles, want)
	}
	if want := total.Cycles * 0.5; total.EnergyNJ != want {
		t.Errorf("total energy %v, want %v", total.EnergyNJ, want)
	}
}

func TestZeroCountsCostNothing(t *testing.T) {
	b := DefaultModel().Assess(Counts{})
	if tot := b.Total(); tot.Cycles != 0 || tot.EnergyNJ != 0 {
		t.Errorf("zero counts priced at %+v", tot)
	}
	if !(Counts{}).Zero() {
		t.Error("zero value not Zero")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	a := Counts{PivotScans: 5, PivotCells: 50, RemapProbes: 9, LadderScans: 2, LadderProbes: 17}
	b := Counts{PivotScans: 2, PivotCells: 20, RemapProbes: 4, LadderScans: 1, LadderProbes: 10}
	var sum Counts
	sum.Add(a)
	sum.Add(b)
	if got := sum.Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
}

func TestPerOffloadAmortisation(t *testing.T) {
	c := Cost{Cycles: 100, EnergyNJ: 10}
	if got := c.PerOffload(4); got.Cycles != 25 || got.EnergyNJ != 2.5 {
		t.Errorf("per-offload = %+v", got)
	}
	if got := c.PerOffload(0); got != c {
		t.Errorf("zero offloads should return the undivided cost, got %+v", got)
	}
}
