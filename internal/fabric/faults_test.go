package fabric

import "testing"

func TestFaultsSetClampAndAt(t *testing.T) {
	g := NewGeometry(2, 4)
	f := NewFaults(g)
	if f.At(Cell{Row: 0, Col: 0}) != 0 {
		t.Fatal("fresh fault map should be all zero")
	}
	if f.Risky() {
		t.Fatal("fresh fault map should not be risky")
	}
	if !f.Set(Cell{Row: 0, Col: 1}, 0.25) {
		t.Error("first set should report a change")
	}
	if got := f.At(Cell{Row: 0, Col: 1}); got != 0.25 {
		t.Errorf("At = %v, want 0.25", got)
	}
	if !f.Risky() {
		t.Error("non-zero probability should make the map risky")
	}
	// Clamping: out-of-range probabilities land on the boundary.
	f.Set(Cell{Row: 1, Col: 0}, 3.0)
	if got := f.At(Cell{Row: 1, Col: 0}); got != 1 {
		t.Errorf("At after Set(3.0) = %v, want clamp to 1", got)
	}
	f.Set(Cell{Row: 1, Col: 1}, -0.5)
	if got := f.At(Cell{Row: 1, Col: 1}); got != 0 {
		t.Errorf("At after Set(-0.5) = %v, want clamp to 0", got)
	}
	// Out-of-range cells: no-op set, zero read.
	if f.Set(Cell{Row: 9, Col: 0}, 0.5) {
		t.Error("out-of-range set should be rejected")
	}
	if f.At(Cell{Row: 9, Col: 0}) != 0 {
		t.Error("out-of-range cells must read zero probability")
	}
}

func TestFaultsVersionBumpsOnlyOnChange(t *testing.T) {
	f := NewFaults(NewGeometry(2, 4))
	v0 := f.version
	if !f.Set(Cell{Row: 0, Col: 0}, 0.1) {
		t.Fatal("first set should change")
	}
	v1 := f.version
	if v1 == v0 {
		t.Error("version must change when a probability changes")
	}
	if f.Set(Cell{Row: 0, Col: 0}, 0.1) {
		t.Error("repeated identical set should report no change")
	}
	if f.version != v1 {
		t.Error("version must not change on a no-op set")
	}
	// Clamped writes that land on the stored value are no-ops too: the
	// epoch memo keys on this version, so a quiescent fault field must not
	// force re-simulation.
	f.Set(Cell{Row: 1, Col: 1}, 0)
	if f.version != v1 {
		t.Error("writing zero over zero must not move the version")
	}
}

func TestFaultsRiskyTracksCount(t *testing.T) {
	f := NewFaults(NewGeometry(2, 4))
	c := Cell{Row: 0, Col: 2}
	f.Set(c, 0.3)
	if !f.Risky() {
		t.Fatal("risky after raising one cell")
	}
	f.Set(c, 0)
	if f.Risky() {
		t.Error("clearing the only risky cell should clear Risky")
	}
}
