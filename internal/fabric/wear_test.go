package fabric

import "testing"

func TestWearAccrualAndVersion(t *testing.T) {
	g := NewGeometry(2, 4)
	w := NewWear(g)
	if w.version != 0 {
		t.Fatalf("fresh wear version %d, want 0", w.version)
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if y := w.YearsAt(Cell{Row: r, Col: c}); y != 0 {
				t.Fatalf("fresh wear at (%d,%d) = %v, want 0", r, c, y)
			}
		}
	}

	if !w.Add(Cell{Row: 0, Col: 1}, 1.5) {
		t.Fatal("positive accrual rejected")
	}
	if w.version != 1 {
		t.Fatalf("version after one Add = %d, want 1", w.version)
	}
	if got := w.YearsAt(Cell{Row: 0, Col: 1}); got != 1.5 {
		t.Fatalf("YearsAt = %v, want 1.5", got)
	}
	w.Add(Cell{Row: 0, Col: 1}, 0.5)
	if got := w.YearsAt(Cell{Row: 0, Col: 1}); got != 2.0 {
		t.Fatalf("accumulated YearsAt = %v, want 2.0", got)
	}

	// Zero/negative deltas and out-of-range cells leave state and version
	// untouched: memoizing callers rely on the version only moving on change.
	v := w.version
	if w.Add(Cell{Row: 0, Col: 0}, 0) || w.Add(Cell{Row: 1, Col: 2}, -1) ||
		w.Add(Cell{Row: 5, Col: 5}, 1) {
		t.Error("no-op accruals reported a change")
	}
	if w.version != v {
		t.Errorf("no-op accruals moved version %d -> %d", v, w.version)
	}
	if w.YearsAt(Cell{Row: 9, Col: 9}) != 0 {
		t.Error("out-of-range cell reads nonzero wear")
	}

	w.Add(Cell{Row: 1, Col: 3}, 7)
	max, cell := w.Max()
	if max != 7 || cell != (Cell{Row: 1, Col: 3}) {
		t.Errorf("Max = %v at %v, want 7 at (1,3)", max, cell)
	}
}
