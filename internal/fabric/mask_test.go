package fabric

import (
	"encoding/binary"
	"testing"
)

// FuzzMaskWindow checks a window mask against the per-cell definition it
// replaces. For a fuzzed geometry of at most MaxCells cells, dead set,
// shape no larger than the geometry and anchor, bit (r, c) of the window
// is Dead(anchor.Apply(Cell{r, c}, phys)) and no bit past the shape's
// cells is set. The shape's cells the window reads as live form a
// configuration: its live-pivot mask agrees with PlacementOK at every
// pivot, and its own anchor is live. The 4x100 seed has rows that cross a
// mask word boundary.
func FuzzMaskWindow(f *testing.F) {
	f.Add(uint16(2), uint16(16), uint16(1), uint16(8), uint16(1), uint16(13), []byte{0, 0, 9, 0, 17, 0})
	f.Add(uint16(8), uint16(32), uint16(4), uint16(16), uint16(6), uint16(25), []byte{3, 0, 40, 0, 255, 0, 200, 0})
	f.Add(uint16(4), uint16(100), uint16(3), uint16(70), uint16(2), uint16(90), []byte{63, 0, 64, 0, 127, 0, 99, 1, 143, 1})
	f.Add(uint16(4), uint16(100), uint16(4), uint16(100), uint16(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, rows, cols, shapeRows, shapeCols, anchorRow, anchorCol uint16, dead []byte) {
		r := 1 + int(rows)%MaxCells
		phys := NewGeometry(r, 1+int(cols)%(MaxCells/r))
		shape := NewGeometry(1+int(shapeRows)%phys.Rows, 1+int(shapeCols)%phys.Cols)
		anchor := Offset{Row: int(anchorRow) % phys.Rows, Col: int(anchorCol) % phys.Cols}
		h := NewHealth(phys)
		for len(dead) >= 2 {
			i := int(binary.LittleEndian.Uint16(dead)) % phys.NumFUs()
			h.Kill(Cell{Row: i / phys.Cols, Col: i % phys.Cols})
			dead = dead[2:]
		}

		m := h.Mask()
		w := m.Window(anchor, shape, phys)
		var cfg Config
		for row := 0; row < shape.Rows; row++ {
			for col := 0; col < shape.Cols; col++ {
				want := h.Dead(anchor.Apply(Cell{Row: row, Col: col}, phys))
				if got := w.Has(row*shape.Cols + col); got != want {
					t.Fatalf("%v in %v at %v on %v: window bit %v, Dead %v", Cell{Row: row, Col: col}, shape, anchor, phys, got, want)
				}
				if !want {
					cfg.Ops = append(cfg.Ops, PlacedOp{Seq: len(cfg.Ops), Row: row, Col: col, Width: 1})
				}
			}
		}
		for i := shape.NumFUs(); i < MaxCells; i++ {
			if w.Has(i) {
				t.Fatalf("window of %v sets bit %d, past its %d cells", shape, i, shape.NumFUs())
			}
		}

		live := cfg.LivePivots(h)
		for p := 0; p < phys.NumFUs(); p++ {
			off := Offset{Row: p / phys.Cols, Col: p % phys.Cols}
			if got, want := live == nil || live[p], h.PlacementOK(cfg.Cells(), off); got != want {
				t.Fatalf("pivot %v: LivePivots %v, PlacementOK %v", off, got, want)
			}
		}
		if live != nil && !live[anchor.Row*phys.Cols+anchor.Col] {
			t.Fatalf("the window's live cells are not live at their own anchor %v", anchor)
		}
	})
}
