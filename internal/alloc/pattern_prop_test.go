package alloc

import (
	"testing"

	"agingcgra/internal/fabric"
)

// propGeometries is the geometry table the coverage property is checked
// over: the paper's scenario designs plus degenerate 1xN / Nx1 shapes and
// odd sizes that catch wrap-around and parity bugs.
var propGeometries = []struct{ rows, cols int }{
	{1, 1},
	{1, 2},
	{2, 1},
	{1, 7},
	{7, 1},
	{2, 2},
	{3, 3},
	{2, 16}, // BE
	{4, 32}, // BP
	{8, 32}, // BU
	{3, 7},
	{5, 4},
}

// TestFullCoveragePatternsVisitEveryOffsetOnce pins the invariant the
// paper's lifetime-improvement-equals-utilization-ratio claim rests on:
// a full-coverage movement pattern visits each of the Rows×Cols pivot
// offsets exactly once per period, so every FU sees close-to-average duty
// over one full rotation.
func TestFullCoveragePatternsVisitEveryOffsetOnce(t *testing.T) {
	patterns := []Pattern{Snake{}, RowMajor{}, Diagonal{}, Shuffled{}, Shuffled{Seed: 12345}}
	for _, pat := range patterns {
		for _, gg := range propGeometries {
			g := fabric.NewGeometry(gg.rows, gg.cols)
			seq := pat.Sequence(g)
			if len(seq) != g.NumFUs() {
				t.Errorf("%s on %v: sequence length %d, want %d",
					pat.Name(), g, len(seq), g.NumFUs())
				continue
			}
			seen := make(map[fabric.Offset]int, len(seq))
			for i, off := range seq {
				if off.Row < 0 || off.Row >= g.Rows || off.Col < 0 || off.Col >= g.Cols {
					t.Errorf("%s on %v: offset %d = %v out of range", pat.Name(), g, i, off)
				}
				seen[off]++
			}
			for off, n := range seen {
				if n != 1 {
					t.Errorf("%s on %v: offset %v visited %d times, want exactly once",
						pat.Name(), g, off, n)
				}
			}
			if len(seen) != g.NumFUs() {
				t.Errorf("%s on %v: %d distinct offsets, want %d",
					pat.Name(), g, len(seen), g.NumFUs())
			}
		}
	}
}

// TestAblationPatternsCoverTheirAxisOnce checks the partial-coverage
// ablations: horizontal-only visits every column exactly once (full
// coverage on 1-row fabrics), vertical-only every row (full coverage on
// 1-column fabrics).
func TestAblationPatternsCoverTheirAxisOnce(t *testing.T) {
	for _, gg := range propGeometries {
		g := fabric.NewGeometry(gg.rows, gg.cols)

		hseq := HorizontalOnly{}.Sequence(g)
		if len(hseq) != g.Cols {
			t.Errorf("horizontal-only on %v: length %d, want %d", g, len(hseq), g.Cols)
		}
		cols := make(map[int]bool)
		for _, off := range hseq {
			if off.Row != 0 {
				t.Errorf("horizontal-only on %v: offset %v moves vertically", g, off)
			}
			if cols[off.Col] {
				t.Errorf("horizontal-only on %v: column %d revisited", g, off.Col)
			}
			cols[off.Col] = true
		}

		vseq := VerticalOnly{}.Sequence(g)
		if len(vseq) != g.Rows {
			t.Errorf("vertical-only on %v: length %d, want %d", g, len(vseq), g.Rows)
		}
		rows := make(map[int]bool)
		for _, off := range vseq {
			if off.Col != 0 {
				t.Errorf("vertical-only on %v: offset %v moves horizontally", g, off)
			}
			if rows[off.Row] {
				t.Errorf("vertical-only on %v: row %d revisited", g, off.Row)
			}
			rows[off.Row] = true
		}
	}
}

// TestUtilizationAwareWalkMatchesPattern checks that the allocator actually
// walks its pattern's sequence cyclically, including across the wrap.
func TestUtilizationAwareWalkMatchesPattern(t *testing.T) {
	for _, gg := range propGeometries {
		g := fabric.NewGeometry(gg.rows, gg.cols)
		u := NewUtilizationAware(g)
		want := Snake{}.Sequence(g)
		for i := 0; i < 2*len(want)+3; i++ {
			got := u.Next(nil)
			if got != want[i%len(want)] {
				t.Fatalf("%v: step %d = %v, want %v", g, i, got, want[i%len(want)])
			}
		}
	}
}

// TestUtilizationAwareStepsMatchClosedForm pins the stepped walk to the
// closed form seq[i%len(seq)] over three full rotations, for every pattern,
// the two axis-only ones shorter than the fabric included.
func TestUtilizationAwareStepsMatchClosedForm(t *testing.T) {
	patterns := []Pattern{Snake{}, RowMajor{}, Diagonal{}, Shuffled{}, HorizontalOnly{}, VerticalOnly{}}
	for _, gg := range propGeometries {
		g := fabric.NewGeometry(gg.rows, gg.cols)
		for _, pat := range patterns {
			seq := pat.Sequence(g)
			u := NewUtilizationAware(g, WithPattern(pat))
			for i := range 3 * len(seq) {
				if got, want := u.Next(nil), seq[i%len(seq)]; got != want {
					t.Fatalf("%s on %v: step %d = %v, want %v", pat.Name(), g, i, got, want)
				}
			}
		}
	}
}
