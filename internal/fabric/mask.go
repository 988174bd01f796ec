package fabric

import "math/bits"

// Mask is a set of fabric cells, one bit per cell in row-major order: bit
// r*Cols+c stands for cell (r, c) of the geometry the set belongs to, and
// every bit past that geometry's cells is zero. Health keeps its failed
// cells in one, and the mapper reads the failed cells of its target shape
// from one. A Mask is a comparable value, so a memo can key on a dead set
// by content.
type Mask [MaxCells / 64]uint64

// Has reports whether bit i is set.
func (m *Mask) Has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// Hits reports whether shifting cells by off on g lands any of them on a
// cell of the set.
func (m *Mask) Hits(cells []Cell, off Offset, g Geometry) bool {
	for _, c := range cells {
		p := off.Apply(c, g)
		if m.Has(p.Row*g.Cols + p.Col) {
			return true
		}
	}
	return false
}

// Window returns the set seen through a shape anchored at anchor on the
// physical geometry phys, in the shape's own frame: bit r*shape.Cols+c of
// the result is m's bit for anchor.Apply(Cell{r, c}, phys), the physical
// cell the shape's cell (r, c) lands on. Each shape row is copied as runs
// of the physical row, split where the columns wrap.
func (m *Mask) Window(anchor Offset, shape, phys Geometry) Mask {
	var w Mask
	c0 := anchor.Col % phys.Cols
	for r := 0; r < shape.Rows; r++ {
		src := (r + anchor.Row) % phys.Rows * phys.Cols
		dst, c := r*shape.Cols, c0
		for n := shape.Cols; n > 0; {
			k := min(n, phys.Cols-c)
			w.copyBits(dst, m, src+c, k)
			dst, n, c = dst+k, n-k, 0
		}
	}
	return w
}

// copyBits ors the n bits of src starting at bit si into m at bit di.
func (m *Mask) copyBits(di int, src *Mask, si, n int) {
	for ; n > 0; di, si, n = di+64, si+64, n-64 {
		k := uint(min(n, 64))
		// Read k bits at si, straddling at most two words.
		w, s := si>>6, uint(si&63)
		v := src[w] >> s
		if s+k > 64 {
			v |= src[w+1] << (64 - s)
		}
		v &= 1<<k - 1
		// Write them at di, straddling at most two words.
		w, s = di>>6, uint(di&63)
		m[w] |= v << s
		if s+k > 64 {
			m[w+1] |= v >> (64 - s)
		}
	}
}

// each calls f with every set bit, in increasing order.
func (m *Mask) each(f func(i int)) {
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}
