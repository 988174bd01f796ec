package explore

import (
	"math"
	"math/rand"
	"testing"

	"agingcgra/internal/fabric"
)

// scanGeoms are the differential tests' fabrics: pivot sets of one word
// (1×32, 32×1, 2×16, 4×8), two (8×16, and 3×29 with a partial last
// word) and four (16×16).
var scanGeoms = []fabric.Geometry{
	fabric.NewGeometry(1, 32),
	fabric.NewGeometry(32, 1),
	fabric.NewGeometry(2, 16),
	fabric.NewGeometry(4, 8),
	fabric.NewGeometry(8, 16),
	fabric.NewGeometry(3, 29),
	fabric.NewGeometry(16, 16),
}

// scanCase is one pivot scan's input: the projection table, a footprint,
// the live pivots (nil: all) and the held pivot (-1: none).
type scanCase struct {
	geom  fabric.Geometry
	cells []fabric.Cell
	yProj []float64
	live  []bool
	held  int
}

// bruteScan is the exhaustive scan: every live pivot scored in row-major
// order, each with its running maximum starting at zero, keeping the
// first pivot of the least (maximum, total).
func bruteScan(c scanCase) scanResult {
	best := scanResult{idx: -1}
	var bestMax, bestSum float64
	n := c.geom.NumFUs()
	for p := 0; p < n; p++ {
		if c.live != nil && !c.live[p] {
			continue
		}
		best.cells += uint64(len(c.cells))
		off := fabric.Offset{Row: p / c.geom.Cols, Col: p % c.geom.Cols}
		maxY, sumY := 0.0, 0.0
		for _, cell := range c.cells {
			q := off.Apply(cell, c.geom)
			y := c.yProj[q.Row*c.geom.Cols+q.Col]
			sumY += y
			if y > maxY {
				maxY = y
			}
		}
		if best.idx < 0 || maxY < bestMax || (maxY == bestMax && sumY < bestSum) {
			best.idx, bestMax, bestSum = p, maxY, sumY
		}
	}
	return best
}

// checkScan runs the descent on c and compares it with bruteScan.
func checkScan(t *testing.T, c scanCase) {
	t.Helper()
	e := New(c.geom)
	copy(e.yProj, c.yProj)
	got := e.scanPivots(c.cells, coverOf(c.geom, c.cells), c.live, c.held)
	want := bruteScan(c)
	if got.idx != want.idx || got.cells != want.cells {
		t.Fatalf("%v, %d cells %v, held %d: scan chose pivot %d counting %d cells, exhaustive scan %d counting %d",
			c.geom, len(c.cells), c.cells, c.held, got.idx, got.cells, want.idx, want.cells)
	}
}

// coverOf returns the cover table on g of a configuration occupying cells.
func coverOf(g fabric.Geometry, cells []fabric.Cell) []uint64 {
	cfg := &fabric.Config{Geom: g}
	for i, cell := range cells {
		cfg.Ops = append(cfg.Ops, fabric.PlacedOp{Seq: i, Row: cell.Row, Col: cell.Col, Width: 1})
	}
	return cfg.Cover(g)
}

// randomFootprint places up to 12 distinct cells in a random window
// smaller than the fabric where it can be, so shifted footprints wrap.
func randomFootprint(rng *rand.Rand, g fabric.Geometry) []fabric.Cell {
	h, w := 1+rng.Intn(g.Rows), 1+rng.Intn(g.Cols)
	if h == g.Rows && w == g.Cols && g.NumFUs() > 1 {
		if g.Rows > 1 {
			h--
		} else {
			w--
		}
	}
	r0, c0 := rng.Intn(g.Rows-h+1), rng.Intn(g.Cols-w+1)
	n := rng.Intn(min(12, h*w) + 1)
	seen := map[fabric.Cell]bool{}
	var cells []fabric.Cell
	for len(cells) < n {
		cell := fabric.Cell{Row: r0 + rng.Intn(h), Col: c0 + rng.Intn(w)}
		if !seen[cell] {
			seen[cell] = true
			cells = append(cells, cell)
		}
	}
	return cells
}

// randomProjection fills a projection table in one of four regimes:
// continuous, quantised to quarter years (ties on the maximum and the
// total), all zero (every candidate ties), and non-finite (an infinite
// horizon: stressed cells +Inf, unstressed ones 0·Inf = NaN).
func randomProjection(rng *rand.Rand, n, regime int) []float64 {
	y := make([]float64, n)
	for i := range y {
		switch regime {
		case 0:
			y[i] = rng.Float64() * 4
		case 1:
			y[i] = float64(rng.Intn(5)) / 4
		case 3:
			switch rng.Intn(3) {
			case 0:
				y[i] = math.Inf(1)
			case 1:
				y[i] = math.NaN()
			default:
				y[i] = float64(rng.Intn(3))
			}
		}
	}
	return y
}

// randomLive returns a live mask with no, one, some or every pivot live,
// or nil.
func randomLive(rng *rand.Rand, n int) []bool {
	kind := rng.Intn(5)
	if kind == 0 {
		return nil
	}
	live := make([]bool, n)
	switch kind {
	case 2:
		live[rng.Intn(n)] = true
	case 3:
		for i := range live {
			live[i] = rng.Intn(3) > 0
		}
	case 4:
		for i := range live {
			live[i] = true
		}
	}
	return live
}

// TestScanMatchesExhaustiveScan compares the blocked-pivot descent with
// the exhaustive argmin on seeded random inputs over every geometry,
// projection regime, live-mask kind and held pivot (none, live, dead).
func TestScanMatchesExhaustiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, g := range scanGeoms {
		n := g.NumFUs()
		for trial := 0; trial < 400; trial++ {
			c := scanCase{
				geom:  g,
				cells: randomFootprint(rng, g),
				yProj: randomProjection(rng, n, trial%4),
				live:  randomLive(rng, n),
				held:  rng.Intn(n+1) - 1,
			}
			checkScan(t, c)
		}
	}
}

// TestExploreMatchesExhaustiveScan drives the scan through Explore, with
// projections built from wear and committed stress and live pivots from
// random dead cells: the chosen offset and the SearchCounts of every scan
// match the exhaustive scan's, with no held pivot and with a random one.
func TestExploreMatchesExhaustiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range scanGeoms {
		n := g.NumFUs()
		for trial := 0; trial < 60; trial++ {
			cells := randomFootprint(rng, g)
			cfg := &fabric.Config{Geom: g}
			for i, cell := range cells {
				cfg.Ops = append(cfg.Ops, fabric.PlacedOp{Seq: i, Row: cell.Row, Col: cell.Col, Width: 1})
			}
			e := New(g)
			h := fabric.NewHealth(g)
			for i, dead := 0, rng.Intn(3)*rng.Intn(n/4+1); i < dead; i++ {
				h.Kill(fabric.Cell{Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)})
			}
			w := fabric.NewWear(g)
			quantised := trial%2 == 0
			for i := 0; i < n; i++ {
				if quantised {
					w.Add(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, float64(rng.Intn(3))/2)
				} else {
					w.Add(fabric.Cell{Row: i / g.Cols, Col: i % g.Cols}, rng.Float64())
				}
			}
			e.SetHealth(h)
			e.SetWear(w)
			for i := rng.Intn(4); i > 0; i-- {
				e.ObserveStress(cells, fabric.Offset{Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}, uint64(1+rng.Intn(3)))
			}
			for round := 0; round < 2; round++ {
				if round == 1 {
					st := e.state(cfg)
					st.off = fabric.Offset{Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}
					st.explored = true
				}
				before := e.SearchCounts()
				off := e.Explore(cfg)
				want := bruteScan(scanCase{geom: g, cells: cfg.Cells(), yProj: e.yProj, live: cfg.LivePivots(h)})
				wantOff := fabric.Offset{}
				if want.idx >= 0 {
					wantOff = fabric.Offset{Row: want.idx / g.Cols, Col: want.idx % g.Cols}
				}
				if off != wantOff {
					t.Fatalf("%v trial %d round %d: Explore chose %v, exhaustive scan %v", g, trial, round, off, wantOff)
				}
				got := e.SearchCounts().Sub(before)
				if got.PivotScans != 1 || got.PivotProjections != uint64(n) || got.PivotCells != want.cells {
					t.Fatalf("%v trial %d round %d: counted %+v, want 1 scan, %d projections, %d cells",
						g, trial, round, got, n, want.cells)
				}
			}
		}
	}
}

// decodeScan builds a scan input from fuzz bytes: a geometry, a
// footprint, a projection regime with its values, a live mask and a held
// pivot, each drawn from the next bytes (zeros once they run out).
func decodeScan(data []byte) scanCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	g := scanGeoms[next()%len(scanGeoms)]
	n := g.NumFUs()
	c := scanCase{geom: g, yProj: make([]float64, n)}
	h, w := 1+next()%g.Rows, 1+next()%g.Cols
	seen := map[fabric.Cell]bool{}
	for i := next() % 13; i > 0; i-- {
		cell := fabric.Cell{Row: next() % h, Col: next() % w}
		if !seen[cell] {
			seen[cell] = true
			c.cells = append(c.cells, cell)
		}
	}
	regime := next() % 3
	for i := range c.yProj {
		b := next()
		switch regime {
		case 0:
			c.yProj[i] = float64(b) / 37
		case 1:
			c.yProj[i] = float64(b % 4)
		}
	}
	if kind := next() % 3; kind > 0 {
		c.live = make([]bool, n)
		for i := range c.live {
			c.live[i] = kind == 2 || next()%4 > 0
		}
	}
	c.held = next()%(n+1) - 1
	return c
}

// FuzzExploreScan checks the blocked-pivot descent against the
// exhaustive scan on inputs decoded from the fuzz bytes.
func FuzzExploreScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 3, 4, 0, 0, 0, 1, 1, 0, 1, 9, 200, 30, 7})
	f.Add([]byte{6, 15, 15, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, decodeScan(data))
	})
}
