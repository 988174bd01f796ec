package fabric

import (
	"fmt"
	"slices"

	"agingcgra/internal/isa"
)

// PlacedOp is one instruction of a virtual configuration together with its
// position in the virtual (pivot-relative) coordinate system.
type PlacedOp struct {
	// Seq is the index of this op in the captured dynamic sequence.
	Seq int
	// PC is the instruction's address, used to follow the sequence during
	// replay.
	PC uint32
	// Inst is the instruction.
	Inst isa.Inst
	// Taken records, for control transfers, the branch direction observed
	// when the configuration was translated. Replay exits early when the
	// actual direction diverges.
	Taken bool
	// Row and Col place the op in virtual fabric coordinates.
	Row, Col int
	// Width is the number of columns the op spans (its latency class).
	Width int
}

// EndCol returns the first column after the op.
func (p PlacedOp) EndCol() int { return p.Col + p.Width }

// Config is a virtual CGRA configuration: a placed dynamic instruction
// sequence, pivot at (0,0). The utilization-aware allocator shifts the
// whole configuration by an Offset at load time; nothing in the Config
// itself changes.
//
// Every table derived from the placement — its cells, the replay tables,
// the live-pivot mask and the cover tables — is built once, on first use,
// and shared by every clone of the placement, so a placement kept again in
// a later epoch reads the tables an earlier one built. The exported fields
// must not change once any of them is read.
type Config struct {
	// StartPC indexes the configuration in the configuration cache.
	StartPC uint32
	// Geom is the fabric the configuration was placed for.
	Geom Geometry
	// Ops holds the placed operations in sequence order. Direct jumps have
	// Width 0: they consume no FU.
	Ops []PlacedOp
	// UsedCols is the highest EndCol over all ops.
	UsedCols int

	// cells is the placement's occupied cells, built by Cells. It lives
	// in the handle, not in derived: the mapping memo reads the cells of
	// every window it maps, and most windows are never kept, executed or
	// explored, so they never need the rest.
	cells []Cell
	d     *derived // built by shared, shared by every clone
}

// derived holds the tables computed from a placement besides its cells.
// Each is a pure function of the placement (the live mask also of the dead
// set liveKey names), so every clone reads the same ones.
type derived struct {
	// live is the pivot mask LivePivots last built and liveKey the health
	// content it was built for.
	live    []bool
	liveKey *liveKey

	// Replay accelerator tables, computed once on first use: the engine
	// replays hot configurations millions of times and batches its per-op
	// accounting through these prefix sums instead of re-deriving it per
	// retired instruction.
	execPrefix  []uint64    // [k] = exec cycles when the first k ops ran
	classPrefix [][8]uint64 // [k] = per-isa.Class op counts of the first k ops
	replayPCs   []uint32    // op addresses in sequence order
	replayDirs  []int8      // expected branch direction: -1 none, 0/1 not-taken/taken

	covers []cover // one per physical geometry Cover was asked for
}

// cover is a placement's cover table on one physical geometry.
type cover struct {
	geom  Geometry
	table []uint64
}

// shared returns the placement's derived tables, creating the (empty)
// struct on first use.
func (c *Config) shared() *derived {
	if c.d == nil {
		c.d = new(derived)
	}
	return c.d
}

// NumOps returns the number of instructions in the configuration.
func (c *Config) NumOps() int { return len(c.Ops) }

// Cells returns every FU cell occupied by the configuration, in a stable
// order, computed once. An op of width w occupies w consecutive cells in
// its row. The returned slice must not be modified.
func (c *Config) Cells() []Cell {
	if c.cells != nil {
		return c.cells
	}
	n := 0
	for _, op := range c.Ops {
		n += op.Width
	}
	cells := make([]Cell, 0, n)
	for _, op := range c.Ops {
		for w := 0; w < op.Width; w++ {
			cells = append(cells, Cell{Row: op.Row, Col: op.Col + w})
		}
	}
	// Stable order: row-major. Sorting makes the cells of overlapping ops
	// (which Validate rejects) adjacent, so one pass drops them.
	sortCells(cells)
	c.cells = slices.Compact(cells)
	return c.cells
}

// Clone returns a new Config with c's placement. It shares c's Ops, cells
// and derived tables, which nothing writes after they are built, but it is
// a distinct pointer, so callers that key state on the pointer see a
// distinct configuration.
func (c *Config) Clone() *Config {
	return &Config{StartPC: c.StartPC, Geom: c.Geom, Ops: c.Ops, UsedCols: c.UsedCols, cells: c.Cells(), d: c.shared()}
}

// LivePivots returns the configuration's live-pivot mask under h: entry
// r*Cols+c (h's geometry) reports whether loading the configuration at
// Offset{r, c} keeps every op on a live FU, exactly as
// h.PlacementOK(Cells(), Offset{r, c}). It is nil, every pivot live, when
// h is nil or has no dead cell. Rather than testing every pivot against
// every cell, a build clears the pivot each (dead cell, occupied cell)
// pair rules out, (dead − occupied) mod the geometry, so it costs dead
// cells × cells instead of pivots × cells. The mask is memoized, for every
// clone, for the geometry and dead cells it was built for, so any health
// map with the same dead cells reads it without a rebuild. The returned
// slice must not be modified, and is only valid until the next LivePivots
// call on any clone of the configuration.
func (c *Config) LivePivots(h *Health) []bool {
	if h == nil || h.deadCount == 0 {
		return nil
	}
	d := c.shared()
	if k := d.liveKey; k != nil && k.geom == h.geom && h.Matches(&k.dead) {
		return d.live
	}
	if h.key == nil {
		h.key = &liveKey{geom: h.geom, dead: h.dead}
	}
	d.liveKey = h.key
	rows, cols := h.geom.Rows, h.geom.Cols
	if len(d.live) != rows*cols {
		d.live = make([]bool, rows*cols)
	}
	for i := range d.live {
		d.live[i] = true
	}
	cells := c.Cells()
	h.dead.each(func(i int) {
		dr, dc := i/cols, i%cols
		for _, cell := range cells {
			d.live[(dr-cell.Row%rows+rows)%rows*cols+(dc-cell.Col%cols+cols)%cols] = false
		}
	})
	return d.live
}

// liveKey is the health content a live-pivot mask was built for, shared by
// pointer with the Health it came from.
type liveKey struct {
	geom Geometry
	dead Mask
}

// Cover returns the configuration's cover table on the physical geometry
// g: words nw*i onwards, nw = ceil(g.NumFUs()/64), hold the set of pivots
// whose placement of Cells occupies physical cell i, in Mask's layout. It
// is built once per geometry and shared by every clone; the returned slice
// must not be modified.
func (c *Config) Cover(g Geometry) []uint64 {
	d := c.shared()
	for _, t := range d.covers {
		if t.geom == g {
			return t.table
		}
	}
	n, nw, rows, cols := g.NumFUs(), (g.NumFUs()+63)>>6, g.Rows, g.Cols
	table := make([]uint64, n*nw)
	cells := c.Cells()
	for p := 0; p < n; p++ {
		pr, pc := p/cols, p%cols
		for _, cell := range cells {
			table[((cell.Row+pr)%rows*cols+(cell.Col+pc)%cols)*nw+p>>6] |= 1 << (p & 63)
		}
	}
	d.covers = append(d.covers, cover{geom: g, table: table})
	return table
}

func sortCells(cells []Cell) {
	// Insertion sort: cell lists are small and this avoids pulling in
	// sort.Slice allocations on a hot path.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0; j-- {
			a, b := cells[j-1], cells[j]
			if a.Row < b.Row || (a.Row == b.Row && a.Col <= b.Col) {
				break
			}
			cells[j-1], cells[j] = cells[j], cells[j-1]
		}
	}
}

// ExecCyclesTo returns the execution time, in processor cycles, of running
// the configuration up to and including the op at sequence position
// exitSeq (or the whole configuration when exitSeq is the last op).
func (c *Config) ExecCyclesTo(exitSeq int) uint64 {
	maxEnd := 0
	for _, op := range c.Ops {
		if op.Seq > exitSeq {
			break
		}
		if e := op.EndCol(); e > maxEnd {
			maxEnd = e
		}
	}
	return CyclesForColumns(maxEnd)
}

// ExecCycles returns the execution time of the full configuration.
func (c *Config) ExecCycles() uint64 { return CyclesForColumns(c.UsedCols) }

// prefixes returns the replay accelerator tables, building them on first
// use.
func (c *Config) prefixes() *derived {
	d := c.shared()
	if d.execPrefix != nil {
		return d
	}
	d.execPrefix = make([]uint64, len(c.Ops)+1)
	d.classPrefix = make([][8]uint64, len(c.Ops)+1)
	d.replayPCs = make([]uint32, len(c.Ops))
	d.replayDirs = make([]int8, len(c.Ops))
	maxEnd := 0
	var classes [8]uint64
	for i, op := range c.Ops {
		if e := op.EndCol(); e > maxEnd {
			maxEnd = e
		}
		classes[op.Inst.Op.Class()]++
		d.execPrefix[i+1] = CyclesForColumns(maxEnd)
		d.classPrefix[i+1] = classes
		d.replayPCs[i] = op.PC
		d.replayDirs[i] = -1
		if op.Inst.IsBranch() {
			d.replayDirs[i] = 0
			if op.Taken {
				d.replayDirs[i] = 1
			}
		}
	}
	// Zero ops executed still pays for the first op's column span,
	// mirroring ExecCyclesTo's exitSeq floor of Ops[0].Seq.
	if len(c.Ops) > 0 {
		d.execPrefix[0] = d.execPrefix[1]
	}
	return d
}

// ExecCyclesFirst returns the execution time when exactly the first n ops
// of the sequence executed: identical to ExecCyclesTo(Ops[n-1].Seq) (and,
// for n == 0, to ExecCyclesTo(Ops[0].Seq), the early-exit floor) but O(1)
// after the first call.
func (c *Config) ExecCyclesFirst(n int) uint64 {
	return c.prefixes().execPrefix[n]
}

// ClassCountsFirst returns per-isa.Class op counts of the first n ops,
// memoized like ExecCyclesFirst.
func (c *Config) ClassCountsFirst(n int) [8]uint64 {
	return c.prefixes().classPrefix[n]
}

// ReplayTables returns the sequence's op addresses and expected branch
// directions (-1 for non-branches, else 0/1) in the compact form the
// replay inner loop consumes. The slices are memoized and shared by every
// clone; callers must not modify them.
func (c *Config) ReplayTables() (pcs []uint32, dirs []int8) {
	d := c.prefixes()
	return d.replayPCs, d.replayDirs
}

// Validate checks the structural invariants of a placed configuration:
// every op within bounds, no two ops sharing an FU cell, UsedCols
// consistent, and sequence numbers strictly increasing.
func (c *Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	occupied := make(map[Cell]int)
	maxEnd := 0
	lastSeq := -1
	for i, op := range c.Ops {
		if op.Seq <= lastSeq {
			return fmt.Errorf("fabric: op %d sequence %d not increasing", i, op.Seq)
		}
		lastSeq = op.Seq
		if op.Width == 0 {
			continue // direct jump, no FU
		}
		if op.Row < 0 || op.Row >= c.Geom.Rows {
			return fmt.Errorf("fabric: op %d row %d outside geometry %v", i, op.Row, c.Geom)
		}
		if op.Col < 0 || op.EndCol() > c.Geom.Cols {
			return fmt.Errorf("fabric: op %d cols [%d,%d) outside geometry %v",
				i, op.Col, op.EndCol(), c.Geom)
		}
		for w := 0; w < op.Width; w++ {
			cell := Cell{Row: op.Row, Col: op.Col + w}
			if prev, dup := occupied[cell]; dup {
				return fmt.Errorf("fabric: ops %d and %d overlap at %v", prev, i, cell)
			}
			occupied[cell] = i
		}
		if e := op.EndCol(); e > maxEnd {
			maxEnd = e
		}
	}
	if c.UsedCols != maxEnd {
		return fmt.Errorf("fabric: UsedCols = %d, computed %d", c.UsedCols, maxEnd)
	}
	return nil
}
