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

	cells []Cell // cached occupied cells

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

// Clone returns a new Config with c's placement. It shares c's Ops and
// computed cells, which nothing writes after construction, but none of the
// per-Config memos (the live-pivot mask, the replay tables), so callers
// that key state on the pointer see a distinct configuration.
func (c *Config) Clone() *Config {
	return &Config{StartPC: c.StartPC, Geom: c.Geom, Ops: c.Ops, UsedCols: c.UsedCols, cells: c.cells}
}

// LivePivots returns the configuration's live-pivot mask under h: entry
// r*Cols+c (h's geometry) reports whether loading the configuration at
// Offset{r, c} keeps every op on a live FU, exactly as
// h.PlacementOK(Cells(), Offset{r, c}). It is nil, every pivot live, when
// h is nil or has no dead cell. Rather than testing every pivot against
// every cell, a build clears the pivot each (dead cell, occupied cell)
// pair rules out, (dead − occupied) mod the geometry, so it costs dead
// cells × cells instead of pivots × cells. The mask is memoized for the
// geometry and dead cells it was built for, so any health map with the
// same dead cells reads it without a rebuild. The returned slice must not
// be modified, and is only valid until the next LivePivots call.
func (c *Config) LivePivots(h *Health) []bool {
	if h == nil || h.deadCount == 0 {
		return nil
	}
	if k := c.liveKey; k != nil && k.geom == h.geom && h.Matches(&k.dead) {
		return c.live
	}
	if h.key == nil {
		h.key = &liveKey{geom: h.geom, dead: h.dead}
	}
	c.liveKey = h.key
	rows, cols := h.geom.Rows, h.geom.Cols
	if len(c.live) != rows*cols {
		c.live = make([]bool, rows*cols)
	}
	for i := range c.live {
		c.live[i] = true
	}
	cells := c.Cells()
	h.dead.each(func(i int) {
		dr, dc := i/cols, i%cols
		for _, cell := range cells {
			c.live[(dr-cell.Row%rows+rows)%rows*cols+(dc-cell.Col%cols+cols)%cols] = false
		}
	})
	return c.live
}

// liveKey is the health content a live-pivot mask was built for, shared by
// pointer so that a Config, cloned for every kept memo result, stays small.
type liveKey struct {
	geom Geometry
	dead Mask
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

// ensurePrefixes builds the replay accelerator tables.
func (c *Config) ensurePrefixes() {
	if c.execPrefix != nil {
		return
	}
	c.execPrefix = make([]uint64, len(c.Ops)+1)
	c.classPrefix = make([][8]uint64, len(c.Ops)+1)
	c.replayPCs = make([]uint32, len(c.Ops))
	c.replayDirs = make([]int8, len(c.Ops))
	maxEnd := 0
	var classes [8]uint64
	for i, op := range c.Ops {
		if e := op.EndCol(); e > maxEnd {
			maxEnd = e
		}
		classes[op.Inst.Op.Class()]++
		c.execPrefix[i+1] = CyclesForColumns(maxEnd)
		c.classPrefix[i+1] = classes
		c.replayPCs[i] = op.PC
		c.replayDirs[i] = -1
		if op.Inst.IsBranch() {
			c.replayDirs[i] = 0
			if op.Taken {
				c.replayDirs[i] = 1
			}
		}
	}
	// Zero ops executed still pays for the first op's column span,
	// mirroring ExecCyclesTo's exitSeq floor of Ops[0].Seq.
	if len(c.Ops) > 0 {
		c.execPrefix[0] = c.execPrefix[1]
	}
}

// ExecCyclesFirst returns the execution time when exactly the first n ops
// of the sequence executed: identical to ExecCyclesTo(Ops[n-1].Seq) (and,
// for n == 0, to ExecCyclesTo(Ops[0].Seq), the early-exit floor) but O(1)
// after the first call.
func (c *Config) ExecCyclesFirst(n int) uint64 {
	c.ensurePrefixes()
	return c.execPrefix[n]
}

// ClassCountsFirst returns per-isa.Class op counts of the first n ops,
// memoized like ExecCyclesFirst.
func (c *Config) ClassCountsFirst(n int) [8]uint64 {
	c.ensurePrefixes()
	return c.classPrefix[n]
}

// ReplayTables returns the sequence's op addresses and expected branch
// directions (-1 for non-branches, else 0/1) in the compact form the
// replay inner loop consumes. The slices are memoized; callers must not
// modify them.
func (c *Config) ReplayTables() (pcs []uint32, dirs []int8) {
	c.ensurePrefixes()
	return c.replayPCs, c.replayDirs
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
