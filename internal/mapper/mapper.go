// Package mapper implements the DBT's instruction-to-fabric placement: the
// "traditional energy-efficient mapping" of the paper. Operations are
// placed greedily at the earliest data-ready column and the first available
// row, which is exactly the policy that biases utilization toward the
// top-left corner of the fabric (Fig. 1) and motivates the
// utilization-aware allocator.
package mapper

import (
	"sync"

	"agingcgra/internal/fabric"
	"agingcgra/internal/isa"
)

// TraceEntry is one dynamically captured instruction, in execution order.
type TraceEntry struct {
	// PC is the instruction address.
	PC uint32
	// Inst is the decoded instruction.
	Inst isa.Inst
	// Taken is the observed direction for control transfers.
	Taken bool
}

// MinOps is the smallest configuration worth offloading: the DBT refuses
// to translate a shorter trace, and the remap rescue never substitutes a
// shorter prefix. Both layers read this one definition.
const MinOps = 4

// Options configures placement.
type Options struct {
	// Geom is the target fabric.
	Geom fabric.Geometry
	// Lat gives per-class column spans; every mapped class must span at
	// least one column (fabric.DefaultLatencies).
	Lat fabric.LatencyTable
	// Dead marks failed FU cells the mapper must route around, in Geom's
	// own frame (bit r*Geom.Cols+c for cell (r, c); fabric.Mask.Window
	// builds it for a shape anchored on a larger fabric): the end-of-life
	// degradation scenario of the paper's introduction, where dead FUs
	// progressively limit ILP.
	Dead fabric.Mask
	// Probes, when non-nil, accumulates the number of FU cell probes
	// (occupancy + health checks of the greedy row search) the placement
	// performed. The shape searches pass a counter here so the
	// searchcost model can price their scans from the work actually done
	// instead of a worst-case bound.
	Probes *uint64
}

// Map places the longest prefix of trace that fits the fabric under the
// greedy first-fit policy and returns the resulting virtual configuration
// plus the number of trace entries consumed. It returns (nil, 0) when not
// even the first entry can be placed. The configuration's Ops has exactly
// its length as capacity.
//
// Placement constraints:
//   - data dependencies: an op starts no earlier than the end column of
//     each of its producers (values travel left to right on context lines);
//   - memory: the data cache accepts one read and one write per cycle
//     ("one read and one write", Section III.A), so loads (stores) reserve
//     the read (write) port for their issue window of ColumnsPerCycle
//     columns; latencies overlap but issue is serialised. Loads and stores
//     are not reordered around stores (no disambiguation);
//   - stores are non-speculative: they start after every earlier branch;
//   - context-line pressure: the number of live values crossing any column
//     boundary may not exceed Geom.CtxLines;
//   - system instructions and indirect jumps (jalr) are never mapped.
func Map(trace []TraceEntry, opt Options) (*fabric.Config, int) {
	if err := opt.Geom.Validate(); err != nil {
		return nil, 0
	}
	s := newPlaceState(opt)
	defer s.release()
	usedCols := 0

	for i, e := range trace {
		op, ok := s.place(i, e)
		if !ok {
			break
		}
		s.ops = append(s.ops, op)
		if e := op.EndCol(); e > usedCols {
			usedCols = e
		}
	}
	if len(s.ops) == 0 {
		return nil, 0
	}
	// One copy sized exactly: the configuration outlives the scratch, and
	// a memoized one is kept for the whole scenario.
	ops := make([]fabric.PlacedOp, len(s.ops))
	copy(ops, s.ops)
	consumed := ops[len(ops)-1].Seq + 1
	return &fabric.Config{
		StartPC:  trace[0].PC,
		Geom:     opt.Geom,
		Ops:      ops,
		UsedCols: usedCols,
	}, consumed
}

type liveValue struct {
	endCol  int // column from which the value is available
	lastUse int // highest consumer start column so far
	// injectable marks values served by the input context: the wrap-around
	// 2:1 multiplexer injects them at any column, so they occupy a context
	// line only at the boundaries where they are actually consumed, not
	// end-to-end. Live-ins and translation-time constants qualify.
	injectable bool
	// injectedLow/injectedHigh record the boundaries already counted for an
	// injectable value, so two consumers at one column share the line. The
	// bitmask covers boundaries below 64 — every fabric in the sweep space —
	// with a lazily allocated map behind it for wider geometries.
	injectedLow  uint64
	injectedHigh map[int]bool
}

func (v *liveValue) isInjected(b int) bool {
	if b < 64 {
		return v.injectedLow&(1<<uint(b)) != 0
	}
	return v.injectedHigh[b]
}

func (v *liveValue) setInjected(b int) {
	if b < 64 {
		v.injectedLow |= 1 << uint(b)
		return
	}
	if v.injectedHigh == nil {
		v.injectedHigh = make(map[int]bool)
	}
	v.injectedHigh[b] = true
}

// placeState is the mapper's working state. It is pooled and reused across
// Map calls: the shape searches run Map once per (shape × anchor) candidate,
// and a fresh pair of maps plus five slices per probe dominated the
// allocation profile of the translation-time ladder. Values live in an
// arena slice indexed through a fixed register file, so placement does no
// map operations at all on fabrics narrower than 64 columns.
type placeState struct {
	opt  Options
	rows int
	cols int

	occ       []bool // FU occupancy, row-major
	readPort  []bool // data-cache read port per column
	writePort []bool // data-cache write port per column

	// regValue maps each architectural register to the value currently
	// holding it within the configuration: an index+1 into the values
	// arena, 0 when the register has not been seen yet.
	regValue [isa.NumRegs]int32
	values   []liveValue
	crossing []int // live values crossing each column boundary

	ops []fabric.PlacedOp // the placed prefix, copied out by Map

	lastStoreEnd  int // loads/stores may not start before this
	lastMemEnd    int // stores may not start before this
	lastBranchEnd int // stores may not start before this (non-speculative)
}

var statePool = sync.Pool{New: func() any { return new(placeState) }}

func newPlaceState(opt Options) *placeState {
	g := opt.Geom
	s := statePool.Get().(*placeState)
	s.opt = opt
	s.rows, s.cols = g.Rows, g.Cols
	s.occ = resetBools(s.occ, g.Rows*g.Cols)
	s.readPort = resetBools(s.readPort, g.Cols)
	s.writePort = resetBools(s.writePort, g.Cols)
	s.regValue = [isa.NumRegs]int32{}
	s.values = s.values[:0]
	s.ops = s.ops[:0]
	if cap(s.crossing) < g.Cols+1 {
		s.crossing = make([]int, g.Cols+1)
	} else {
		s.crossing = s.crossing[:g.Cols+1]
		clear(s.crossing)
	}
	s.lastStoreEnd, s.lastMemEnd, s.lastBranchEnd = 0, 0, 0
	return s
}

// release returns the state to the pool. Nothing in it is referenced by the
// produced Config — Map copies the ops out — so reuse is safe.
func (s *placeState) release() {
	s.opt.Probes = nil // drop the caller's counter
	statePool.Put(s)
}

func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// newValue appends a value to the arena and binds register r to it.
func (s *placeState) newValue(r isa.Reg, v liveValue) {
	s.values = append(s.values, v)
	s.regValue[r] = int32(len(s.values))
}

// sourceValue resolves the value feeding register r, registering a live-in
// on first use. The zero register is a constant and never travels on a
// line; it resolves to nil.
func (s *placeState) sourceValue(r isa.Reg) *liveValue {
	if r == isa.X0 {
		return nil
	}
	id := s.regValue[r]
	if id == 0 {
		// Live-ins are fed by the input context: available at column 0,
		// injectable at any column via the wrap-around 2:1 mux.
		s.newValue(r, liveValue{endCol: 0, lastUse: -1, injectable: true})
		id = s.regValue[r]
	}
	return &s.values[id-1]
}

// earliestCol returns the first column the entry may start at, from data,
// memory and speculation constraints.
func (s *placeState) earliestCol(in isa.Inst) int {
	c := 0
	if in.ReadsRs1() {
		if v := s.sourceValue(in.Rs1); v != nil && v.endCol > c {
			c = v.endCol
		}
	}
	if in.ReadsRs2() {
		if v := s.sourceValue(in.Rs2); v != nil && v.endCol > c {
			c = v.endCol
		}
	}
	if in.IsLoad() && s.lastStoreEnd > c {
		c = s.lastStoreEnd
	}
	if in.IsStore() {
		if s.lastMemEnd > c {
			c = s.lastMemEnd
		}
		if s.lastBranchEnd > c {
			c = s.lastBranchEnd
		}
	}
	return c
}

// ctxFits checks whether extending the source values' live ranges to a
// consumer at column col would exceed the context-line budget, and commits
// the extension if it fits. Injectable values (live-ins, constants) only
// occupy the consumer's own boundary; produced values occupy every
// boundary from their producer to the consumer.
func (s *placeState) ctxFits(in isa.Inst, col int, commit bool) bool {
	// Register both source values up front: exts holds pointers into the
	// values arena, and a live-in registration appends to it — resolving
	// first keeps the pointers stable while they are held.
	if in.ReadsRs1() {
		s.sourceValue(in.Rs1)
	}
	if in.ReadsRs2() {
		s.sourceValue(in.Rs2)
	}
	// Gather per-boundary increments from both sources (a value used twice
	// still occupies one line).
	type ext struct {
		v        *liveValue
		from, to int
	}
	var exts [2]ext
	n := 0
	add := func(r isa.Reg) {
		if r == isa.X0 {
			return
		}
		v := s.sourceValue(r)
		if v == nil {
			return
		}
		// Already extended by the other operand of this op?
		for i := 0; i < n; i++ {
			if exts[i].v == v {
				return
			}
		}
		if v.injectable {
			if !v.isInjected(col) {
				exts[n] = ext{v: v, from: col, to: col}
				n++
			}
			return
		}
		from := v.lastUse + 1
		if from < v.endCol {
			from = v.endCol
		}
		if col >= from {
			exts[n] = ext{v: v, from: from, to: col}
			n++
		}
	}
	if in.ReadsRs1() {
		add(in.Rs1)
	}
	if in.ReadsRs2() {
		add(in.Rs2)
	}
	// Verify.
	for i := 0; i < n; i++ {
		for b := exts[i].from; b <= exts[i].to; b++ {
			inc := 1
			for j := 0; j < i; j++ {
				if b >= exts[j].from && b <= exts[j].to {
					inc++
				}
			}
			if s.crossing[b]+inc > s.opt.Geom.CtxLines {
				return false
			}
		}
	}
	if !commit {
		return true
	}
	for i := 0; i < n; i++ {
		for b := exts[i].from; b <= exts[i].to; b++ {
			s.crossing[b]++
		}
		if exts[i].to > exts[i].v.lastUse {
			exts[i].v.lastUse = exts[i].to
		}
		if exts[i].v.injectable {
			exts[i].v.setInjected(exts[i].to)
		}
	}
	return true
}

// place attempts to place trace entry seq and returns the placed op.
func (s *placeState) place(seq int, e TraceEntry) (fabric.PlacedOp, bool) {
	in := e.Inst
	class := in.Op.Class()

	switch class {
	case isa.ClassSys:
		return fabric.PlacedOp{}, false
	case isa.ClassJump:
		if in.Op == isa.JALR {
			// Indirect target: not translatable.
			return fabric.PlacedOp{}, false
		}
		// Direct jump: no FU. The link value is a translation-time
		// constant, injected through the input context like a live-in.
		if in.WritesRd() {
			s.newValue(in.Rd, liveValue{endCol: 0, lastUse: -1, injectable: true})
		}
		return fabric.PlacedOp{
			Seq: seq, PC: e.PC, Inst: in, Taken: e.Taken, Width: 0,
		}, true
	}

	width := s.opt.Lat.Columns(class)
	start := s.earliestCol(in)

	issue := fabric.ColumnsPerCycle
	if issue > width {
		issue = width
	}
	for col := start; col+width <= s.cols; col++ {
		if in.IsLoad() && s.portBusy(s.readPort, col, issue) {
			continue
		}
		if in.IsStore() && s.portBusy(s.writePort, col, issue) {
			continue
		}
		row := s.freeRow(col, width)
		if row < 0 {
			continue
		}
		if !s.ctxFits(in, col, false) {
			// Later columns only lengthen live ranges; give up.
			return fabric.PlacedOp{}, false
		}
		s.ctxFits(in, col, true)
		s.commit(seq, in, row, col, width)
		return fabric.PlacedOp{
			Seq: seq, PC: e.PC, Inst: in, Taken: e.Taken,
			Row: row, Col: col, Width: width,
		}, true
	}
	return fabric.PlacedOp{}, false
}

// portBusy reports whether the port is busy anywhere in [col, col+width).
func (s *placeState) portBusy(port []bool, col, width int) bool {
	for w := 0; w < width; w++ {
		if port[col+w] {
			return true
		}
	}
	return false
}

// freeRow returns the first row with [col, col+width) free and healthy, or
// -1. Scanning from row 0 is the greedy bias the paper describes.
func (s *placeState) freeRow(col, width int) int {
rowLoop:
	for r := 0; r < s.rows; r++ {
		base := r * s.cols
		for w := 0; w < width; w++ {
			if s.opt.Probes != nil {
				*s.opt.Probes++
			}
			if s.occ[base+col+w] {
				continue rowLoop
			}
			if s.opt.Dead.Has(base + col + w) {
				continue rowLoop
			}
		}
		return r
	}
	return -1
}

// commit records the placement's resource usage and dataflow effects.
func (s *placeState) commit(seq int, in isa.Inst, row, col, width int) {
	base := row * s.cols
	for w := 0; w < width; w++ {
		s.occ[base+col+w] = true
	}
	end := col + width
	issue := fabric.ColumnsPerCycle
	if issue > width {
		issue = width
	}
	switch {
	case in.IsLoad():
		for w := 0; w < issue; w++ {
			s.readPort[col+w] = true
		}
		if end > s.lastMemEnd {
			s.lastMemEnd = end
		}
	case in.IsStore():
		for w := 0; w < issue; w++ {
			s.writePort[col+w] = true
		}
		if end > s.lastMemEnd {
			s.lastMemEnd = end
		}
		if end > s.lastStoreEnd {
			s.lastStoreEnd = end
		}
	case in.IsBranch():
		if end > s.lastBranchEnd {
			s.lastBranchEnd = end
		}
	}
	if in.WritesRd() {
		s.newValue(in.Rd, liveValue{endCol: end, lastUse: -1})
	}
}
