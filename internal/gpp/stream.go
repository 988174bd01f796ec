package gpp

import (
	"fmt"
	"slices"

	"agingcgra/internal/isa"
)

// Stream is the recorded retire stream of one program run: the (PC, taken)
// sequence the core retired, one word per retire holding the instruction's
// text index shifted left by one with the taken bit in bit 0. Which
// retires the TransRec engine attributes to the GPP or the CGRA never
// changes what the program retires, so one recording drives every
// co-simulation of the program. A Stream is read-only once recorded and
// may be shared between goroutines.
type Stream struct {
	Prog    *isa.Program
	Retires []uint32
}

// Record runs c until it halts, at most limit retires, and returns what it
// retired. The core keeps the program's final architectural state, so the
// caller can validate the result the recorded run computed.
func Record(c *Core, limit uint64) (*Stream, error) {
	s := &Stream{Prog: c.Program()}
	if _, err := c.Run(limit, func(r Retire) {
		w := uint32(r.Index) << 1
		if r.Taken {
			w |= 1
		}
		s.Retires = append(s.Retires, w)
	}); err != nil {
		return nil, err
	}
	// Streams are memoized for the life of a process: drop append's slack.
	s.Retires = slices.Clone(s.Retires)
	return s, nil
}

// PC returns the address retire p executed at.
func (s *Stream) PC(p int) uint32 { return s.Prog.TextBase + s.Retires[p]>>1<<2 }

// Retire materialises retire p. NextPC is the address of retire p+1, or
// the instruction's own address after the final retire: a halted core's PC
// stays on its ECALL.
func (s *Stream) Retire(p int) Retire {
	w, next := s.Retires[p], s.Retires[p]
	if p+1 < len(s.Retires) {
		next = s.Retires[p+1]
	}
	base := s.Prog.TextBase
	return Retire{PC: base + w>>1<<2, Index: int(w >> 1), Inst: s.Prog.Text[w>>1],
		NextPC: base + next>>1<<2, Taken: w&1 == 1}
}

// Match is the replay rule of a translated instruction sequence, applied
// from retire p: the sequence follows the stream while the retired PCs
// equal pcs, stopping before the first op whose address diverges from the
// recorded control flow and after the first branch whose recorded
// direction differs from dirs (-1 marks non-branches, otherwise 0/1 is the
// expected not-taken/taken outcome). It returns the number of retires the
// sequence covers and whether it exited early. An op expected at the
// halted core's PC after the stream's final retire is a step after halt
// and an error.
func (s *Stream) Match(p int, pcs []uint32, dirs []int8) (n int, early bool, err error) {
	for n < len(pcs) {
		if p+n == len(s.Retires) {
			if p+n > 0 && s.PC(p+n-1) == pcs[n] {
				return n, true, fmt.Errorf("gpp: step after halt at pc %#x", pcs[n])
			}
			return n, true, nil
		}
		if s.PC(p+n) != pcs[n] {
			return n, true, nil
		}
		taken := s.Retires[p+n]&1 == 1
		n++
		if d := dirs[n-1]; d >= 0 && taken != (d == 1) {
			return n, true, nil
		}
	}
	return n, false, nil
}
