package gpp

import (
	"testing"

	"agingcgra/internal/isa"
)

// replayProg is the straight-line program the replay tests walk: a
// not-taken branch at index 3, then the halting ECALL at index 5.
func replayProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(`
_start:
	li   t0, 1
	li   t1, 2
	add  t2, t0, t1
	beq  t0, t1, skip
	add  t3, t2, t0
skip:
	ecall
`, isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// TestRecordDecodes pins the stream encoding: one word per retire, the
// taken bit, NextPC from the following retire and, after the final ECALL,
// the halted core's own PC. The recording core keeps the final state.
func TestRecordDecodes(t *testing.T) {
	p := replayProg(t)
	c := New(p)
	s, err := Record(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Retires) != 6 || s.Prog != p {
		t.Fatalf("recorded %d retires, want 6", len(s.Retires))
	}
	if c.Regs[isa.T2] != 3 || c.Regs[isa.T3] != 4 || !c.Halted() {
		t.Errorf("recording core: t2 = %d t3 = %d halted = %v, want 3, 4 and halted",
			c.Regs[isa.T2], c.Regs[isa.T3], c.Halted())
	}
	for i := range s.Retires {
		r := s.Retire(i)
		if r.Index != i || r.PC != p.AddrOf(i) || r.Inst != p.Text[i] || r.Taken {
			t.Errorf("retire %d = %+v", i, r)
		}
		want := p.AddrOf(i + 1)
		if i == 5 {
			want = p.AddrOf(5)
		}
		if r.NextPC != want {
			t.Errorf("retire %d NextPC = %#x, want %#x", i, r.NextPC, want)
		}
	}
}

// TestRecordLimit pins that a program which does not halt within the limit
// is an error, not a truncated stream.
func TestRecordLimit(t *testing.T) {
	if _, err := Record(New(replayProg(t)), 5); err == nil {
		t.Fatal("a 5-retire limit on a 6-retire program must error")
	}
	if _, err := Record(New(replayProg(t)), 6); err != nil {
		t.Fatalf("a limit equal to the retire count must succeed: %v", err)
	}
}

// TestStreamMatchGuidedReplay exercises the replay rule: full sequences,
// PC divergence, branch-direction divergence and a step past halt.
func TestStreamMatchGuidedReplay(t *testing.T) {
	p := replayProg(t)
	s, err := Record(New(p), 100)
	if err != nil {
		t.Fatal(err)
	}
	pcAt := func(i int) uint32 { return p.AddrOf(i) }

	// Full straight-line replay: four ops, branch not taken as expected.
	pcs := []uint32{pcAt(0), pcAt(1), pcAt(2), pcAt(3)}
	dirs := []int8{-1, -1, -1, 0}
	n, early, err := s.Match(0, pcs, dirs)
	if err != nil || n != 4 || early {
		t.Fatalf("straight-line replay: n=%d early=%v err=%v", n, early, err)
	}
	// The same rule from a later position, through the halting ECALL.
	n, early, err = s.Match(4, []uint32{pcAt(4), pcAt(5)}, []int8{-1, -1})
	if err != nil || n != 2 || early {
		t.Fatalf("replay to halt: n=%d early=%v err=%v", n, early, err)
	}

	// Branch-direction divergence: expect taken, observe not-taken. The
	// branch retires (counted) and the replay reports an early exit.
	dirs = []int8{-1, -1, -1, 1}
	n, early, err = s.Match(0, pcs, dirs)
	if err != nil || n != 4 || !early {
		t.Fatalf("diverging branch: n=%d early=%v err=%v", n, early, err)
	}

	// PC divergence: the sequence expects an op the control flow never
	// reaches; nothing past the divergence is covered.
	pcs = []uint32{pcAt(0), pcAt(2)}
	dirs = []int8{-1, -1}
	n, early, err = s.Match(0, pcs, dirs)
	if err != nil || n != 1 || !early {
		t.Fatalf("pc divergence: n=%d early=%v err=%v", n, early, err)
	}

	// Step past halt: the halted core's PC stays on its ECALL, so a
	// sequence expecting that PC again asks to step a halted core, while
	// one expecting any other PC merely diverges.
	n, early, err = s.Match(5, []uint32{pcAt(5), pcAt(5)}, []int8{-1, -1})
	if err == nil || n != 1 || !early {
		t.Fatalf("step after halt: n=%d early=%v err=%v", n, early, err)
	}
	n, early, err = s.Match(5, []uint32{pcAt(5), pcAt(0)}, []int8{-1, -1})
	if err != nil || n != 1 || !early {
		t.Fatalf("pc divergence after halt: n=%d early=%v err=%v", n, early, err)
	}
}
