package gpp

import (
	"strings"
	"testing"

	"agingcgra/internal/isa"
)

func run(t *testing.T, src string) *Core {
	t.Helper()
	p, err := isa.Assemble(src, isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := New(p)
	if _, err := c.Run(1_000_000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestArithmetic(t *testing.T) {
	c := run(t, `
		li a0, 7
		li a1, 5
		add  t0, a0, a1
		sub  t1, a0, a1
		xor  t2, a0, a1
		or   t3, a0, a1
		and  t4, a0, a1
		sll  t5, a0, a1
		ecall
	`)
	want := map[isa.Reg]uint32{
		isa.T0: 12, isa.T1: 2, isa.T2: 2, isa.T3: 7, isa.T4: 5, isa.T5: 7 << 5,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%v = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestSignedComparisons(t *testing.T) {
	c := run(t, `
		li a0, -3
		li a1, 2
		slt  t0, a0, a1
		sltu t1, a0, a1
		slti t2, a0, 0
		sltiu t3, a1, 10
		sra  t4, a0, a1
		srl  t5, a0, a1
		ecall
	`)
	if c.Regs[isa.T0] != 1 {
		t.Errorf("slt -3<2 = %d, want 1", c.Regs[isa.T0])
	}
	if c.Regs[isa.T1] != 0 {
		t.Errorf("sltu 0xfffffffd<2 = %d, want 0", c.Regs[isa.T1])
	}
	if c.Regs[isa.T2] != 1 || c.Regs[isa.T3] != 1 {
		t.Errorf("slti/sltiu = %d/%d, want 1/1", c.Regs[isa.T2], c.Regs[isa.T3])
	}
	if int32(c.Regs[isa.T4]) != -1 {
		t.Errorf("sra -3>>2 = %d, want -1", int32(c.Regs[isa.T4]))
	}
	if c.Regs[isa.T5] != 0x3fffffff {
		t.Errorf("srl = %#x, want 0x3fffffff", c.Regs[isa.T5])
	}
}

func TestMultiplyDivide(t *testing.T) {
	c := run(t, `
		li a0, -7
		li a1, 3
		mul   t0, a0, a1
		mulh  t1, a0, a1
		mulhu t2, a0, a1
		div   t3, a0, a1
		rem   t4, a0, a1
		divu  t5, a0, a1
		ecall
	`)
	if int32(c.Regs[isa.T0]) != -21 {
		t.Errorf("mul = %d, want -21", int32(c.Regs[isa.T0]))
	}
	if int32(c.Regs[isa.T1]) != -1 {
		t.Errorf("mulh = %d, want -1 (high bits of -21)", int32(c.Regs[isa.T1]))
	}
	// mulhu: 0xfffffff9 * 3 = 0x2_fffffeb -> high word 2.
	if c.Regs[isa.T2] != 2 {
		t.Errorf("mulhu = %d, want 2", c.Regs[isa.T2])
	}
	if int32(c.Regs[isa.T3]) != -2 || int32(c.Regs[isa.T4]) != -1 {
		t.Errorf("div/rem = %d/%d, want -2/-1", int32(c.Regs[isa.T3]), int32(c.Regs[isa.T4]))
	}
	if c.Regs[isa.T5] != 0xfffffff9/3 {
		t.Errorf("divu = %d, want %d", c.Regs[isa.T5], uint32(0xfffffff9)/3)
	}
}

func TestDivideEdgeCases(t *testing.T) {
	c := run(t, `
		li a0, 5
		li a1, 0
		div  t0, a0, a1
		divu t1, a0, a1
		rem  t2, a0, a1
		remu t3, a0, a1
		li a2, -2147483648
		li a3, -1
		div  t4, a2, a3
		rem  t5, a2, a3
		ecall
	`)
	if c.Regs[isa.T0] != ^uint32(0) || c.Regs[isa.T1] != ^uint32(0) {
		t.Errorf("div by zero = %#x/%#x, want all-ones", c.Regs[isa.T0], c.Regs[isa.T1])
	}
	if c.Regs[isa.T2] != 5 || c.Regs[isa.T3] != 5 {
		t.Errorf("rem by zero = %d/%d, want 5/5", c.Regs[isa.T2], c.Regs[isa.T3])
	}
	if c.Regs[isa.T4] != 1<<31 {
		t.Errorf("overflow div = %#x, want 0x80000000", c.Regs[isa.T4])
	}
	if c.Regs[isa.T5] != 0 {
		t.Errorf("overflow rem = %d, want 0", c.Regs[isa.T5])
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
		li   t0, 0x10000
		li   t1, 0x89abcdef
		sw   t1, 0(t0)
		lw   t2, 0(t0)
		lh   t3, 0(t0)
		lhu  t4, 0(t0)
		lb   t5, 3(t0)
		lbu  t6, 3(t0)
		sb   t1, 8(t0)
		lbu  s0, 8(t0)
		sh   t1, 12(t0)
		lhu  s1, 12(t0)
		ecall
	`)
	lowHalf := uint16(0xcdef)
	topByte := uint8(0x89)
	if c.Regs[isa.T2] != 0x89abcdef {
		t.Errorf("lw = %#x", c.Regs[isa.T2])
	}
	if int32(c.Regs[isa.T3]) != int32(int16(lowHalf)) {
		t.Errorf("lh = %#x", c.Regs[isa.T3])
	}
	if c.Regs[isa.T4] != 0xcdef {
		t.Errorf("lhu = %#x", c.Regs[isa.T4])
	}
	if int32(c.Regs[isa.T5]) != int32(int8(topByte)) {
		t.Errorf("lb = %#x", c.Regs[isa.T5])
	}
	if c.Regs[isa.T6] != 0x89 {
		t.Errorf("lbu = %#x", c.Regs[isa.T6])
	}
	if c.Regs[isa.S0] != 0xef {
		t.Errorf("sb/lbu = %#x", c.Regs[isa.S0])
	}
	if c.Regs[isa.S1] != 0xcdef {
		t.Errorf("sh/lhu = %#x", c.Regs[isa.S1])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..100 = 5050.
	c := run(t, `
		li t0, 0
		li t1, 1
		li t2, 100
	loop:
		add t0, t0, t1
		addi t1, t1, 1
		ble t1, t2, loop
		mv a0, t0
		ecall
	`)
	if c.Regs[isa.A0] != 5050 {
		t.Errorf("sum = %d, want 5050", c.Regs[isa.A0])
	}
}

func TestCallReturn(t *testing.T) {
	c := run(t, `
	_start:
		li   a0, 20
		call double
		call double
		ecall
	double:
		add a0, a0, a0
		ret
	`)
	if c.Regs[isa.A0] != 80 {
		t.Errorf("a0 = %d, want 80", c.Regs[isa.A0])
	}
}

func TestStackUse(t *testing.T) {
	c := run(t, `
		addi sp, sp, -16
		li   t0, 42
		sw   t0, 0(sp)
		sw   zero, 4(sp)
		lw   t1, 0(sp)
		addi sp, sp, 16
		mv   a0, t1
		ecall
	`)
	if c.Regs[isa.A0] != 42 {
		t.Errorf("a0 = %d, want 42", c.Regs[isa.A0])
	}
	if c.Regs[isa.SP] != StackTop {
		t.Errorf("sp = %#x, want %#x", c.Regs[isa.SP], uint32(StackTop))
	}
}

func TestLuiAuipc(t *testing.T) {
	c := run(t, `
		lui   t0, 0x12345
		auipc t1, 0
		ecall
	`)
	if c.Regs[isa.T0] != 0x12345000 {
		t.Errorf("lui = %#x", c.Regs[isa.T0])
	}
	if c.Regs[isa.T1] != TextBase+4 {
		t.Errorf("auipc = %#x, want %#x", c.Regs[isa.T1], uint32(TextBase+4))
	}
}

func TestX0IsZero(t *testing.T) {
	c := run(t, `
		li  t0, 99
		add zero, t0, t0
		mv  a0, zero
		ecall
	`)
	if c.Regs[isa.A0] != 0 || c.Regs[isa.X0] != 0 {
		t.Error("x0 was written")
	}
}

func TestHaltState(t *testing.T) {
	c := run(t, "ecall")
	if !c.Halted() {
		t.Fatal("core not halted after ecall")
	}
	if _, err := c.Step(); err == nil {
		t.Fatal("Step after halt should fail")
	}
}

func TestRunLimit(t *testing.T) {
	p, err := isa.Assemble("loop: j loop", isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	n, err := c.Run(1000, nil)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("want limit error, got n=%d err=%v", n, err)
	}
	if n != 1000 {
		t.Errorf("retired %d, want 1000", n)
	}
}

func TestRetireStream(t *testing.T) {
	p, err := isa.Assemble(`
		li t0, 3
	loop:
		addi t0, t0, -1
		bnez t0, loop
		ecall
	`, isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	var pcs []uint32
	var takens []bool
	if _, err := c.Run(100, func(r Retire) {
		pcs = append(pcs, r.PC)
		takens = append(takens, r.Taken)
	}); err != nil {
		t.Fatal(err)
	}
	// li, then 3 iterations of (addi, bnez), then ecall = 8 retirements.
	if len(pcs) != 8 {
		t.Fatalf("retired %d instructions, want 8", len(pcs))
	}
	// The bnez is taken twice, then falls through.
	if !takens[2] || !takens[4] || takens[6] {
		t.Errorf("branch taken pattern = %v", takens)
	}
}

func TestMemoryFault(t *testing.T) {
	p, err := isa.Assemble(`
		li t0, 0x7fffffff
		lw t1, 0(t0)
		ecall
	`, isa.AsmOptions{TextBase: TextBase})
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	_, err = c.Run(100, nil)
	if err == nil {
		t.Fatal("expected access fault")
	}
	var ae *AccessError
	if !asAccessError(err, &ae) {
		t.Fatalf("error %T is not AccessError", err)
	}
}

func asAccessError(err error, target **AccessError) bool {
	ae, ok := err.(*AccessError)
	if ok {
		*target = ae
	}
	return ok
}

func TestJALRClearsLowBit(t *testing.T) {
	c := run(t, `
		la   t0, target+1
		jalr ra, 0(t0)
		ecall
	target:
		li a0, 7
		ecall
	`)
	if c.Regs[isa.A0] != 7 {
		t.Errorf("a0 = %d, want 7 (jalr should clear bit 0)", c.Regs[isa.A0])
	}
}

// TestRunTracksIndexAcrossJumps asserts the incremental index tracking in
// Run survives taken branches, jumps and returns.
func TestRunTracksIndexAcrossJumps(t *testing.T) {
	c := run(t, `
_start:
	li   a0, 0
	li   t0, 3
loop:
	addi a0, a0, 5
	addi t0, t0, -1
	bne  t0, zero, loop
	jal  ra, sub
	j    done
sub:
	addi a0, a0, 100
	jalr zero, ra, 0
done:
	ecall
`)
	if c.Regs[isa.A0] != 115 {
		t.Errorf("a0 = %d, want 115", c.Regs[isa.A0])
	}
}
