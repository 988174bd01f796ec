package isa

import (
	"strings"
	"testing"
)

func mustAssemble(t *testing.T, src string, opts AsmOptions) *Program {
	t.Helper()
	p, err := Assemble(src, opts)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestAssembleBasic(t *testing.T) {
	p := mustAssemble(t, `
		# a tiny program
		add  a0, a1, a2
		addi t0, a0, -7
		lw   t1, 4(sp)
		sw   t1, 8(sp)
		ecall
	`, AsmOptions{})
	want := []Inst{
		{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2},
		{Op: ADDI, Rd: T0, Rs1: A0, Imm: -7},
		{Op: LW, Rd: T1, Rs1: SP, Imm: 4},
		{Op: SW, Rs1: SP, Rs2: T1, Imm: 8},
		{Op: ECALL},
	}
	if len(p.Text) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(p.Text), len(want))
	}
	for i := range want {
		if p.Text[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, p.Text[i], want[i])
		}
	}
	if p.TextBase != 0x1000 || p.Entry != 0x1000 {
		t.Errorf("TextBase=%#x Entry=%#x, want both 0x1000", p.TextBase, p.Entry)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
		li   t0, 0
		li   t1, 10
	loop:
		addi t0, t0, 1
		blt  t0, t1, loop
		j    done
		nop
	done:
		ecall
	`, AsmOptions{})
	// loop is at index 2 (each li here is one instruction).
	brk := p.Text[3]
	if brk.Op != BLT {
		t.Fatalf("inst 3 = %v, want blt", brk)
	}
	if brk.Imm != -4 {
		t.Errorf("blt offset = %d, want -4", brk.Imm)
	}
	jmp := p.Text[4]
	if jmp.Op != JAL || jmp.Rd != X0 {
		t.Fatalf("inst 4 = %v, want j (jal x0)", jmp)
	}
	if jmp.Imm != 8 {
		t.Errorf("j offset = %d, want 8", jmp.Imm)
	}
}

func TestAssembleLi(t *testing.T) {
	p := mustAssemble(t, `
		li a0, 42
		li a1, -1
		li a2, 0x12345678
		li a3, 0x1000
		li a4, 0xffffffff
	`, AsmOptions{})
	// 42 and -1 are single addi; 0x12345678 is lui+addi; 0x1000 is lui;
	// 0xffffffff is addi -1.
	if p.Text[0].Op != ADDI || p.Text[0].Imm != 42 {
		t.Errorf("li 42 = %v", p.Text[0])
	}
	if p.Text[1].Op != ADDI || p.Text[1].Imm != -1 {
		t.Errorf("li -1 = %v", p.Text[1])
	}
	if p.Text[2].Op != LUI || p.Text[3].Op != ADDI {
		t.Errorf("li 0x12345678 = %v; %v", p.Text[2], p.Text[3])
	}
	// Verify lui+addi reconstructs the value.
	v := uint32(p.Text[2].Imm)<<12 + uint32(p.Text[3].Imm)
	if v != 0x12345678 {
		t.Errorf("li 0x12345678 reconstructs to %#x", v)
	}
	if p.Text[4].Op != LUI || uint32(p.Text[4].Imm) != 0x1 {
		t.Errorf("li 0x1000 = %v", p.Text[4])
	}
	if p.Text[5].Op != ADDI || p.Text[5].Imm != -1 {
		t.Errorf("li 0xffffffff = %v", p.Text[5])
	}
}

func TestAssembleLaWithSymbols(t *testing.T) {
	p := mustAssemble(t, `
		la a0, buf
		la a1, buf+36
		lw a2, 12(a0)
	`, AsmOptions{Symbols: map[string]uint32{"buf": 0x10000}})
	v := uint32(p.Text[0].Imm)<<12 + uint32(p.Text[1].Imm)
	if v != 0x10000 {
		t.Errorf("la buf reconstructs to %#x, want 0x10000", v)
	}
	v2 := uint32(p.Text[2].Imm)<<12 + uint32(p.Text[3].Imm)
	if v2 != 0x10024 {
		t.Errorf("la buf+36 reconstructs to %#x, want 0x10024", v2)
	}
}

func TestAssembleSymbolOutOfRange(t *testing.T) {
	_, err := Assemble("lw a1, buf+4(zero)", AsmOptions{
		Symbols: map[string]uint32{"buf": 0x10000},
	})
	if err == nil {
		t.Fatal("expected out-of-range immediate error")
	}
}

func TestAssemblePseudoInstructions(t *testing.T) {
	p := mustAssemble(t, `
		nop
		mv   a0, a1
		not  a2, a3
		neg  a4, a5
		seqz t0, t1
		snez t2, t3
		jr   ra
		ret
	`, AsmOptions{})
	want := []Inst{
		{Op: ADDI},
		{Op: ADDI, Rd: A0, Rs1: A1},
		{Op: XORI, Rd: A2, Rs1: A3, Imm: -1},
		{Op: SUB, Rd: A4, Rs1: X0, Rs2: A5},
		{Op: SLTIU, Rd: T0, Rs1: T1, Imm: 1},
		{Op: SLTU, Rd: T2, Rs1: X0, Rs2: T3},
		{Op: JALR, Rd: X0, Rs1: RA},
		{Op: JALR, Rd: X0, Rs1: RA},
	}
	for i := range want {
		if p.Text[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, p.Text[i], want[i])
		}
	}
}

func TestAssembleBranchPseudos(t *testing.T) {
	p := mustAssemble(t, `
	top:
		beqz a0, top
		bnez a0, top
		bltz a0, top
		bgez a0, top
		blez a0, top
		bgtz a0, top
		bgt  a0, a1, top
		ble  a0, a1, top
		bgtu a0, a1, top
		bleu a0, a1, top
	`, AsmOptions{})
	wantOps := []Op{BEQ, BNE, BLT, BGE, BGE, BLT, BLT, BGE, BLTU, BGEU}
	for i, op := range wantOps {
		if p.Text[i].Op != op {
			t.Errorf("inst %d op = %v, want %v", i, p.Text[i].Op, op)
		}
	}
	// bgt a0,a1 swaps to blt a1,a0.
	if p.Text[6].Rs1 != A1 || p.Text[6].Rs2 != A0 {
		t.Errorf("bgt operand swap wrong: %v", p.Text[6])
	}
}

func TestAssembleCallRet(t *testing.T) {
	p := mustAssemble(t, `
	_start:
		call f
		ecall
	f:
		ret
	`, AsmOptions{})
	if p.Entry != p.TextBase {
		t.Errorf("entry = %#x, want %#x", p.Entry, p.TextBase)
	}
	if p.Text[0].Op != JAL || p.Text[0].Rd != RA || p.Text[0].Imm != 8 {
		t.Errorf("call = %v", p.Text[0])
	}
}

func TestAssembleEntryLabel(t *testing.T) {
	p := mustAssemble(t, `
	f:
		ret
	_start:
		call f
		ecall
	`, AsmOptions{})
	if p.Entry != p.TextBase+4 {
		t.Errorf("entry = %#x, want %#x", p.Entry, p.TextBase+4)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frob a0, a1",
		"add a0, a1",
		"addi a0, a1, 99999",
		"lw a0, 4(q9)",
		"beq a0, a1, nowhere",
		"li a0",
		"dup:\ndup:\nnop",
		// The zero-operand mnemonics check their operand count too.
		"nop a0, a1",
		"halt a0",
		"ecall a0",
		"ret ra",
	}
	for _, src := range cases {
		if _, err := Assemble(src, AsmOptions{}); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

// TestAssembleLiForwardLabel pins li's symbol rule: the size of its
// expansion depends on the value, so a label defined later is rejected with
// an error naming the line and pointing to la, while an earlier label and
// la's fixed two-instruction form both resolve.
func TestAssembleLiForwardLabel(t *testing.T) {
	_, err := Assemble("li a0, y\ny:\nhalt\n", AsmOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "use la") {
		t.Fatalf("forward li error = %v, want line 1 and a pointer to la", err)
	}
	p := mustAssemble(t, "la a0, y\ny:\nli a1, y\nhalt\n", AsmOptions{TextBase: 0x100})
	if got := p.Text[2]; got != (Inst{Op: ADDI, Rd: A1, Rs1: X0, Imm: 0x108}) {
		t.Errorf("li of an earlier label = %v, want addi a1, zero, 0x108", got)
	}
}

func TestAssembleErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus a0\n", AsmOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not carry line number", err)
	}
}

func TestProgramAddrIndex(t *testing.T) {
	p := mustAssemble(t, "nop\nnop\nnop\n", AsmOptions{})
	for i := range p.Text {
		if got := p.IndexOf(p.AddrOf(i)); got != i {
			t.Errorf("IndexOf(AddrOf(%d)) = %d", i, got)
		}
	}
	if p.IndexOf(p.TextBase-4) != -1 || p.IndexOf(p.TextBase+1) != -1 {
		t.Error("IndexOf accepted out-of-range or misaligned address")
	}
	if p.IndexOf(p.AddrOf(len(p.Text))) != -1 {
		t.Error("IndexOf accepted address past end of text")
	}
}

// Every emitted instruction must be encodable: the assembler's contract.
func TestAssembleAllEncodable(t *testing.T) {
	p := mustAssemble(t, `
	_start:
		li   s0, 0x20000
		li   s1, 100
		li   t0, 0
	loop:
		slli t1, t0, 2
		add  t1, t1, s0
		lw   t2, 0(t1)
		mul  t2, t2, t2
		sw   t2, 0(t1)
		addi t0, t0, 1
		blt  t0, s1, loop
		ecall
	`, AsmOptions{})
	for i, in := range p.Text {
		if _, err := Encode(in); err != nil {
			t.Errorf("inst %d (%v) not encodable: %v", i, in, err)
		}
	}
}
