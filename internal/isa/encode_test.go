package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// knownEncodings pins a few encodings against values cross-checked with the
// RISC-V specification examples.
func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		in   Inst
		want uint32
	}{
		// add a0, a1, a2 -> 0x00c58533
		{Inst{Op: ADD, Rd: A0, Rs1: A1, Rs2: A2}, 0x00c58533},
		// addi a0, a0, 1 -> 0x00150513
		{Inst{Op: ADDI, Rd: A0, Rs1: A0, Imm: 1}, 0x00150513},
		// lw a0, 4(sp) -> 0x00412503
		{Inst{Op: LW, Rd: A0, Rs1: SP, Imm: 4}, 0x00412503},
		// sw a0, 4(sp) -> 0x00a12223
		{Inst{Op: SW, Rs1: SP, Rs2: A0, Imm: 4}, 0x00a12223},
		// beq a0, a1, 8 -> 0x00b50463
		{Inst{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 8}, 0x00b50463},
		// lui a0, 0x12345 -> 0x12345537
		{Inst{Op: LUI, Rd: A0, Imm: 0x12345}, 0x12345537},
		// jal ra, 16 -> 0x010000ef
		{Inst{Op: JAL, Rd: RA, Imm: 16}, 0x010000ef},
		// ecall -> 0x00000073
		{Inst{Op: ECALL}, 0x00000073},
		// mul a0, a1, a2 -> 0x02c58533
		{Inst{Op: MUL, Rd: A0, Rs1: A1, Rs2: A2}, 0x02c58533},
		// srai a0, a1, 3 -> 0x4035d513
		{Inst{Op: SRAI, Rd: A0, Rs1: A1, Imm: 3}, 0x4035d513},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Encode(%v) = %#08x, want %#08x", c.in, got, c.want)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: 4096},
		{Op: ADDI, Rd: A0, Rs1: A0, Imm: -4096},
		{Op: SLLI, Rd: A0, Rs1: A0, Imm: 32},
		{Op: SW, Rs1: A0, Rs2: A1, Imm: 5000},
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 3}, // misaligned
		{Op: BEQ, Rs1: A0, Rs2: A1, Imm: 8192},
		{Op: JAL, Rd: RA, Imm: 1 << 21},
		{Op: LUI, Rd: A0, Imm: 1 << 20},
		{Op: LUI, Rd: A0, Imm: -1}, // the field is unsigned
	}
	for _, in := range bad {
		if w, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) = %#08x, want error", in, w)
		}
	}
}

// randomInst builds a random but encodable instruction for property testing.
func randomInst(r *rand.Rand) Inst {
	ops := Ops()
	op := ops[r.Intn(len(ops))]
	in := Inst{
		Op:  op,
		Rd:  Reg(r.Intn(32)),
		Rs1: Reg(r.Intn(32)),
		Rs2: Reg(r.Intn(32)),
	}
	switch op.Format() {
	case FormatR:
		// no immediate
	case FormatI:
		if op == SLLI || op == SRLI || op == SRAI {
			in.Imm = int32(r.Intn(32))
		} else {
			in.Imm = int32(r.Intn(4096) - 2048)
		}
	case FormatS:
		in.Imm = int32(r.Intn(4096) - 2048)
	case FormatB:
		in.Imm = int32(r.Intn(4096)-2048) * 2
	case FormatU:
		in.Imm = int32(r.Intn(1 << 20))
	case FormatJ:
		in.Imm = int32(r.Intn(1<<20)-(1<<19)) * 2
	}
	// Normalise fields the format does not encode, so equality after a
	// round-trip is well-defined.
	switch op.Format() {
	case FormatI:
		in.Rs2 = 0
	case FormatS, FormatB:
		in.Rd = 0
	case FormatU, FormatJ:
		in.Rs1, in.Rs2 = 0, 0
	}
	if op == ECALL {
		in = Inst{Op: ECALL}
	}
	return in
}

// TestEncodeDecodeRoundTrip is the core property: Decode(Encode(i)) == i for
// every well-formed instruction.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		in := randomInst(r)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x) from %v: %v", w, in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %v -> %#08x -> %v", in, w, out)
		}
	}
}

// TestDecodeRejectsGarbage uses testing/quick to check that Decode either
// fails or produces an instruction that re-encodes to the same word.
func TestDecodeRejectsGarbage(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			return true
		}
		back, err := Encode(in)
		if err != nil {
			// Decoded something un-encodable: a decoder bug.
			return false
		}
		return back == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
