package isa

import "fmt"

// RISC-V base opcodes (bits 6:0 of the encoded word).
const (
	opcOpReg  = 0b0110011 // R-type ALU / M extension
	opcOpImm  = 0b0010011 // I-type ALU
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcBranch = 0b1100011
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcSystem = 0b1110011
)

type encInfo struct {
	opcode uint32
	funct3 uint32
	funct7 uint32
}

var encTable = map[Op]encInfo{
	ADD:    {opcOpReg, 0b000, 0b0000000},
	SUB:    {opcOpReg, 0b000, 0b0100000},
	SLL:    {opcOpReg, 0b001, 0b0000000},
	SLT:    {opcOpReg, 0b010, 0b0000000},
	SLTU:   {opcOpReg, 0b011, 0b0000000},
	XOR:    {opcOpReg, 0b100, 0b0000000},
	SRL:    {opcOpReg, 0b101, 0b0000000},
	SRA:    {opcOpReg, 0b101, 0b0100000},
	OR:     {opcOpReg, 0b110, 0b0000000},
	AND:    {opcOpReg, 0b111, 0b0000000},
	MUL:    {opcOpReg, 0b000, 0b0000001},
	MULH:   {opcOpReg, 0b001, 0b0000001},
	MULHSU: {opcOpReg, 0b010, 0b0000001},
	MULHU:  {opcOpReg, 0b011, 0b0000001},
	DIV:    {opcOpReg, 0b100, 0b0000001},
	DIVU:   {opcOpReg, 0b101, 0b0000001},
	REM:    {opcOpReg, 0b110, 0b0000001},
	REMU:   {opcOpReg, 0b111, 0b0000001},

	ADDI:  {opcOpImm, 0b000, 0},
	SLTI:  {opcOpImm, 0b010, 0},
	SLTIU: {opcOpImm, 0b011, 0},
	XORI:  {opcOpImm, 0b100, 0},
	ORI:   {opcOpImm, 0b110, 0},
	ANDI:  {opcOpImm, 0b111, 0},
	SLLI:  {opcOpImm, 0b001, 0b0000000},
	SRLI:  {opcOpImm, 0b101, 0b0000000},
	SRAI:  {opcOpImm, 0b101, 0b0100000},

	LUI:   {opcLUI, 0, 0},
	AUIPC: {opcAUIPC, 0, 0},

	LB:  {opcLoad, 0b000, 0},
	LH:  {opcLoad, 0b001, 0},
	LW:  {opcLoad, 0b010, 0},
	LBU: {opcLoad, 0b100, 0},
	LHU: {opcLoad, 0b101, 0},

	SB: {opcStore, 0b000, 0},
	SH: {opcStore, 0b001, 0},
	SW: {opcStore, 0b010, 0},

	BEQ:  {opcBranch, 0b000, 0},
	BNE:  {opcBranch, 0b001, 0},
	BLT:  {opcBranch, 0b100, 0},
	BGE:  {opcBranch, 0b101, 0},
	BLTU: {opcBranch, 0b110, 0},
	BGEU: {opcBranch, 0b111, 0},

	JAL:  {opcJAL, 0, 0},
	JALR: {opcJALR, 0b000, 0},

	ECALL: {opcSystem, 0b000, 0},
}

// Encode produces the 32-bit RISC-V machine word for the instruction.
// Immediates out of range for the format are reported as errors rather than
// silently truncated.
func Encode(i Inst) (uint32, error) {
	e, ok := encTable[i.Op]
	if !ok {
		return 0, fmt.Errorf("isa: cannot encode op %v", i.Op)
	}
	rd := uint32(i.Rd) & 31
	rs1 := uint32(i.Rs1) & 31
	rs2 := uint32(i.Rs2) & 31
	imm := i.Imm

	switch i.Op.Format() {
	case FormatR:
		return e.funct7<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode, nil
	case FormatI:
		if i.Op == SLLI || i.Op == SRLI || i.Op == SRAI {
			if imm < 0 || imm > 31 {
				return 0, fmt.Errorf("isa: shift amount %d out of range for %v", imm, i.Op)
			}
			return e.funct7<<25 | uint32(imm)<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode, nil
		}
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("isa: immediate %d out of I-range for %v", imm, i.Op)
		}
		return uint32(imm)&0xfff<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode, nil
	case FormatS:
		if imm < -2048 || imm > 2047 {
			return 0, fmt.Errorf("isa: immediate %d out of S-range for %v", imm, i.Op)
		}
		u := uint32(imm) & 0xfff
		return (u>>5)<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 | (u&0x1f)<<7 | e.opcode, nil
	case FormatB:
		if imm < -4096 || imm > 4095 || imm&1 != 0 {
			return 0, fmt.Errorf("isa: branch offset %d invalid for %v", imm, i.Op)
		}
		u := uint32(imm)
		w := (u>>12)&1<<31 | (u>>5)&0x3f<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 |
			(u>>1)&0xf<<8 | (u>>11)&1<<7 | e.opcode
		return w, nil
	case FormatU:
		// The field is the 20 raw upper bits, as Decode returns them: a
		// negative immediate would not survive the round trip.
		if imm < 0 || imm >= 1<<20 {
			return 0, fmt.Errorf("isa: immediate %d out of U-range for %v", imm, i.Op)
		}
		return uint32(imm)&0xfffff<<12 | rd<<7 | e.opcode, nil
	case FormatJ:
		if imm < -(1<<20) || imm >= 1<<20 || imm&1 != 0 {
			return 0, fmt.Errorf("isa: jump offset %d invalid for %v", imm, i.Op)
		}
		u := uint32(imm)
		w := (u>>20)&1<<31 | (u>>1)&0x3ff<<21 | (u>>11)&1<<20 | (u>>12)&0xff<<12 |
			rd<<7 | e.opcode
		return w, nil
	}
	return 0, fmt.Errorf("isa: unknown format for %v", i.Op)
}

// Decode parses a 32-bit RISC-V machine word into an Inst. It is the inverse
// of Encode for every instruction in the subset.
func Decode(w uint32) (Inst, error) {
	opcode := w & 0x7f
	rd := Reg(w >> 7 & 31)
	funct3 := w >> 12 & 7
	rs1 := Reg(w >> 15 & 31)
	rs2 := Reg(w >> 20 & 31)
	funct7 := w >> 25

	signExtend := func(v uint32, bits uint) int32 {
		shift := 32 - bits
		return int32(v<<shift) >> shift
	}

	switch opcode {
	case opcOpReg:
		for op, e := range encTable {
			if e.opcode == opcOpReg && e.funct3 == funct3 && e.funct7 == funct7 {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
			}
		}
	case opcOpImm:
		imm := signExtend(w>>20, 12)
		switch funct3 {
		case 0b000:
			return Inst{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b010:
			return Inst{Op: SLTI, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b011:
			return Inst{Op: SLTIU, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b100:
			return Inst{Op: XORI, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b110:
			return Inst{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b111:
			return Inst{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm}, nil
		case 0b001:
			if funct7 != 0 {
				return Inst{}, fmt.Errorf("isa: bad funct7 %#x for slli", funct7)
			}
			return Inst{Op: SLLI, Rd: rd, Rs1: rs1, Imm: int32(w >> 20 & 31)}, nil
		case 0b101:
			switch funct7 {
			case 0:
				return Inst{Op: SRLI, Rd: rd, Rs1: rs1, Imm: int32(w >> 20 & 31)}, nil
			case 0b0100000:
				return Inst{Op: SRAI, Rd: rd, Rs1: rs1, Imm: int32(w >> 20 & 31)}, nil
			}
			return Inst{}, fmt.Errorf("isa: bad funct7 %#x for srli/srai", funct7)
		}
	case opcLoad:
		imm := signExtend(w>>20, 12)
		for op, e := range encTable {
			if e.opcode == opcLoad && e.funct3 == funct3 {
				return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}, nil
			}
		}
	case opcStore:
		imm := signExtend(funct7<<5|uint32(rd), 12)
		for op, e := range encTable {
			if e.opcode == opcStore && e.funct3 == funct3 {
				return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm}, nil
			}
		}
	case opcBranch:
		raw := (w>>31)&1<<12 | (w>>7)&1<<11 | (w>>25)&0x3f<<5 | (w>>8)&0xf<<1
		imm := signExtend(raw, 13)
		for op, e := range encTable {
			if e.opcode == opcBranch && e.funct3 == funct3 {
				return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm}, nil
			}
		}
	case opcLUI:
		return Inst{Op: LUI, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcAUIPC:
		return Inst{Op: AUIPC, Rd: rd, Imm: int32(w >> 12)}, nil
	case opcJAL:
		raw := (w>>31)&1<<20 | (w>>12)&0xff<<12 | (w>>20)&1<<11 | (w>>21)&0x3ff<<1
		imm := signExtend(raw, 21)
		return Inst{Op: JAL, Rd: rd, Imm: imm}, nil
	case opcJALR:
		if funct3 != 0 {
			return Inst{}, fmt.Errorf("isa: bad funct3 %#x for jalr", funct3)
		}
		return Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: signExtend(w>>20, 12)}, nil
	case opcSystem:
		if w == 0x00000073 {
			return Inst{Op: ECALL}, nil
		}
	}
	return Inst{}, fmt.Errorf("isa: cannot decode word %#08x", w)
}
