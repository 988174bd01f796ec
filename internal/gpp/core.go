package gpp

import (
	"fmt"

	"agingcgra/internal/isa"
)

// Core is a functional RV32IM interpreter. It is deliberately free of any
// timing or acceleration concerns: the TransRec engine layers performance
// and stress accounting on top of the retired-instruction stream, so the
// architectural state here is always the ground truth regardless of whether
// a sequence is attributed to the GPP or to the CGRA.
type Core struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	Mem  *Memory

	prog    *isa.Program
	halted  bool
	retired uint64
}

// Retire describes one retired instruction.
type Retire struct {
	// PC is the address the instruction executed at.
	PC uint32
	// Index is the text-segment index of the instruction.
	Index int
	// Inst is the instruction itself.
	Inst isa.Inst
	// NextPC is the address of the next instruction to execute.
	NextPC uint32
	// Taken reports, for conditional branches, whether the branch was taken.
	Taken bool
}

// New builds a core with the program loaded, PC at the entry point and the
// stack pointer initialised below the top of memory.
func New(p *isa.Program) *Core {
	c := &Core{
		Mem:  NewMemory(MemSize),
		prog: p,
		PC:   p.Entry,
	}
	c.Regs[isa.SP] = StackTop
	return c
}

// Program returns the loaded program.
func (c *Core) Program() *isa.Program { return c.prog }

// Release drops the core's memory once the caller is done with the
// architectural state. The core must not be used afterwards.
func (c *Core) Release() {
	c.Mem = nil
}

// Halted reports whether the core has executed ecall.
func (c *Core) Halted() bool { return c.halted }

// RetiredCount returns the number of instructions retired so far.
func (c *Core) RetiredCount() uint64 { return c.retired }

// Step executes exactly one instruction and reports what retired.
func (c *Core) Step() (Retire, error) {
	if c.halted {
		return Retire{}, fmt.Errorf("gpp: step after halt at pc %#x", c.PC)
	}
	idx := c.prog.IndexOf(c.PC)
	if idx < 0 {
		return Retire{}, fmt.Errorf("gpp: pc %#x outside text segment", c.PC)
	}
	return c.stepIdx(idx)
}

// stepIdx executes the instruction at text index idx (which must equal
// IndexOf(c.PC)); Run tracks the index incrementally across sequential
// retirements so the common fall-through case skips the address decode.
func (c *Core) stepIdx(idx int) (Retire, error) {
	in := c.prog.Text[idx]
	ret := Retire{PC: c.PC, Index: idx, Inst: in}

	nextPC := c.PC + 4
	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]
	var rd uint32
	writeRd := true

	switch in.Op {
	case isa.ADD:
		rd = rs1 + rs2
	case isa.SUB:
		rd = rs1 - rs2
	case isa.SLL:
		rd = rs1 << (rs2 & 31)
	case isa.SLT:
		if int32(rs1) < int32(rs2) {
			rd = 1
		}
	case isa.SLTU:
		if rs1 < rs2 {
			rd = 1
		}
	case isa.XOR:
		rd = rs1 ^ rs2
	case isa.SRL:
		rd = rs1 >> (rs2 & 31)
	case isa.SRA:
		rd = uint32(int32(rs1) >> (rs2 & 31))
	case isa.OR:
		rd = rs1 | rs2
	case isa.AND:
		rd = rs1 & rs2

	case isa.MUL:
		rd = rs1 * rs2
	case isa.MULH:
		rd = uint32(uint64(int64(int32(rs1))*int64(int32(rs2))) >> 32)
	case isa.MULHSU:
		rd = uint32(uint64(int64(int32(rs1))*int64(uint64(rs2))) >> 32)
	case isa.MULHU:
		rd = uint32(uint64(rs1) * uint64(rs2) >> 32)
	case isa.DIV:
		switch {
		case rs2 == 0:
			rd = ^uint32(0)
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			rd = rs1
		default:
			rd = uint32(int32(rs1) / int32(rs2))
		}
	case isa.DIVU:
		if rs2 == 0 {
			rd = ^uint32(0)
		} else {
			rd = rs1 / rs2
		}
	case isa.REM:
		switch {
		case rs2 == 0:
			rd = rs1
		case int32(rs1) == -1<<31 && int32(rs2) == -1:
			rd = 0
		default:
			rd = uint32(int32(rs1) % int32(rs2))
		}
	case isa.REMU:
		if rs2 == 0 {
			rd = rs1
		} else {
			rd = rs1 % rs2
		}

	case isa.ADDI:
		rd = rs1 + uint32(in.Imm)
	case isa.SLTI:
		if int32(rs1) < in.Imm {
			rd = 1
		}
	case isa.SLTIU:
		if rs1 < uint32(in.Imm) {
			rd = 1
		}
	case isa.XORI:
		rd = rs1 ^ uint32(in.Imm)
	case isa.ORI:
		rd = rs1 | uint32(in.Imm)
	case isa.ANDI:
		rd = rs1 & uint32(in.Imm)
	case isa.SLLI:
		rd = rs1 << (uint32(in.Imm) & 31)
	case isa.SRLI:
		rd = rs1 >> (uint32(in.Imm) & 31)
	case isa.SRAI:
		rd = uint32(int32(rs1) >> (uint32(in.Imm) & 31))

	case isa.LUI:
		rd = uint32(in.Imm) << 12
	case isa.AUIPC:
		rd = c.PC + uint32(in.Imm)<<12

	case isa.LB:
		b, err := c.Mem.LoadByte(rs1 + uint32(in.Imm))
		if err != nil {
			return ret, err
		}
		rd = uint32(int32(int8(b)))
	case isa.LH:
		h, err := c.Mem.LoadHalf(rs1 + uint32(in.Imm))
		if err != nil {
			return ret, err
		}
		rd = uint32(int32(int16(h)))
	case isa.LW:
		w, err := c.Mem.LoadWord(rs1 + uint32(in.Imm))
		if err != nil {
			return ret, err
		}
		rd = w
	case isa.LBU:
		b, err := c.Mem.LoadByte(rs1 + uint32(in.Imm))
		if err != nil {
			return ret, err
		}
		rd = uint32(b)
	case isa.LHU:
		h, err := c.Mem.LoadHalf(rs1 + uint32(in.Imm))
		if err != nil {
			return ret, err
		}
		rd = uint32(h)

	case isa.SB:
		if err := c.Mem.StoreByte(rs1+uint32(in.Imm), byte(rs2)); err != nil {
			return ret, err
		}
		writeRd = false
	case isa.SH:
		if err := c.Mem.StoreHalf(rs1+uint32(in.Imm), uint16(rs2)); err != nil {
			return ret, err
		}
		writeRd = false
	case isa.SW:
		if err := c.Mem.StoreWord(rs1+uint32(in.Imm), rs2); err != nil {
			return ret, err
		}
		writeRd = false

	case isa.BEQ:
		writeRd = false
		if rs1 == rs2 {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}
	case isa.BNE:
		writeRd = false
		if rs1 != rs2 {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}
	case isa.BLT:
		writeRd = false
		if int32(rs1) < int32(rs2) {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}
	case isa.BGE:
		writeRd = false
		if int32(rs1) >= int32(rs2) {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}
	case isa.BLTU:
		writeRd = false
		if rs1 < rs2 {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}
	case isa.BGEU:
		writeRd = false
		if rs1 >= rs2 {
			nextPC = c.PC + uint32(in.Imm)
			ret.Taken = true
		}

	case isa.JAL:
		rd = c.PC + 4
		nextPC = c.PC + uint32(in.Imm)
		ret.Taken = true
	case isa.JALR:
		rd = c.PC + 4
		nextPC = (rs1 + uint32(in.Imm)) &^ 1
		ret.Taken = true

	case isa.ECALL:
		writeRd = false
		c.halted = true
		nextPC = c.PC

	default:
		return ret, fmt.Errorf("gpp: unimplemented op %v at pc %#x", in.Op, c.PC)
	}

	if writeRd && in.Rd != isa.X0 {
		c.Regs[in.Rd] = rd
	}
	c.PC = nextPC
	ret.NextPC = nextPC
	c.retired++
	return ret, nil
}

// Run executes until halt or until limit instructions have retired, invoking
// hook (if non-nil) for every retirement. It returns the number of
// instructions retired by this call.
//
// The loop tracks the text index incrementally: a fall-through retirement
// advances it by one instead of re-deriving it from the PC, so only taken
// control transfers pay for IndexOf.
func (c *Core) Run(limit uint64, hook func(Retire)) (uint64, error) {
	var n uint64
	textLen := len(c.prog.Text)
	idx := c.prog.IndexOf(c.PC)
	for !c.halted && n < limit {
		if idx < 0 || idx >= textLen {
			return n, fmt.Errorf("gpp: pc %#x outside text segment", c.PC)
		}
		r, err := c.stepIdx(idx)
		if err != nil {
			return n, err
		}
		n++
		if r.NextPC == r.PC+4 {
			idx++
		} else {
			idx = c.prog.IndexOf(r.NextPC)
		}
		if hook != nil {
			hook(r)
		}
	}
	if !c.halted && n >= limit {
		return n, fmt.Errorf("gpp: instruction limit %d reached at pc %#x", limit, c.PC)
	}
	return n, nil
}
