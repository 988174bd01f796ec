package isa

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Program is the output of the assembler: a contiguous text segment of
// decoded instructions plus the symbol table used to resolve it.
type Program struct {
	// TextBase is the address of Text[0]. Instructions are 4 bytes each.
	TextBase uint32
	// Entry is the initial program counter (the address of the "_start"
	// label if present, otherwise TextBase).
	Entry uint32
	// Text holds the instructions in address order.
	Text []Inst
	// Symbols maps every label and predefined symbol to its address.
	Symbols map[string]uint32
}

// AddrOf returns the address of instruction index i.
func (p *Program) AddrOf(i int) uint32 { return p.TextBase + uint32(i)*4 }

// IndexOf returns the Text index for address addr, or -1 if the address is
// outside the text segment or misaligned.
func (p *Program) IndexOf(addr uint32) int {
	if addr < p.TextBase || addr%4 != 0 {
		return -1
	}
	i := int(addr-p.TextBase) / 4
	if i >= len(p.Text) {
		return -1
	}
	return i
}

// AsmOptions configures assembly.
type AsmOptions struct {
	// TextBase is the load address of the first instruction. Defaults to
	// 0x1000 when zero.
	TextBase uint32
	// Symbols predefines data symbols (name -> address) that the source may
	// reference in li/la and immediate fields.
	Symbols map[string]uint32
}

// Assemble translates RISC-V assembly source into a Program. The dialect
// supports the RV32IM subset of this package, labels, comments (# and //),
// and the usual pseudo-instructions (li, la, mv, not, neg, seqz, snez,
// beqz/bnez/bltz/bgez/blez/bgtz, bgt/ble/bgtu/bleu, j, jr, call, ret, nop,
// halt). Immediates may be decimal, hex (0x...), character ('c') or
// predefined-symbol references with an optional +/- offset.
func Assemble(src string, opts AsmOptions) (*Program, error) {
	base := opts.TextBase
	if base == 0 {
		base = 0x1000
	}
	a := &assembler{
		prog: &Program{
			TextBase: base,
			Symbols:  make(map[string]uint32),
		},
	}
	for name, addr := range opts.Symbols {
		a.prog.Symbols[name] = addr
	}

	lines := strings.Split(src, "\n")

	// Pass 1: measure, collect labels.
	pc := base
	type pending struct {
		lineNo int
		mnem   string
		args   []string
		addr   uint32
	}
	var pend []pending
	for n, raw := range lines {
		line := stripComment(strings.ReplaceAll(raw, "\t", " "))
		for {
			line = strings.TrimSpace(line)
			if line == "" {
				break
			}
			if i := strings.Index(line, ":"); i >= 0 && isLabel(line[:i]) {
				label := line[:i]
				if _, dup := a.prog.Symbols[label]; dup {
					return nil, fmt.Errorf("line %d: duplicate label %q", n+1, label)
				}
				a.prog.Symbols[label] = pc
				line = line[i+1:]
				continue
			}
			mnem, args := splitInst(line)
			size, err := a.instSize(mnem, args)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", n+1, err)
			}
			pend = append(pend, pending{n + 1, mnem, args, pc})
			pc += uint32(size) * 4
			break
		}
	}

	// Pass 2: emit.
	for _, p := range pend {
		insts, err := a.emit(p.mnem, p.args, p.addr)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", p.lineNo, err)
		}
		a.prog.Text = append(a.prog.Text, insts...)
	}

	a.prog.Entry = base
	if e, ok := a.prog.Symbols["_start"]; ok {
		a.prog.Entry = e
	}
	return a.prog, nil
}

type assembler struct {
	prog *Program
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitInst(line string) (mnem string, args []string) {
	fields := strings.SplitN(line, " ", 2)
	mnem = strings.ToLower(strings.TrimSpace(fields[0]))
	if len(fields) == 2 {
		for _, a := range strings.Split(fields[1], ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	return mnem, args
}

// instSize returns how many machine instructions the (possibly pseudo)
// instruction expands to. It must agree exactly with emit.
func (a *assembler) instSize(mnem string, args []string) (int, error) {
	switch mnem {
	case "li":
		if len(args) != 2 {
			return 0, fmt.Errorf("li needs 2 operands")
		}
		v, err := a.evalImm(args[1])
		var unknown unknownSymbolError
		if errors.As(err, &unknown) {
			// The expansion's size depends on the value, so it must be
			// known here, before the labels that follow are.
			return 0, fmt.Errorf("li needs a constant, a predefined symbol or an earlier label, not %q; use la for an address", unknown.name)
		}
		if err != nil {
			return 0, err
		}
		if v >= -2048 && v <= 2047 {
			return 1, nil
		}
		if v&0xfff == 0 {
			return 1, nil // lui alone
		}
		return 2, nil
	case "la":
		return 2, nil
	case "call", "tail":
		return 1, nil
	default:
		return 1, nil
	}
}

func (a *assembler) reg(s string) (Reg, error) {
	r, ok := RegByName(s)
	if !ok {
		return 0, fmt.Errorf("unknown register %q", s)
	}
	return r, nil
}

// evalImm evaluates an immediate expression: integer literal, character
// literal, or predefined symbol with optional +/- integer offset.
func (a *assembler) evalImm(s string) (int32, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty immediate")
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == "\\n" {
			return '\n', nil
		}
		if body == "\\t" {
			return '\t', nil
		}
		if body == "\\0" {
			return 0, nil
		}
		if len(body) == 1 {
			return int32(body[0]), nil
		}
		return 0, fmt.Errorf("bad character literal %s", s)
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		if v < -(1<<31) || v > (1<<32)-1 {
			return 0, fmt.Errorf("immediate %s out of 32-bit range", s)
		}
		return int32(uint32(v)), nil
	}
	// symbol[+|-offset]
	name, off := s, int64(0)
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			v, err := strconv.ParseInt(s[i:], 0, 32)
			if err != nil {
				return 0, fmt.Errorf("bad offset in %q", s)
			}
			name, off = s[:i], v
			break
		}
	}
	addr, ok := a.prog.Symbols[strings.TrimSpace(name)]
	if !ok {
		return 0, unknownSymbolError{name}
	}
	return int32(addr) + int32(off), nil
}

// unknownSymbolError reports an immediate naming no symbol defined so far.
type unknownSymbolError struct{ name string }

func (e unknownSymbolError) Error() string { return fmt.Sprintf("unknown symbol %q", e.name) }

// memOperand parses "off(reg)" with off optionally empty or symbolic.
func (a *assembler) memOperand(s string) (int32, Reg, error) {
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	if open < 0 || close < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	var off int32
	if offStr != "" {
		v, err := a.evalImm(offStr)
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := a.reg(strings.TrimSpace(s[open+1 : close]))
	if err != nil {
		return 0, 0, err
	}
	return off, r, nil
}

func (a *assembler) branchTarget(s string, pc uint32) (int32, error) {
	if addr, ok := a.prog.Symbols[s]; ok {
		return int32(addr) - int32(pc), nil
	}
	return a.evalImm(s)
}

func argCount(mnem string, args []string, want int) error {
	if len(args) != want {
		return fmt.Errorf("%s needs %d operands, got %d", mnem, want, len(args))
	}
	return nil
}

// emit expands one source instruction to machine instructions. pc is the
// address of the first emitted instruction.
func (a *assembler) emit(mnem string, args []string, pc uint32) ([]Inst, error) {
	one := func(i Inst, err error) ([]Inst, error) {
		if err != nil {
			return nil, err
		}
		// Validate encodability early so range errors carry line numbers.
		if _, eerr := Encode(i); eerr != nil {
			return nil, eerr
		}
		return []Inst{i}, nil
	}

	switch mnem {
	case "nop":
		return one(Inst{Op: ADDI}, argCount(mnem, args, 0))
	case "halt", "ecall":
		return one(Inst{Op: ECALL}, argCount(mnem, args, 0))
	case "ret":
		return one(Inst{Op: JALR, Rd: X0, Rs1: RA}, argCount(mnem, args, 0))

	case "li":
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		v, err := a.evalImm(args[1])
		if err != nil {
			return nil, err
		}
		return a.loadImm(rd, v)
	case "la":
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		v, err := a.evalImm(args[1])
		if err != nil {
			return nil, err
		}
		return a.loadImm32(rd, v)

	case "mv":
		return a.aluImmPseudo(ADDI, args, 0)
	case "not":
		return a.aluImmPseudo(XORI, args, -1)
	case "seqz":
		return a.aluImmPseudo(SLTIU, args, 1)
	case "neg":
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: SUB, Rd: rd, Rs1: X0, Rs2: rs}, nil)
	case "snez":
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: SLTU, Rd: rd, Rs1: X0, Rs2: rs}, nil)

	case "j":
		if err := argCount(mnem, args, 1); err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[0], pc)
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: JAL, Rd: X0, Imm: off}, nil)
	case "jal":
		switch len(args) {
		case 1:
			off, err := a.branchTarget(args[0], pc)
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: JAL, Rd: RA, Imm: off}, nil)
		case 2:
			rd, err := a.reg(args[0])
			if err != nil {
				return nil, err
			}
			off, err := a.branchTarget(args[1], pc)
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: JAL, Rd: rd, Imm: off}, nil)
		}
		return nil, fmt.Errorf("jal needs 1 or 2 operands")
	case "call":
		if err := argCount(mnem, args, 1); err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[0], pc)
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: JAL, Rd: RA, Imm: off}, nil)
	case "jr":
		if err := argCount(mnem, args, 1); err != nil {
			return nil, err
		}
		rs, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: JALR, Rd: X0, Rs1: rs}, nil)
	case "jalr":
		// jalr rd, off(rs1)  |  jalr rd, rs1, off  |  jalr rs1
		switch len(args) {
		case 1:
			rs, err := a.reg(args[0])
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: JALR, Rd: RA, Rs1: rs}, nil)
		case 2:
			rd, err := a.reg(args[0])
			if err != nil {
				return nil, err
			}
			off, rs1, err := a.memOperand(args[1])
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: off}, nil)
		case 3:
			rd, err := a.reg(args[0])
			if err != nil {
				return nil, err
			}
			rs1, err := a.reg(args[1])
			if err != nil {
				return nil, err
			}
			off, err := a.evalImm(args[2])
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: off}, nil)
		}
		return nil, fmt.Errorf("jalr needs 1-3 operands")

	case "beqz", "bnez", "bltz", "bgez", "blez", "bgtz":
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rs, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[1], pc)
		if err != nil {
			return nil, err
		}
		switch mnem {
		case "beqz":
			return one(Inst{Op: BEQ, Rs1: rs, Rs2: X0, Imm: off}, nil)
		case "bnez":
			return one(Inst{Op: BNE, Rs1: rs, Rs2: X0, Imm: off}, nil)
		case "bltz":
			return one(Inst{Op: BLT, Rs1: rs, Rs2: X0, Imm: off}, nil)
		case "bgez":
			return one(Inst{Op: BGE, Rs1: rs, Rs2: X0, Imm: off}, nil)
		case "blez":
			return one(Inst{Op: BGE, Rs1: X0, Rs2: rs, Imm: off}, nil)
		default: // bgtz
			return one(Inst{Op: BLT, Rs1: X0, Rs2: rs, Imm: off}, nil)
		}

	case "bgt", "ble", "bgtu", "bleu":
		if err := argCount(mnem, args, 3); err != nil {
			return nil, err
		}
		rs1, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs2, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[2], pc)
		if err != nil {
			return nil, err
		}
		switch mnem {
		case "bgt":
			return one(Inst{Op: BLT, Rs1: rs2, Rs2: rs1, Imm: off}, nil)
		case "ble":
			return one(Inst{Op: BGE, Rs1: rs2, Rs2: rs1, Imm: off}, nil)
		case "bgtu":
			return one(Inst{Op: BLTU, Rs1: rs2, Rs2: rs1, Imm: off}, nil)
		default: // bleu
			return one(Inst{Op: BGEU, Rs1: rs2, Rs2: rs1, Imm: off}, nil)
		}
	}

	op, ok := OpByName(mnem)
	if !ok {
		return nil, fmt.Errorf("unknown mnemonic %q", mnem)
	}

	switch op.Format() {
	case FormatR:
		if err := argCount(mnem, args, 3); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs1, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		rs2, err := a.reg(args[2])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil)
	case FormatI:
		if op.Class() == ClassLoad {
			if err := argCount(mnem, args, 2); err != nil {
				return nil, err
			}
			rd, err := a.reg(args[0])
			if err != nil {
				return nil, err
			}
			off, rs1, err := a.memOperand(args[1])
			if err != nil {
				return nil, err
			}
			return one(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: off}, nil)
		}
		if err := argCount(mnem, args, 3); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs1, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		imm, err := a.evalImm(args[2])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}, nil)
	case FormatS:
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rs2, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		off, rs1, err := a.memOperand(args[1])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}, nil)
	case FormatB:
		if err := argCount(mnem, args, 3); err != nil {
			return nil, err
		}
		rs1, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		rs2, err := a.reg(args[1])
		if err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[2], pc)
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}, nil)
	case FormatU:
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		imm, err := a.evalImm(args[1])
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rd: rd, Imm: imm}, nil)
	case FormatJ:
		if err := argCount(mnem, args, 2); err != nil {
			return nil, err
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return nil, err
		}
		off, err := a.branchTarget(args[1], pc)
		if err != nil {
			return nil, err
		}
		return one(Inst{Op: op, Rd: rd, Imm: off}, nil)
	}
	return nil, fmt.Errorf("unhandled mnemonic %q", mnem)
}

// aluImmPseudo expands two-operand pseudo-instructions (mv/not/seqz) that
// map to a single immediate ALU op with a fixed immediate.
func (a *assembler) aluImmPseudo(op Op, args []string, imm int32) ([]Inst, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("pseudo-instruction needs 2 operands, got %d", len(args))
	}
	rd, err := a.reg(args[0])
	if err != nil {
		return nil, err
	}
	rs, err := a.reg(args[1])
	if err != nil {
		return nil, err
	}
	return []Inst{{Op: op, Rd: rd, Rs1: rs, Imm: imm}}, nil
}

// loadImm emits the shortest sequence that loads v into rd.
func (a *assembler) loadImm(rd Reg, v int32) ([]Inst, error) {
	if v >= -2048 && v <= 2047 {
		return []Inst{{Op: ADDI, Rd: rd, Rs1: X0, Imm: v}}, nil
	}
	if v&0xfff == 0 {
		return []Inst{{Op: LUI, Rd: rd, Imm: int32(uint32(v) >> 12)}}, nil
	}
	return a.loadImm32(rd, v)
}

// loadImm32 always emits the two-instruction lui+addi sequence, keeping
// pass-1 sizing trivial for la.
func (a *assembler) loadImm32(rd Reg, v int32) ([]Inst, error) {
	lo := v << 20 >> 20 // sign-extended low 12 bits
	hi := uint32(v-lo) >> 12
	return []Inst{
		{Op: LUI, Rd: rd, Imm: int32(hi & 0xfffff)},
		{Op: ADDI, Rd: rd, Rs1: rd, Imm: lo},
	}, nil
}
