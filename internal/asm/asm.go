// Package asm implements a small two-pass assembler for the UXA ISA and the
// Program container that the rest of the simulator consumes.
//
// The workloads in internal/workloads are written in this assembly dialect;
// downstream users can author their own kernels the same way (see
// examples/customworkload).
//
// Syntax overview:
//
//	; line comment (also //)
//	.entry main          ; program entry label (default: first instruction)
//	.org 0x1000          ; code origin (default CodeBase)
//	.data 0x100000       ; switch to data emission at the given address
//	.word 1, 2, 3        ; emit 64-bit little-endian words
//	.space 64            ; reserve zeroed bytes
//	label:
//	    movi r1, 42
//	    ld   r2, [r1+8]
//	    addm r2, [r1+16]
//	    cmpi r2, 0
//	    beq  done
//	    st   [r1], r2
//	    jmp  label
//	done:
//	    halt
//
// No two instructions may overlap, and no two words: an .org or .data
// back over emitted code or data is an error.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

// CodeBase is the default origin of the code segment.
const CodeBase uint64 = 0x1000

// DataBase is the conventional origin of the data segment.
const DataBase uint64 = 0x100000

// Program is an assembled UXA program: the instruction stream with resolved
// addresses, its decoded micro-op image, the initial data image, and the
// entry point. Every machine running a program shares it, so it is
// read-only once assembled.
type Program struct {
	Insts  []isa.Inst
	ByAddr map[uint64]int // instruction address -> index into Insts
	// Image holds every instruction's micro-ops, decoded once by
	// Assemble.
	Image  *uop.Image
	Data   map[uint64][]byte
	Entry  uint64
	Labels map[string]uint64
}

// InstAt returns the instruction at the given code address.
func (p *Program) InstAt(addr uint64) (isa.Inst, bool) {
	i, ok := p.ByAddr[addr]
	if !ok {
		return isa.Inst{}, false
	}
	return p.Insts[i], true
}

// CodeEnd returns the first address past the last instruction.
func (p *Program) CodeEnd() uint64 {
	if len(p.Insts) == 0 {
		return CodeBase
	}
	last := p.Insts[len(p.Insts)-1]
	return last.NextAddr()
}

// Error is an assembly diagnostic carrying the source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type assembler struct {
	lines   []string
	labels  map[string]uint64
	program *Program
	maxLen  int // the longest instruction emitted so far, in bytes
}

// Assemble assembles UXA source text into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		lines:  strings.Split(src, "\n"),
		labels: make(map[string]uint64),
		program: &Program{
			ByAddr: make(map[uint64]int),
			Data:   make(map[uint64][]byte),
			Labels: make(map[string]uint64),
		},
	}
	if err := a.pass(false); err != nil {
		return nil, err
	}
	a.program.Insts = a.program.Insts[:0]
	a.program.ByAddr = make(map[uint64]int)
	a.program.Data = make(map[uint64][]byte)
	if err := a.pass(true); err != nil {
		return nil, err
	}
	a.program.Labels = a.labels
	if a.program.Entry == 0 && len(a.program.Insts) > 0 {
		a.program.Entry = a.program.Insts[0].Addr
	}
	a.program.Image = uop.NewImage(a.program.Insts)
	return a.program, nil
}

// MustAssemble assembles src and panics on error. For tests and fixed
// built-in workloads whose sources are compile-time constants.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) pass(final bool) error {
	pc := CodeBase
	dataMode := false
	var dataAddr uint64
	entryLabel := ""

	for li, raw := range a.lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly followed by an instruction on the same line).
		for {
			if i := strings.Index(line, ":"); i >= 0 && isIdent(strings.TrimSpace(line[:i])) {
				name := strings.TrimSpace(line[:i])
				if !final {
					if _, dup := a.labels[name]; dup {
						return errf(li+1, "duplicate label %q", name)
					}
					if dataMode {
						a.labels[name] = dataAddr
					} else {
						a.labels[name] = pc
					}
				}
				line = strings.TrimSpace(line[i+1:])
				if line == "" {
					break
				}
				continue
			}
			break
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			dir, rest, _ := strings.Cut(line, " ")
			rest = strings.TrimSpace(rest)
			switch dir {
			case ".org":
				v, err := parseUint(rest)
				if err != nil {
					return errf(li+1, "bad .org operand %q", rest)
				}
				pc = v
				dataMode = false
			case ".data":
				v := DataBase
				if rest != "" {
					var err error
					v, err = parseUint(rest)
					if err != nil {
						return errf(li+1, "bad .data operand %q", rest)
					}
				}
				dataMode = true
				dataAddr = v
			case ".text":
				dataMode = false
			case ".entry":
				entryLabel = rest
			case ".word":
				if !dataMode {
					return errf(li+1, ".word outside .data section")
				}
				for _, f := range splitOperands(rest) {
					v, err := a.operandValue(f, li+1, final)
					if err != nil {
						return err
					}
					if final {
						if err := a.emitWord(li+1, dataAddr, uint64(v)); err != nil {
							return err
						}
					}
					dataAddr += 8
				}
			case ".space":
				n, err := parseUint(rest)
				if err != nil {
					return errf(li+1, "bad .space operand %q", rest)
				}
				if !dataMode {
					return errf(li+1, ".space outside .data section")
				}
				dataAddr += n
			case ".align":
				n, err := parseUint(rest)
				if err != nil || n == 0 || n&(n-1) != 0 {
					return errf(li+1, "bad .align operand %q", rest)
				}
				if dataMode {
					dataAddr = (dataAddr + n - 1) &^ (n - 1)
				} else {
					pc = (pc + n - 1) &^ (n - 1)
				}
			default:
				return errf(li+1, "unknown directive %s", dir)
			}
			continue
		}

		if dataMode {
			return errf(li+1, "instruction %q inside .data section", line)
		}
		inst, err := a.parseInst(line, li+1, final)
		if err != nil {
			return err
		}
		inst.Addr = pc
		inst.Len = inst.Op.EncLen()
		if pc+uint64(inst.Len) < pc {
			return errf(li+1, "instruction at %#x runs past the end of the address space", pc)
		}
		if final {
			if err := a.emitInst(li+1, inst); err != nil {
				return err
			}
		}
		pc += uint64(inst.Len)
	}

	if final && entryLabel != "" {
		addr, ok := a.labels[entryLabel]
		if !ok {
			return errf(0, "undefined .entry label %q", entryLabel)
		}
		a.program.Entry = addr
	}
	return nil
}

// emitInst appends inst to the program unless it overlaps an instruction
// already emitted.
func (a *assembler) emitInst(line int, inst isa.Inst) error {
	pc := inst.Addr
	overlap := func(j int) error {
		return errf(line, "instruction at %#x overlaps the instruction at %#x", pc, a.program.Insts[j].Addr)
	}
	for d := 0; d < a.maxLen; d++ { // starting d bytes below pc, and longer than d
		if j, ok := a.program.ByAddr[pc-uint64(d)]; ok && a.program.Insts[j].Len > d {
			return overlap(j)
		}
	}
	for d := 1; d < inst.Len; d++ { // starting inside inst
		if j, ok := a.program.ByAddr[pc+uint64(d)]; ok {
			return overlap(j)
		}
	}
	a.program.ByAddr[pc] = len(a.program.Insts)
	a.program.Insts = append(a.program.Insts, inst)
	a.maxLen = max(a.maxLen, inst.Len)
	return nil
}

// emitWord stores a little-endian word at addr unless it overlaps a word
// already emitted: the initial memory image must not depend on which of
// two overlapping words is loaded last.
func (a *assembler) emitWord(line int, addr, v uint64) error {
	for d := uint64(0); d < 8; d++ {
		for _, at := range [2]uint64{addr - d, addr + d} {
			if _, ok := a.program.Data[at]; ok {
				return errf(line, ".word at %#x overlaps the word at %#x", addr, at)
			}
		}
	}
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	a.program.Data[addr] = b
	return nil
}

var mnemonics = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "and": isa.OpAnd, "or": isa.OpOr,
	"xor": isa.OpXor, "shl": isa.OpShl, "shr": isa.OpShr,
	"addi": isa.OpAddi, "subi": isa.OpSubi, "andi": isa.OpAndi,
	"ori": isa.OpOri, "xori": isa.OpXori, "shli": isa.OpShli, "shri": isa.OpShri,
	"movi": isa.OpMovi, "mov": isa.OpMov,
	"mul": isa.OpMul, "div": isa.OpDiv,
	"cmp": isa.OpCmp, "cmpi": isa.OpCmpi, "test": isa.OpTest,
	"ld": isa.OpLd, "st": isa.OpSt, "addm": isa.OpAddm,
	"beq": isa.OpBeq, "bne": isa.OpBne, "blt": isa.OpBlt, "bge": isa.OpBge,
	"ble": isa.OpBle, "bgt": isa.OpBgt,
	"jmp": isa.OpJmp, "call": isa.OpCall, "ret": isa.OpRet, "jr": isa.OpJr,
	"fadd": isa.OpFadd, "fsub": isa.OpFsub, "fmul": isa.OpFmul, "fdiv": isa.OpFdiv,
	"fmov": isa.OpFmov, "fld": isa.OpFld, "fst": isa.OpFst,
	"cvtif": isa.OpCvtIF, "cvtfi": isa.OpCvtFI,
	"repmov": isa.OpRepmov,
	"nop":    isa.OpNop, "halt": isa.OpHalt,
}

func (a *assembler) parseInst(line string, lineNo int, final bool) (isa.Inst, error) {
	mnem, rest, _ := strings.Cut(line, " ")
	mnem = strings.ToLower(mnem)
	op, ok := mnemonics[mnem]
	if !ok {
		return isa.Inst{}, errf(lineNo, "unknown mnemonic %q", mnem)
	}
	ops := splitOperands(strings.TrimSpace(rest))
	in := isa.Inst{Op: op, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone}

	reg := func(s string) (isa.Reg, error) {
		r, ok := parseReg(s)
		if !ok {
			return isa.RegNone, errf(lineNo, "bad register %q", s)
		}
		return r, nil
	}
	imm := func(s string) (int64, error) { return a.operandValue(s, lineNo, final) }
	memOperand := func(s string) (isa.Reg, int64, error) {
		base, disp, ok := parseMem(s)
		if !ok {
			return isa.RegNone, 0, errf(lineNo, "bad memory operand %q", s)
		}
		r, ok2 := parseReg(base)
		if !ok2 {
			return isa.RegNone, 0, errf(lineNo, "bad base register in %q", s)
		}
		var d int64
		if disp != "" {
			var err error
			d, err = a.operandValue(disp, lineNo, final)
			if err != nil {
				return isa.RegNone, 0, err
			}
		}
		return r, d, nil
	}
	need := func(n int) error {
		if len(ops) != n {
			return errf(lineNo, "%s expects %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}

	var err error
	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpRet, isa.OpRepmov:
		if len(ops) != 0 {
			return in, errf(lineNo, "%s takes no operands", mnem)
		}
	case isa.OpMovi:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Imm, err = imm(ops[1]); err != nil {
			return in, err
		}
	case isa.OpMov, isa.OpFmov, isa.OpCvtIF, isa.OpCvtFI:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[1]); err != nil {
			return in, err
		}
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl,
		isa.OpShr, isa.OpMul, isa.OpDiv, isa.OpFadd, isa.OpFsub, isa.OpFmul,
		isa.OpFdiv:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[1]); err != nil {
			return in, err
		}
		if in.Rs2, err = reg(ops[2]); err != nil {
			return in, err
		}
	case isa.OpAddi, isa.OpSubi, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri:
		if err = need(3); err != nil {
			return in, err
		}
		if in.Rd, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[1]); err != nil {
			return in, err
		}
		if in.Imm, err = imm(ops[2]); err != nil {
			return in, err
		}
	case isa.OpCmp, isa.OpTest:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Rs2, err = reg(ops[1]); err != nil {
			return in, err
		}
	case isa.OpCmpi:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Imm, err = imm(ops[1]); err != nil {
			return in, err
		}
	case isa.OpLd, isa.OpFld, isa.OpAddm:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rd, err = reg(ops[0]); err != nil {
			return in, err
		}
		if in.Rs1, in.Imm, err = memOperand(ops[1]); err != nil {
			return in, err
		}
	case isa.OpSt, isa.OpFst:
		if err = need(2); err != nil {
			return in, err
		}
		if in.Rs1, in.Imm, err = memOperand(ops[0]); err != nil {
			return in, err
		}
		if in.Rs2, err = reg(ops[1]); err != nil {
			return in, err
		}
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt,
		isa.OpJmp, isa.OpCall:
		if err = need(1); err != nil {
			return in, err
		}
		v, err := a.operandValue(ops[0], lineNo, final)
		if err != nil {
			return in, err
		}
		in.Target = uint64(v)
	case isa.OpJr:
		if err = need(1); err != nil {
			return in, err
		}
		if in.Rs1, err = reg(ops[0]); err != nil {
			return in, err
		}
	default:
		return in, errf(lineNo, "unhandled mnemonic %q", mnem)
	}
	return in, nil
}

// operandValue resolves a numeric literal or a label reference. During the
// sizing pass (final=false) unresolved labels evaluate to zero.
func (a *assembler) operandValue(s string, lineNo int, final bool) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errf(lineNo, "empty operand")
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if v, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 64); err == nil {
		if neg {
			return -int64(v), nil
		}
		return int64(v), nil
	}
	if isIdent(s) {
		if v, ok := a.labels[s]; ok {
			if neg {
				return -int64(v), nil
			}
			return int64(v), nil
		}
		if !final {
			return 0, nil
		}
		return 0, errf(lineNo, "undefined label %q", s)
	}
	return 0, errf(lineNo, "bad operand %q", s)
}

func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(s), 0, 64)
}

func parseReg(s string) (isa.Reg, bool) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp":
		return isa.SP, true
	case "lr":
		return isa.LR, true
	case "cc":
		return isa.RegCC, true
	}
	if len(s) >= 2 && (s[0] == 'r' || s[0] == 'f') {
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n > 15 {
			return isa.RegNone, false
		}
		if s[0] == 'r' {
			return isa.Reg(n), true
		}
		return isa.Reg(16 + n), true
	}
	return isa.RegNone, false
}

// parseMem splits "[base+disp]" / "[base-disp]" / "[base]" into parts.
func parseMem(s string) (base, disp string, ok bool) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return "", "", false
	}
	inner := s[1 : len(s)-1]
	if i := strings.IndexAny(inner, "+-"); i > 0 {
		base = strings.TrimSpace(inner[:i])
		disp = strings.TrimSpace(inner[i:])
		if strings.HasPrefix(disp, "+") {
			disp = strings.TrimSpace(disp[1:])
		}
		return base, disp, true
	}
	return strings.TrimSpace(inner), "", true
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Bare numbers are not identifiers; register names are not labels.
	if _, ok := parseReg(s); ok {
		return false
	}
	return true
}
