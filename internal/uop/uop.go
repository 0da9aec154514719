// Package uop defines the micro-op intermediate representation, the
// macro-to-micro-op decoder (instruction "cracking"), and micro-/macro-fusion
// — the substrate both the micro-op cache and the SCC unit operate on.
//
// The mapping mirrors the style of Intel's (proprietary) macro-to-uop
// mapping as modeled by gem5: most instructions decode to a single micro-op,
// CISC load-op forms crack into a micro-fused load+ALU pair, CALL cracks
// into link-register write plus jump, and the REP-style string instruction
// cracks into a self-looping sequence (the case §III says aborts compaction).
//
// A program is decoded once, into an immutable Image that every reader of
// the program shares.
package uop

import (
	"fmt"
	"strings"

	"sccsim/internal/isa"
)

// Kind classifies a micro-op.
type Kind uint8

const (
	KInvalid Kind = iota
	KAlu          // integer ALU: Dst = Fn(Src1, Src2/Imm2); FnCmp/FnTest write CC
	KMovImm       // Dst = Imm
	KMov          // Dst = Src1 (register move; subject to move elimination)
	KLoad         // Dst = mem64[Src1 + Imm] (FP dest for fld)
	KStore        // mem64[Src1 + Imm] = Src2
	KBranch       // conditional branch on CC (Src1=RegCC), to Target
	KJump         // unconditional direct jump to Target
	KJumpReg      // unconditional indirect jump to Src1
	KFp           // floating-point op: Dst = Fn(Src1, Src2) over F regs
	KNop
	KHalt
)

// String returns a short kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KAlu:
		return "alu"
	case KMovImm:
		return "movimm"
	case KMov:
		return "mov"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KBranch:
		return "br"
	case KJump:
		return "jmp"
	case KJumpReg:
		return "jr"
	case KFp:
		return "fp"
	case KNop:
		return "nop"
	case KHalt:
		return "halt"
	}
	return "invalid"
}

// UOp is one micro-op. The operand fields are mutable so the SCC unit can
// apply addressing-mode transformations (constant propagation rewrites a
// register source into its immediate form by setting Src1Imm/Src2Imm).
type UOp struct {
	Kind Kind
	Fn   isa.AluFn // ALU/FP function
	Cond isa.Cond  // branch condition (KBranch/KJump/KJumpReg)

	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	// Imm is the primary immediate: the KMovImm value, or the memory
	// displacement for loads/stores.
	Imm int64
	// Src1Imm/Imm1 and Src2Imm/Imm2 are the constant-propagated forms of
	// the register sources. When SrcNImm is set, SrcN is ignored and ImmN
	// supplies the value directly (register-register converted to
	// register-immediate format, §IV).
	Src1Imm bool
	Src2Imm bool
	Imm1    int64
	Imm2    int64

	Target uint64 // taken target for branches/jumps

	// Provenance within the macro-instruction stream.
	MacroPC    uint64
	MacroLen   uint8
	SeqNum     uint8 // index of this uop within its macro
	NumInMacro uint8

	// FusedWithPrev marks that this uop shares a fused slot with the
	// previous uop in the stream (micro-fusion of load+op, macro-fusion of
	// cmp+branch). Fused pairs occupy one micro-op cache/IDQ slot but
	// execute as separate operations.
	FusedWithPrev bool
	// SelfLoop marks uops belonging to a cracked self-looping sequence
	// (repmov); SCC aborts compaction when it encounters one.
	SelfLoop bool

	// SCC markers, set only on compacted copies of uops.
	PredSource   bool // prediction source: may not be eliminated (§IV)
	InvariantIdx int8 // invariant slot index on the compacted line, -1 if none
}

// NextPC returns the fall-through macro PC after this uop's macro.
func (u *UOp) NextPC() uint64 { return u.MacroPC + uint64(u.MacroLen) }

// IsBranchKind reports whether the uop is any control-flow transfer.
func (u *UOp) IsBranchKind() bool {
	return u.Kind == KBranch || u.Kind == KJump || u.Kind == KJumpReg
}

// WritesCC reports whether the uop writes the condition-code register.
func (u *UOp) WritesCC() bool {
	return u.Kind == KAlu && (u.Fn == isa.FnCmp || u.Fn == isa.FnTest)
}

// HasDst reports whether the uop writes a destination register.
func (u *UOp) HasDst() bool { return u.Dst != isa.RegNone }

// SrcRegs appends the architectural registers this uop reads to dst,
// honouring any constant-propagated (immediate-form) operands.
func (u *UOp) SrcRegs(dst []isa.Reg) []isa.Reg {
	if u.Src1 != isa.RegNone && !u.Src1Imm {
		dst = append(dst, u.Src1)
	}
	if u.Src2 != isa.RegNone && !u.Src2Imm {
		dst = append(dst, u.Src2)
	}
	return dst
}

// String renders the uop for debug output.
func (u *UOp) String() string {
	var b strings.Builder
	if u.FusedWithPrev {
		b.WriteString("+")
	}
	fmt.Fprintf(&b, "%s", u.Kind)
	if u.Kind == KAlu || u.Kind == KFp {
		fmt.Fprintf(&b, ".%s", u.Fn)
	}
	if u.Kind == KBranch {
		fmt.Fprintf(&b, ".%s", u.Cond)
	}
	if u.HasDst() {
		fmt.Fprintf(&b, " %s", u.Dst)
	}
	src := func(r isa.Reg, isImm bool, imm int64) string {
		if isImm {
			return fmt.Sprintf("#%d", imm)
		}
		return r.String()
	}
	switch u.Kind {
	case KMovImm:
		fmt.Fprintf(&b, ", #%d", u.Imm)
	case KMov:
		fmt.Fprintf(&b, ", %s", src(u.Src1, u.Src1Imm, u.Imm1))
	case KAlu, KFp:
		if u.Src1 != isa.RegNone || u.Src1Imm {
			fmt.Fprintf(&b, ", %s", src(u.Src1, u.Src1Imm, u.Imm1))
		}
		if u.Src2 != isa.RegNone || u.Src2Imm {
			fmt.Fprintf(&b, ", %s", src(u.Src2, u.Src2Imm, u.Imm2))
		}
	case KLoad:
		fmt.Fprintf(&b, ", [%s+%d]", src(u.Src1, u.Src1Imm, u.Imm1), u.Imm)
	case KStore:
		fmt.Fprintf(&b, " [%s+%d], %s", src(u.Src1, u.Src1Imm, u.Imm1), u.Imm,
			src(u.Src2, u.Src2Imm, u.Imm2))
	case KBranch, KJump:
		fmt.Fprintf(&b, " 0x%x", u.Target)
	case KJumpReg:
		fmt.Fprintf(&b, " %s", u.Src1)
	}
	if u.PredSource {
		b.WriteString(" <pred-src>")
	}
	return b.String()
}

// Decode cracks one macro-instruction into its micro-op sequence.
// The returned slice is freshly allocated and safe to mutate.
func Decode(in isa.Inst) []UOp {
	mk := func(u UOp) UOp {
		u.MacroPC = in.Addr
		u.MacroLen = uint8(in.Len)
		return u
	}
	var us []UOp
	op := in.Op
	switch {
	case op == isa.OpNop:
		us = []UOp{mk(UOp{Kind: KNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})}
	case op == isa.OpHalt:
		us = []UOp{mk(UOp{Kind: KHalt, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})}
	case op == isa.OpMovi:
		us = []UOp{mk(UOp{Kind: KMovImm, Dst: in.Rd, Src1: isa.RegNone, Src2: isa.RegNone, Imm: in.Imm})}
	case op == isa.OpMov:
		us = []UOp{mk(UOp{Kind: KMov, Dst: in.Rd, Src1: in.Rs1, Src2: isa.RegNone})}
	case op == isa.OpFmov:
		us = []UOp{mk(UOp{Kind: KMov, Dst: in.Rd, Src1: in.Rs1, Src2: isa.RegNone})}
	case op == isa.OpCmp || op == isa.OpTest:
		us = []UOp{mk(UOp{Kind: KAlu, Fn: isa.AluFnOf(op), Dst: isa.RegCC, Src1: in.Rs1, Src2: in.Rs2})}
	case op == isa.OpCmpi:
		us = []UOp{mk(UOp{Kind: KAlu, Fn: isa.FnCmp, Dst: isa.RegCC, Src1: in.Rs1,
			Src2: isa.RegNone, Src2Imm: true, Imm2: in.Imm})}
	case op.HasImmSrc(): // addi family
		us = []UOp{mk(UOp{Kind: KAlu, Fn: isa.AluFnOf(op), Dst: in.Rd, Src1: in.Rs1,
			Src2: isa.RegNone, Src2Imm: true, Imm2: in.Imm})}
	case op == isa.OpAdd || op == isa.OpSub || op == isa.OpAnd || op == isa.OpOr ||
		op == isa.OpXor || op == isa.OpShl || op == isa.OpShr ||
		op == isa.OpMul || op == isa.OpDiv:
		us = []UOp{mk(UOp{Kind: KAlu, Fn: isa.AluFnOf(op), Dst: in.Rd, Src1: in.Rs1, Src2: in.Rs2})}
	case op == isa.OpLd || op == isa.OpFld:
		us = []UOp{mk(UOp{Kind: KLoad, Dst: in.Rd, Src1: in.Rs1, Src2: isa.RegNone, Imm: in.Imm})}
	case op == isa.OpSt || op == isa.OpFst:
		us = []UOp{mk(UOp{Kind: KStore, Dst: isa.RegNone, Src1: in.Rs1, Src2: in.Rs2, Imm: in.Imm})}
	case op == isa.OpAddm:
		// CISC load-op: crack into load + add, micro-fused.
		us = []UOp{
			mk(UOp{Kind: KLoad, Dst: isa.RegTmp, Src1: in.Rs1, Src2: isa.RegNone, Imm: in.Imm, SeqNum: 0}),
			mk(UOp{Kind: KAlu, Fn: isa.FnAdd, Dst: in.Rd, Src1: in.Rd, Src2: isa.RegTmp,
				SeqNum: 1, FusedWithPrev: true}),
		}
	case op.IsCondBranch():
		us = []UOp{mk(UOp{Kind: KBranch, Cond: isa.BranchCond(op), Dst: isa.RegNone,
			Src1: isa.RegCC, Src2: isa.RegNone, Target: in.Target})}
	case op == isa.OpJmp:
		us = []UOp{mk(UOp{Kind: KJump, Cond: isa.CondAlways, Dst: isa.RegNone,
			Src1: isa.RegNone, Src2: isa.RegNone, Target: in.Target})}
	case op == isa.OpCall:
		// Crack into link-register write + jump.
		us = []UOp{
			mk(UOp{Kind: KMovImm, Dst: isa.LR, Src1: isa.RegNone, Src2: isa.RegNone,
				Imm: int64(in.NextAddr()), SeqNum: 0}),
			mk(UOp{Kind: KJump, Cond: isa.CondAlways, Dst: isa.RegNone, Src1: isa.RegNone,
				Src2: isa.RegNone, Target: in.Target, SeqNum: 1}),
		}
	case op == isa.OpRet:
		us = []UOp{mk(UOp{Kind: KJumpReg, Cond: isa.CondAlways, Dst: isa.RegNone,
			Src1: isa.LR, Src2: isa.RegNone})}
	case op == isa.OpJr:
		us = []UOp{mk(UOp{Kind: KJumpReg, Cond: isa.CondAlways, Dst: isa.RegNone,
			Src1: in.Rs1, Src2: isa.RegNone})}
	case op == isa.OpFadd || op == isa.OpFsub || op == isa.OpFmul || op == isa.OpFdiv:
		fn := map[isa.Op]isa.AluFn{isa.OpFadd: isa.FnAdd, isa.OpFsub: isa.FnSub,
			isa.OpFmul: isa.FnMul, isa.OpFdiv: isa.FnDiv}[op]
		us = []UOp{mk(UOp{Kind: KFp, Fn: fn, Dst: in.Rd, Src1: in.Rs1, Src2: in.Rs2})}
	case op == isa.OpCvtIF:
		us = []UOp{mk(UOp{Kind: KFp, Fn: isa.FnCvtIF, Dst: in.Rd, Src1: in.Rs1, Src2: isa.RegNone})}
	case op == isa.OpCvtFI:
		us = []UOp{mk(UOp{Kind: KFp, Fn: isa.FnCvtFI, Dst: in.Rd, Src1: in.Rs1, Src2: isa.RegNone})}
	case op == isa.OpRepmov:
		// Self-looping string copy: while (--r1 != 0) *r3++ = *r2++, word at
		// a time, with a branch micro-op whose target lies inside the same
		// macro-op (the x86 string-instruction pattern from §III).
		us = []UOp{
			mk(UOp{Kind: KLoad, Dst: isa.RegTmp, Src1: isa.R2, Src2: isa.RegNone, SeqNum: 0, SelfLoop: true}),
			mk(UOp{Kind: KStore, Dst: isa.RegNone, Src1: isa.R3, Src2: isa.RegTmp, SeqNum: 1, SelfLoop: true}),
			mk(UOp{Kind: KAlu, Fn: isa.FnAdd, Dst: isa.R2, Src1: isa.R2, Src2: isa.RegNone,
				Src2Imm: true, Imm2: 8, SeqNum: 2, SelfLoop: true}),
			mk(UOp{Kind: KAlu, Fn: isa.FnAdd, Dst: isa.R3, Src1: isa.R3, Src2: isa.RegNone,
				Src2Imm: true, Imm2: 8, SeqNum: 3, SelfLoop: true}),
			mk(UOp{Kind: KAlu, Fn: isa.FnSub, Dst: isa.R1, Src1: isa.R1, Src2: isa.RegNone,
				Src2Imm: true, Imm2: 1, SeqNum: 4, SelfLoop: true}),
			mk(UOp{Kind: KAlu, Fn: isa.FnCmp, Dst: isa.RegCC, Src1: isa.R1, Src2: isa.RegNone,
				Src2Imm: true, Imm2: 0, SeqNum: 5, SelfLoop: true}),
			mk(UOp{Kind: KBranch, Cond: isa.CondNE, Dst: isa.RegNone, Src1: isa.RegCC,
				Src2: isa.RegNone, Target: in.Addr, SeqNum: 6, SelfLoop: true}),
		}
	default:
		us = []UOp{mk(UOp{Kind: KInvalid, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})}
	}
	n := uint8(len(us))
	for i := range us {
		us[i].NumInMacro = n
		if us[i].SeqNum == 0 && i > 0 {
			us[i].SeqNum = uint8(i)
		}
	}
	return us
}

// MacroFuse applies macro-fusion to a decoded uop stream in place: a
// flag-setting compare immediately followed by a conditional branch from the
// next macro-op is fused into one slot, as on Intel cores.
func MacroFuse(us []UOp) {
	for i := 1; i < len(us); i++ {
		if us[i].Kind == KBranch && !us[i].FusedWithPrev &&
			us[i-1].WritesCC() && us[i-1].MacroPC != us[i].MacroPC &&
			!us[i-1].SelfLoop && !us[i].SelfLoop {
			us[i].FusedWithPrev = true
		}
	}
}

// SlotCount returns the number of fused slots the uop sequence occupies
// (fused pairs count once). This is the unit of fetch width, micro-op cache
// capacity and IDQ occupancy.
func SlotCount(us []UOp) int {
	n := 0
	for i := range us {
		if !us[i].FusedWithPrev {
			n++
		}
	}
	return n
}

// Decoder decodes macro-instructions lazily through an instruction
// lookup, memoizing each address's uops in a map. The simulator reads a
// program's Image instead (asm.Program.Image); Decoder remains for
// callers that hold only an InstAt function, such as perfbench's
// component replay.
type Decoder struct {
	inst  func(addr uint64) (isa.Inst, bool)
	cache map[uint64][]UOp
}

// NewDecoder returns a Decoder reading macro-instructions via instAt
// (typically (*asm.Program).InstAt).
func NewDecoder(instAt func(addr uint64) (isa.Inst, bool)) *Decoder {
	return &Decoder{inst: instAt, cache: make(map[uint64][]UOp)}
}

// At returns the cached micro-op sequence for the macro-op at addr. The
// returned slice is shared: callers that mutate uops (the SCC unit) must
// copy first (see Clone).
func (d *Decoder) At(addr uint64) ([]UOp, bool) {
	if us, ok := d.cache[addr]; ok {
		return us, true
	}
	in, ok := d.inst(addr)
	if !ok {
		return nil, false
	}
	us := Decode(in)
	d.cache[addr] = us
	return us, true
}

// Clone deep-copies a uop slice for safe mutation.
func Clone(us []UOp) []UOp {
	out := make([]UOp, len(us))
	copy(out, us)
	return out
}
