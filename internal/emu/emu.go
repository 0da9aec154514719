// Package emu implements the functional reference model for UXA programs.
//
// The emulator executes micro-ops in program order with exact architectural
// semantics. The pipeline simulator uses it as its execute-at-fetch oracle
// (the standard technique for front-end studies: functional state advances
// at fetch, timing is charged by the dependence-driven back-end), and tests
// use it as the golden model that compacted streams are validated against.
package emu

import (
	"math"

	"sccsim/internal/asm"
	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

const pageSize = 4096
const pageMask = pageSize - 1

// Memory is a sparse, page-granular byte-addressable memory image.
// The zero value is ready to use.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr / pageSize
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Load8 reads one byte; unmapped memory reads as zero.
func (m *Memory) Load8(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Store8 writes one byte, allocating the page on demand.
func (m *Memory) Store8(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read64 reads a little-endian 64-bit word (may straddle pages).
func (m *Memory) Read64(addr uint64) int64 {
	if addr&pageMask <= pageSize-8 {
		if p := m.page(addr, false); p != nil {
			o := addr & pageMask
			return int64(uint64(p[o]) | uint64(p[o+1])<<8 | uint64(p[o+2])<<16 |
				uint64(p[o+3])<<24 | uint64(p[o+4])<<32 | uint64(p[o+5])<<40 |
				uint64(p[o+6])<<48 | uint64(p[o+7])<<56)
		}
		return 0
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Load8(addr+i)) << (8 * i)
	}
	return int64(v)
}

// Write64 writes a little-endian 64-bit word.
func (m *Memory) Write64(addr uint64, v int64) {
	if addr&pageMask <= pageSize-8 {
		p := m.page(addr, true)
		o := addr & pageMask
		u := uint64(v)
		p[o], p[o+1], p[o+2], p[o+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		p[o+4], p[o+5], p[o+6], p[o+7] = byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Store8(addr+i, byte(uint64(v)>>(8*i)))
	}
}

// LoadImage copies a program's initial data segments into memory.
func (m *Memory) LoadImage(data map[uint64][]byte) {
	for addr, bytes := range data {
		for i, b := range bytes {
			m.Store8(addr+uint64(i), b)
		}
	}
}

// State holds the complete architectural state: 16 integer registers,
// 16 FP registers (stored as float64 bit patterns), the CC flags register
// and the micro-architectural temporary.
type State struct {
	Regs   [34]int64
	PC     uint64
	Halted bool
}

// Get reads a register value (FP registers as raw bits).
func (s *State) Get(r isa.Reg) int64 {
	if r == isa.RegNone {
		return 0
	}
	return s.Regs[r]
}

// Set writes a register value.
func (s *State) Set(r isa.Reg, v int64) {
	if r == isa.RegNone {
		return
	}
	s.Regs[r] = v
}

// GetF reads an FP register as float64.
func (s *State) GetF(r isa.Reg) float64 { return math.Float64frombits(uint64(s.Get(r))) }

// SetF writes an FP register from float64.
func (s *State) SetF(r isa.Reg, v float64) { s.Set(r, int64(math.Float64bits(v))) }

// ExecResult describes the architectural effect of one executed micro-op,
// consumed by the pipeline for value-predictor training, branch resolution
// and invariant validation.
type ExecResult struct {
	U         *uop.UOp // the executed uop (the program image's storage; do not mutate)
	Value     int64    // value written to U.Dst (0 if no destination)
	Taken     bool     // branch outcome (branch kinds only)
	Target    uint64   // next macro PC after this uop
	MemAddr   uint64   // effective address (loads/stores)
	EndsMacro bool     // true when this uop is the last executed for its macro
}

// Machine executes a program functionally at micro-op granularity. It
// reads each macro-instruction's micro-ops from the program's shared
// image (asm.Program.Image) and never modifies them.
type Machine struct {
	Prog *asm.Program
	St   State
	Mem  *Memory

	curUops []uop.UOp // the current macro's uops, in Prog.Image
	curSeq  int

	// UopCount counts executed micro-ops; MacroCount counts completed
	// macro-instructions.
	UopCount   uint64
	MacroCount uint64

	// Undo-log state (see BeginUndo): used by the pipeline to validate a
	// compacted stream's invariants by dry-running the original sequence
	// and rolling back on a violation, modeling a pipeline squash.
	undoActive bool
	undoState  State
	undoSeq    int
	undoUops   uint64
	undoMacros uint64
	undoMem    []memUndo
}

type memUndo struct {
	addr uint64
	old  int64
}

// New creates a Machine with the program's data image loaded and the PC at
// the entry point.
func New(p *asm.Program) *Machine {
	m := &Machine{
		Prog: p,
		Mem:  NewMemory(),
	}
	m.Mem.LoadImage(p.Data)
	m.St.PC = p.Entry
	return m
}

// PC returns the macro PC of the next uop to execute.
func (m *Machine) PC() uint64 { return m.St.PC }

// Seq returns the intra-macro uop index of the next uop to execute.
func (m *Machine) Seq() int { return m.curSeq }

// Halted reports whether a HALT micro-op has executed.
func (m *Machine) Halted() bool { return m.St.Halted }

func (m *Machine) src(u *uop.UOp, which int) int64 {
	if which == 1 {
		if u.Src1Imm {
			return u.Imm1
		}
		return m.St.Get(u.Src1)
	}
	if u.Src2Imm {
		return u.Imm2
	}
	return m.St.Get(u.Src2)
}

// StepUop executes the next micro-op in program order and returns its
// architectural effect. It returns ok=false when the machine is halted or
// the PC points outside the program.
func (m *Machine) StepUop() (ExecResult, bool) {
	if m.St.Halted {
		return ExecResult{}, false
	}
	if m.curUops == nil || m.curSeq >= len(m.curUops) {
		us, ok := m.Prog.Image.At(m.St.PC)
		if !ok {
			m.St.Halted = true
			return ExecResult{}, false
		}
		m.curUops = us
		m.curSeq = 0
	}
	u := &m.curUops[m.curSeq]
	res := ExecResult{U: u}

	advanceMacro := func(next uint64) {
		res.Target = next
		res.EndsMacro = true
		m.St.PC = next
		m.curUops = nil
		m.curSeq = 0
		m.MacroCount++
	}

	switch u.Kind {
	case uop.KAlu:
		v := isa.EvalAlu(u.Fn, m.src(u, 1), m.src(u, 2))
		m.St.Set(u.Dst, v)
		res.Value = v
	case uop.KMovImm:
		m.St.Set(u.Dst, u.Imm)
		res.Value = u.Imm
	case uop.KMov:
		v := m.src(u, 1)
		m.St.Set(u.Dst, v)
		res.Value = v
	case uop.KLoad:
		addr := uint64(m.src(u, 1) + u.Imm)
		v := m.Mem.Read64(addr)
		m.St.Set(u.Dst, v)
		res.Value = v
		res.MemAddr = addr
	case uop.KStore:
		addr := uint64(m.src(u, 1) + u.Imm)
		if m.undoActive {
			m.undoMem = append(m.undoMem, memUndo{addr: addr, old: m.Mem.Read64(addr)})
		}
		m.Mem.Write64(addr, m.src(u, 2))
		res.MemAddr = addr
	case uop.KBranch:
		taken := isa.CondHolds(u.Cond, m.St.Get(isa.RegCC))
		res.Taken = taken
		m.UopCount++
		if taken {
			if u.Target == u.MacroPC && u.SelfLoop {
				// Intra-macro self-loop: restart the cracked sequence.
				res.Target = u.MacroPC
				m.curSeq = 0
				return res, true
			}
			advanceMacro(u.Target)
		} else if m.curSeq == len(m.curUops)-1 {
			advanceMacro(u.NextPC())
		} else {
			m.curSeq++
		}
		return res, true
	case uop.KJump:
		res.Taken = true
		m.UopCount++
		advanceMacro(u.Target)
		return res, true
	case uop.KJumpReg:
		res.Taken = true
		t := uint64(m.src(u, 1))
		m.UopCount++
		advanceMacro(t)
		return res, true
	case uop.KFp:
		var v float64
		switch u.Fn {
		case isa.FnAdd:
			v = m.StGetF(u.Src1) + m.StGetF(u.Src2)
		case isa.FnSub:
			v = m.StGetF(u.Src1) - m.StGetF(u.Src2)
		case isa.FnMul:
			v = m.StGetF(u.Src1) * m.StGetF(u.Src2)
		case isa.FnDiv:
			d := m.StGetF(u.Src2)
			if d == 0 {
				v = 0
			} else {
				v = m.StGetF(u.Src1) / d
			}
		case isa.FnCvtIF:
			v = float64(m.St.Get(u.Src1))
		case isa.FnCvtFI:
			iv := int64(m.StGetF(u.Src1))
			m.St.Set(u.Dst, iv)
			res.Value = iv
			m.UopCount++
			m.advanceSeq(u, &res)
			return res, true
		}
		m.St.SetF(u.Dst, v)
		res.Value = m.St.Get(u.Dst)
	case uop.KNop:
	case uop.KHalt:
		m.St.Halted = true
		m.UopCount++
		res.EndsMacro = true
		res.Target = u.NextPC()
		return res, true
	default:
		m.St.Halted = true
		return ExecResult{}, false
	}
	m.UopCount++
	m.advanceSeq(u, &res)
	return res, true
}

// StGetF reads an FP register as float64 (helper used by KFp execution).
func (m *Machine) StGetF(r isa.Reg) float64 { return m.St.GetF(r) }

func (m *Machine) advanceSeq(u *uop.UOp, res *ExecResult) {
	if m.curSeq == len(m.curUops)-1 {
		res.Target = u.NextPC()
		res.EndsMacro = true
		m.St.PC = u.NextPC()
		m.curUops = nil
		m.curSeq = 0
		m.MacroCount++
	} else {
		m.curSeq++
	}
}

// Run executes up to maxUops micro-ops (or until HALT) and returns the
// number executed.
func (m *Machine) Run(maxUops uint64) uint64 {
	start := m.UopCount
	for m.UopCount-start < maxUops {
		if _, ok := m.StepUop(); !ok {
			break
		}
	}
	return m.UopCount - start
}

// Snapshot returns a copy of the architectural register state for
// golden-model comparisons.
func (m *Machine) Snapshot() State { return m.St }

// BeginUndo starts recording an undo log. Until CommitUndo or Rollback is
// called, every store's previous memory value is saved so the machine can
// be restored to the BeginUndo point. Used for invariant validation
// dry-runs; nesting is not supported.
func (m *Machine) BeginUndo() {
	m.undoActive = true
	m.undoState = m.St
	m.undoSeq = m.curSeq
	m.undoUops = m.UopCount
	m.undoMacros = m.MacroCount
	m.undoMem = m.undoMem[:0]
}

// CommitUndo keeps the executed effects and drops the undo log.
func (m *Machine) CommitUndo() {
	m.undoActive = false
	m.undoMem = m.undoMem[:0]
}

// Rollback restores the machine to the state captured at BeginUndo,
// including memory, modeling a full pipeline squash.
func (m *Machine) Rollback() {
	if !m.undoActive {
		return
	}
	for i := len(m.undoMem) - 1; i >= 0; i-- {
		m.Mem.Write64(m.undoMem[i].addr, m.undoMem[i].old)
	}
	m.St = m.undoState
	m.UopCount = m.undoUops
	m.MacroCount = m.undoMacros
	m.curUops = nil
	m.curSeq = 0
	if m.undoSeq != 0 {
		// Restore a mid-macro position by looking the current macro up
		// in the image again.
		if us, ok := m.Prog.Image.At(m.St.PC); ok {
			m.curUops = us
			m.curSeq = m.undoSeq
		}
	}
	m.undoActive = false
	m.undoMem = m.undoMem[:0]
}
