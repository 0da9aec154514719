package scc

import (
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/emu"
	"sccsim/internal/isa"
	"sccsim/internal/uop"
	"sccsim/internal/uopcache"
)

// testEnv builds a compactor Env over an assembled program with a fixed
// value-prediction table (key → value, confidence) and an optional branch
// probe.
func testEnv(p *asm.Program, vals map[uint64]struct {
	V    int64
	Conf int
}, probeBranch func(pc uint64, cond bool, tgt uint64, isRet bool) (bool, uint64, int)) Env {
	return Env{
		UopsAt:   p.Image.At,
		Resident: func(pc uint64) bool { _, ok := p.InstAt(pc); return ok },
		ProbeValue: func(key uint64) (int64, int, bool) {
			e, ok := vals[key]
			if !ok {
				return 0, 0, false
			}
			return e.V, e.Conf, true
		},
		ProbeBranch: probeBranch,
	}
}

// vpKeyAt computes the VP key of the first uop of the macro at the given
// label.
func vpKeyAt(p *asm.Program, label string, seq uint8) uint64 {
	return p.Labels[label]<<3 | uint64(seq)
}

// execCompacted interprets a compacted line's uop stream against an
// architectural state, then applies its live-outs — the semantics the
// pipeline realizes when all invariants hold.
func execCompacted(t *testing.T, line *uopcache.Line, st *emu.State, mem *emu.Memory) {
	t.Helper()
	src := func(u *uop.UOp, which int) int64 {
		var r isa.Reg
		var isImm bool
		var imm int64
		if which == 1 {
			r, isImm, imm = u.Src1, u.Src1Imm, u.Imm1
		} else {
			r, isImm, imm = u.Src2, u.Src2Imm, u.Imm2
		}
		if isImm {
			return imm
		}
		return st.Get(r)
	}
	for i := range line.Uops {
		u := &line.Uops[i]
		switch u.Kind {
		case uop.KAlu:
			st.Set(u.Dst, isa.EvalAlu(u.Fn, src(u, 1), src(u, 2)))
		case uop.KMovImm:
			st.Set(u.Dst, u.Imm)
		case uop.KMov:
			st.Set(u.Dst, src(u, 1))
		case uop.KLoad:
			st.Set(u.Dst, mem.Read64(uint64(src(u, 1)+u.Imm)))
		case uop.KStore:
			mem.Write64(uint64(src(u, 1)+u.Imm), src(u, 2))
		case uop.KBranch, uop.KJump, uop.KJumpReg, uop.KNop, uop.KHalt:
			// no integer register effects
		case uop.KFp:
			// FP register effects are outside the equivalence scope
			// (the SCC unit never touches FP state)
		default:
			t.Fatalf("unexpected uop kind %v in compacted stream", u.Kind)
		}
	}
	for _, lo := range line.Meta.LiveOuts {
		st.Set(lo.Reg, lo.Value)
	}
}

// assertEquivalent runs the original program to the compacted line's EndPC
// and the compacted stream from the same initial state, then compares all
// integer registers and CC.
func assertEquivalent(t *testing.T, p *asm.Program, line *uopcache.Line, maxUops int) {
	t.Helper()
	orig := emu.New(p)
	for i := 0; i < maxUops; i++ {
		if orig.PC() == line.Meta.EndPC && orig.Seq() == 0 {
			break
		}
		if _, ok := orig.StepUop(); !ok {
			break
		}
	}
	comp := emu.New(p)
	execCompacted(t, line, &comp.St, comp.Mem)
	for r := isa.R0; r <= isa.SP; r++ {
		if a, b := orig.St.Get(r), comp.St.Get(r); a != b {
			t.Errorf("register %s: original=%d compacted=%d", r, a, b)
		}
	}
	if a, b := orig.St.Get(isa.RegCC), comp.St.Get(isa.RegCC); a != b {
		t.Errorf("CC: original=%d compacted=%d", a, b)
	}
}

func TestMoveEliminationBasic(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 5
		movi r2, 6
		add  r3, r1, r2
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Abort != AbortNone || res.Line == nil {
		t.Fatalf("compaction failed: %v", res.Abort)
	}
	// Both movis eliminated, add folded: only halt remains.
	if res.ElimMove != 2 || res.ElimFold != 1 {
		t.Errorf("move=%d fold=%d, want 2/1", res.ElimMove, res.ElimFold)
	}
	if res.Line.Slots != 1 {
		t.Errorf("compacted slots = %d, want 1 (halt)", res.Line.Slots)
	}
	// r1, r2, r3 must be live-outs.
	if len(res.Line.Meta.LiveOuts) != 3 {
		t.Errorf("live-outs = %v", res.Line.Meta.LiveOuts)
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestMoveElimDisabledAtBaselineLevels(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 5
		halt
	`)
	cfg := ConfigForLevel(LevelPartitioned)
	res := Compact(cfg, testEnv(p, nil, nil), p.Labels["start"])
	if res.Line != nil || res.ElimMove != 0 {
		t.Errorf("partitioned level must not optimize: %+v", res)
	}
}

func TestConstantFoldingChain(t *testing.T) {
	// The Figure 4 pattern: a chain of dependent integer ops over folded
	// constants collapses entirely.
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 10
		addi r2, r1, 2
		shli r3, r2, 4
		xor  r4, r3, r1
		sub  r5, r4, r2
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.ElimFold != 4 {
		t.Errorf("folded = %d, want 4", res.ElimFold)
	}
	if res.Line.Slots != 1 {
		t.Errorf("slots = %d", res.Line.Slots)
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestConstantPropagationPartialKnowledge(t *testing.T) {
	p := asm.MustAssemble(`
		.data 0x100000
	v:	.word 1234
		.text
		.align 32
	start:
		movi r1, 7
		ld   r2, [r9+0]   ; r9 unknown, not predicted
		add  r3, r2, r1   ; r1 known -> reg-imm form
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.Propagated == 0 {
		t.Error("expected constant propagation into the add")
	}
	var add *uop.UOp
	for i := range res.Line.Uops {
		if res.Line.Uops[i].Kind == uop.KAlu && res.Line.Uops[i].Fn == isa.FnAdd {
			add = &res.Line.Uops[i]
		}
	}
	if add == nil {
		t.Fatal("add uop missing from compacted stream")
	}
	if !add.Src2Imm || add.Imm2 != 7 {
		t.Errorf("add not rewritten to reg-imm: %v", add)
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestDataInvariantFigure3a(t *testing.T) {
	// Figure 3(a): a load is speculatively identified as a prediction
	// source; the dependent addi folds against the predicted value.
	p := asm.MustAssemble(`
		.data 0x100000
	v:	.word 8
		.text
		.align 32
	start:
		movi r9, 0x100000
		ld   r1, [r9+0]
		addi r2, r1, 4
		halt
	`)
	vals := map[uint64]struct {
		V    int64
		Conf int
	}{
		vpKeyAt(p, "start", 0) + 8*uint64(isa.OpMovi.EncLen()): {V: 8, Conf: 12},
	}
	// Key: the ld is the second macro. Compute its key directly instead.
	ldPC := p.Insts[1].Addr
	vals = map[uint64]struct {
		V    int64
		Conf int
	}{ldPC << 3: {V: 8, Conf: 12}}

	res := Compact(DefaultConfig(), testEnv(p, vals, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.DataInvUsed != 1 {
		t.Fatalf("data invariants = %d, want 1", res.DataInvUsed)
	}
	// The load must be retained and marked a prediction source.
	var ld *uop.UOp
	for i := range res.Line.Uops {
		if res.Line.Uops[i].Kind == uop.KLoad {
			ld = &res.Line.Uops[i]
		}
	}
	if ld == nil || !ld.PredSource {
		t.Fatal("prediction source load must be retained and marked")
	}
	// The dependent addi must be folded away (dead code).
	if res.ElimFold < 1 {
		t.Error("dependent addi should fold against the invariant")
	}
	inv := res.Line.Meta.DataInv[0]
	if inv.Value != 8 || inv.PC != ldPC {
		t.Errorf("invariant = %+v", inv)
	}
	// r2 is a live-out with the folded value 12.
	found := false
	for _, lo := range res.Line.Meta.LiveOuts {
		if lo.Reg == isa.R2 && lo.Value == 12 {
			found = true
		}
	}
	if !found {
		t.Errorf("live-outs = %v, want r2=12", res.Line.Meta.LiveOuts)
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestLowConfidencePredictionRejected(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		ld   r1, [r9+0]
		halt
	`)
	ldPC := p.Labels["start"]
	vals := map[uint64]struct {
		V    int64
		Conf int
	}{ldPC << 3: {V: 8, Conf: 3}} // below threshold 5
	res := Compact(DefaultConfig(), testEnv(p, vals, nil), p.Labels["start"])
	if res.DataInvUsed != 0 {
		t.Error("low-confidence prediction must not become an invariant")
	}
}

func TestBranchFoldingFigure3b(t *testing.T) {
	// Figure 3(b): branch direction deducible from known live values;
	// the branch disappears and the walk pivots to the target.
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 3
		movi r3, 3
		cmp  r1, r3
		beq  tgt
		movi r5, 111   ; dead path
		halt
		.align 32
	tgt:
		movi r4, 9
		addi r4, r4, 1
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.ElimBranch != 1 {
		t.Errorf("folded branches = %d, want 1", res.ElimBranch)
	}
	// The dead path's movi r5 must not appear in live-outs; r4 must.
	for _, lo := range res.Line.Meta.LiveOuts {
		if lo.Reg == isa.R5 {
			t.Error("dead-path value leaked into live-outs")
		}
	}
	got := false
	for _, lo := range res.Line.Meta.LiveOuts {
		if lo.Reg == isa.R4 && lo.Value == 10 {
			got = true
		}
	}
	if !got {
		t.Errorf("live-outs = %v, want r4=10 from the pivoted block", res.Line.Meta.LiveOuts)
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestControlInvariantFigure3c(t *testing.T) {
	// Figure 3(c): an unfoldable branch predicted with high confidence is
	// retained as a prediction source; the walk continues at the target.
	p := asm.MustAssemble(`
		.align 32
	start:
		cmp  r1, r3    ; r1, r3 unknown
		beq  loop
		halt
		.align 32
	loop:
		movi r4, 5
		addi r4, r4, 2
		halt
	`)
	probe := func(pc uint64, cond bool, tgt uint64, isRet bool) (bool, uint64, int) {
		return true, tgt, 14 // confidently taken
	}
	res := Compact(DefaultConfig(), testEnv(p, nil, probe), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.CtrlInvUsed != 1 {
		t.Fatalf("control invariants = %d, want 1", res.CtrlInvUsed)
	}
	ci := res.Line.Meta.CtrlInv[0]
	if !ci.Taken || ci.Target != p.Labels["loop"] {
		t.Errorf("control invariant = %+v", ci)
	}
	// The branch is retained (prediction sources may not be eliminated).
	foundBr := false
	for i := range res.Line.Uops {
		if res.Line.Uops[i].Kind == uop.KBranch && res.Line.Uops[i].PredSource {
			foundBr = true
		}
	}
	if !foundBr {
		t.Error("control-invariant branch must remain in the stream")
	}
	// Values from beyond the branch were identified (cross-block).
	got := false
	for _, lo := range res.Line.Meta.LiveOuts {
		if lo.Reg == isa.R4 && lo.Value == 7 {
			got = true
		}
	}
	if !got {
		t.Errorf("live-outs = %v, want r4=7", res.Line.Meta.LiveOuts)
	}
}

func TestLowConfidenceBranchStopsStream(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 1
		cmp  r1, r9
		beq  away
		movi r2, 2
		halt
		.align 32
	away:
		halt
	`)
	probe := func(pc uint64, cond bool, tgt uint64, isRet bool) (bool, uint64, int) {
		return true, tgt, 3 // low confidence
	}
	res := Compact(DefaultConfig(), testEnv(p, nil, probe), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	last := res.Line.Uops[len(res.Line.Uops)-1]
	if last.Kind != uop.KBranch || last.PredSource {
		t.Errorf("stream must end at the unresolvable branch, got %v", &last)
	}
}

func TestSelfLoopAborts(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 4
		repmov
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Abort != AbortSelfLoop {
		t.Errorf("abort = %v, want self-loop", res.Abort)
	}
	if res.Line != nil {
		t.Error("aborted compaction must not produce a line")
	}
}

func TestSelfModifyingCodeAborts(t *testing.T) {
	p := asm.MustAssemble(`
		.org 0x1000
	start:
		movi r1, 0x1000   ; base = this very region
		st   [r1+8], r2
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Abort != AbortSelfModifying {
		t.Errorf("abort = %v, want self-modifying", res.Abort)
	}
}

func TestStoreOutsideRegionOK(t *testing.T) {
	p := asm.MustAssemble(`
		.org 0x1000
	start:
		movi r1, 0x100000
		st   [r1+8], r2
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Abort != AbortNone || res.Line == nil {
		t.Errorf("store outside region must compact: %v", res.Abort)
	}
}

func TestStopsAtRegionEnd(t *testing.T) {
	// Straight-line code crossing a 32-byte boundary: the walk must stop
	// at the boundary (stopping condition (a)).
	p := asm.MustAssemble(`
		.org 0x1000
	start:
		movi r1, 1    ; 6 bytes
		movi r2, 2    ; 6 bytes
		movi r3, 3    ; 6 bytes
		movi r4, 4    ; 6 bytes
		movi r5, 5    ; 6 bytes -> ends at 0x101e
		movi r6, 6    ; 6 bytes, crosses into 0x1020 region
		movi r7, 7
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	// Only the first five movis (those starting inside [0x1000,0x1020))
	// are processed: 0x1000,0x1006,0x100c,0x1012,0x1018. The one at
	// 0x101e starts in-region? 0x101e < 0x1020, so it IS processed; the
	// next macro at 0x1024 is out.
	if res.OrigSlots != 6 {
		t.Errorf("walked %d slots, want 6 (region-bounded)", res.OrigSlots)
	}
	if res.Line.Meta.EndPC != 0x1024 {
		t.Errorf("EndPC = %#x, want 0x1024", res.Line.Meta.EndPC)
	}
}

func TestStopsOnUopCacheMiss(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 1
		movi r2, 2
		halt
	`)
	second := p.Insts[1].Addr
	env := Env{
		UopsAt:   p.Image.At,
		Resident: func(pc uint64) bool { return pc != second }, // miss at 2nd macro
	}
	res := Compact(DefaultConfig(), env, p.Labels["start"])
	if res.OrigSlots != 1 {
		t.Errorf("walk should stop at the miss: slots=%d", res.OrigSlots)
	}
}

func TestStopsAfterMaxBranches(t *testing.T) {
	// Three direct jumps chained: only two may be consumed (§III: stop
	// when more than two branches are encountered).
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 1
		jmp  a
		.align 32
	a:
		movi r2, 2
		jmp  b
		.align 32
	b:
		movi r3, 3
		jmp  c
		.align 32
	c:
		movi r4, 4
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.ElimBranch != 2 {
		t.Errorf("folded %d branches, want 2", res.ElimBranch)
	}
	// Fetch must resume at the unconsumed third jump.
	if res.Line.Meta.EndPC != p.Insts[5].Addr {
		t.Errorf("EndPC = %#x, want the third jmp at %#x", res.Line.Meta.EndPC, p.Insts[5].Addr)
	}
}

func TestConstantWidthRestriction(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 100000   ; needs >16 bits
		movi r2, 3
		add  r3, r1, r2
		halt
	`)
	// Unrestricted: everything folds.
	res64 := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res64.ElimMove != 2 || res64.ElimFold != 1 {
		t.Fatalf("64-bit: move=%d fold=%d", res64.ElimMove, res64.ElimFold)
	}
	// 16-bit: the big movi must stay; the small one still goes, and the
	// add (whose result 100003 exceeds 16 bits) cannot be eliminated.
	cfg := DefaultConfig()
	cfg.ConstWidthBits = 16
	res16 := Compact(cfg, testEnv(p, nil, nil), p.Labels["start"])
	if res16.ElimMove != 1 {
		t.Errorf("16-bit: moves eliminated = %d, want 1", res16.ElimMove)
	}
	if res16.ElimFold != 0 {
		t.Errorf("16-bit: folds = %d, want 0", res16.ElimFold)
	}
	if res16.Line == nil {
		t.Fatal("16-bit compaction should still commit (one move gone)")
	}
	assertEquivalent(t, p, res16.Line, 100)
	// 8-bit: even movi r2, 3 folds (fits), but add result known &
	// retained. Verify equivalence holds regardless.
	cfg.ConstWidthBits = 8
	res8 := Compact(cfg, testEnv(p, nil, nil), p.Labels["start"])
	if res8.Line != nil {
		assertEquivalent(t, p, res8.Line, 100)
	}
}

func TestNoShrinkageDiscards(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		ld   r1, [r9+0]
		mul  r2, r1, r1
		fadd f1, f2, f3
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Abort != AbortNoShrinkage || res.Line != nil {
		t.Errorf("unoptimizable stream should discard: %+v", res.Abort)
	}
}

func TestFPAndComplexIntUntouched(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 6
		movi r2, 7
		mul  r3, r1, r2    ; complex: ALU refuses
		fadd f1, f2, f3    ; FP: unit forgoes
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.ElimFold != 0 {
		t.Error("mul must not be folded by the front-end ALU")
	}
	kinds := map[uop.Kind]int{}
	fns := map[isa.AluFn]int{}
	for i := range res.Line.Uops {
		kinds[res.Line.Uops[i].Kind]++
		fns[res.Line.Uops[i].Fn]++
	}
	if fns[isa.FnMul] != 1 || kinds[uop.KFp] != 1 {
		t.Errorf("mul/fp must be retained: %v %v", kinds, fns)
	}
	// mul's operands should at least be constant-propagated.
	if res.Propagated == 0 {
		t.Error("mul sources should be propagated as immediates")
	}
	assertEquivalent(t, p, res.Line, 100)
}

func TestFusionRepairAfterElimination(t *testing.T) {
	// addm cracks into a fused load+add; when the add folds away (because
	// the load was predicted), the surviving load must not be marked
	// fused-with-prev.
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 50
		addm r1, [r9+0]
		halt
	`)
	addmPC := p.Insts[1].Addr
	vals := map[uint64]struct {
		V    int64
		Conf int
	}{addmPC << 3: {V: 5, Conf: 12}} // predicts the load half (seq 0)
	res := Compact(DefaultConfig(), testEnv(p, vals, nil), p.Labels["start"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	for i := range res.Line.Uops {
		u := &res.Line.Uops[i]
		if i == 0 && u.FusedWithPrev {
			t.Error("first uop cannot be fused with a previous one")
		}
	}
	// add half folds: 50 + 5 = 55 lives in r1's live-out.
	found := false
	for _, lo := range res.Line.Meta.LiveOuts {
		if lo.Reg == isa.R1 && lo.Value == 55 {
			found = true
		}
	}
	if !found {
		t.Errorf("live-outs = %v, want r1=55", res.Line.Meta.LiveOuts)
	}
}

func TestMaxDataInvariantsBound(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		ld r1, [r9+0]
		ld r2, [r9+8]
		ld r3, [r9+16]
		ld r4, [r9+24]
		ld r5, [r9+32]
		ld r6, [r9+40]
		halt
	`)
	vals := map[uint64]struct {
		V    int64
		Conf int
	}{}
	for _, in := range p.Insts {
		if in.Op == isa.OpLd {
			vals[in.Addr<<3] = struct {
				V    int64
				Conf int
			}{V: 7, Conf: 12}
		}
	}
	res := Compact(DefaultConfig(), testEnv(p, vals, nil), p.Labels["start"])
	if res.DataInvUsed > 4 {
		t.Errorf("data invariants = %d, exceeds the 4-invariant bound", res.DataInvUsed)
	}
}

func TestCompactCyclesOneUopPerCycle(t *testing.T) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 1
		movi r2, 2
		add  r3, r1, r2
		halt
	`)
	res := Compact(DefaultConfig(), testEnv(p, nil, nil), p.Labels["start"])
	if res.Cycles != 4 {
		t.Errorf("cycles = %d, want 4 (one per processed uop)", res.Cycles)
	}
}

// --- Unit (request queue + busy modeling) tests ---

func unitEnv(t *testing.T) (Env, *asm.Program) {
	p := asm.MustAssemble(`
		.align 32
	start:
		movi r1, 1
		movi r2, 2
		add  r3, r1, r2
		halt
		.align 32
	other:
		movi r4, 4
		movi r5, 5
		halt
	`)
	return testEnv(p, nil, nil), p
}

func TestUnitRequestQueue(t *testing.T) {
	env, p := unitEnv(t)
	u := NewUnit(DefaultConfig(), env)
	if !u.Request(0, p.Labels["start"]) {
		t.Fatal("request rejected")
	}
	if u.Request(0, p.Labels["start"]) {
		t.Error("duplicate request must be rejected")
	}
	for i := 0; i < 10; i++ {
		u.Request(0, uint64(0x8000+i*32))
	}
	if u.QueueLen() > DefaultConfig().RequestQueueDepth {
		t.Errorf("queue grew to %d, depth %d", u.QueueLen(), DefaultConfig().RequestQueueDepth)
	}
	if u.Stats.Rejected == 0 {
		t.Error("overflow should count rejections")
	}
}

func TestUnitBusyTiming(t *testing.T) {
	env, p := unitEnv(t)
	u := NewUnit(DefaultConfig(), env)
	u.Request(0, p.Labels["start"]) // 4 uops -> 4 cycles
	now := uint64(10)
	if _, ok := u.Tick(now); ok {
		t.Error("job cannot complete on dispatch cycle")
	}
	if got := u.NextEvent(); got != now+4 {
		t.Errorf("NextEvent = %d, want the job's completion at now+4 = %d", got, now+4)
	}
	for c := now + 1; c < now+4; c++ {
		if _, ok := u.Tick(c); ok {
			t.Errorf("completed too early at %d", c)
		}
	}
	res, ok := u.Tick(now + 4)
	if !ok || res.Line == nil {
		t.Fatalf("job should complete at now+4: ok=%v", ok)
	}
	if u.Stats.Committed != 1 || u.Stats.BusyCycles != 4 {
		t.Errorf("stats = %+v", u.Stats)
	}
}

func TestUnitDisabledRejectsRequests(t *testing.T) {
	env, p := unitEnv(t)
	u := NewUnit(ConfigForLevel(LevelPartitioned), env)
	if u.Request(0, p.Labels["start"]) {
		t.Error("disabled unit must reject requests")
	}
	if u.Enabled() {
		t.Error("partitioned level is not enabled")
	}
	if u.Stats.RejectedDisabled != 1 {
		t.Errorf("RejectedDisabled = %d, want 1", u.Stats.RejectedDisabled)
	}
	if u.Stats.Rejected != 0 || u.Stats.Requests != 0 {
		t.Errorf("disabled rejection leaked into Rejected=%d/Requests=%d",
			u.Stats.Rejected, u.Stats.Requests)
	}
}

// TestUnitJournalRequestOutcomes: the journal distinguishes every Request
// verdict — accepted, duplicate, queue overflow, and unit disabled — and
// reports the queue depth at each.
func TestUnitJournalRequestOutcomes(t *testing.T) {
	env, p := unitEnv(t)
	u := NewUnit(DefaultConfig(), env)
	var events []RequestEvent
	u.SetJournal(&Journal{Request: func(ev RequestEvent) { events = append(events, ev) }})

	u.Request(7, p.Labels["start"]) // accepted
	u.Request(8, p.Labels["start"]) // duplicate
	for i := 0; i <= DefaultConfig().RequestQueueDepth; i++ {
		u.Request(9, uint64(0x8000+i*32)) // last one overflows
	}
	want := map[RequestOutcome]bool{
		ReqAccepted: true, ReqRejectedDuplicate: true, ReqRejectedQueueFull: true,
	}
	got := map[RequestOutcome]bool{}
	for _, ev := range events {
		got[ev.Outcome] = true
		if ev.QueueLen > DefaultConfig().RequestQueueDepth {
			t.Errorf("event reports queue depth %d beyond the configured %d",
				ev.QueueLen, DefaultConfig().RequestQueueDepth)
		}
	}
	for o := range want {
		if !got[o] {
			t.Errorf("no journal event with outcome %v", o)
		}
	}
	if events[0].Cycle != 7 || events[0].PC != p.Labels["start"] || events[0].Outcome != ReqAccepted {
		t.Errorf("first event = %+v", events[0])
	}

	disabled := NewUnit(ConfigForLevel(LevelPartitioned), env)
	var dis []RequestEvent
	disabled.SetJournal(&Journal{Request: func(ev RequestEvent) { dis = append(dis, ev) }})
	disabled.Request(0, p.Labels["start"])
	if len(dis) != 1 || dis[0].Outcome != ReqRejectedDisabled {
		t.Errorf("disabled unit events = %+v", dis)
	}
}

// TestUnitJournalJobEvent: a completed job's event carries the planting
// job id, cycle cost, outcome, and the per-transform remark list; the
// committed line is stamped with the same id.
func TestUnitJournalJobEvent(t *testing.T) {
	env, p := unitEnv(t)
	u := NewUnit(DefaultConfig(), env)
	var jobs []JobEvent
	u.SetJournal(&Journal{Job: func(ev JobEvent) { jobs = append(jobs, ev) }})

	u.Request(0, p.Labels["start"])
	var res Result
	ok := false
	for c := uint64(0); c < 100 && !ok; c++ {
		res, ok = u.Tick(c)
	}
	if !ok {
		t.Fatal("job never completed")
	}
	if len(jobs) != 1 {
		t.Fatalf("got %d job events", len(jobs))
	}
	ev := jobs[0]
	if ev.JobID != 1 {
		t.Errorf("first job id = %d, want 1", ev.JobID)
	}
	if ev.PC != p.Labels["start"] || ev.Cycles != res.Cycles {
		t.Errorf("event = %+v, result cycles %d", ev, res.Cycles)
	}
	if ev.Committed != (res.Line != nil) {
		t.Errorf("event committed %v, result line %v", ev.Committed, res.Line != nil)
	}
	if res.Line != nil && res.Line.Meta.JobID != ev.JobID {
		t.Errorf("line stamped with job %d, event says %d", res.Line.Meta.JobID, ev.JobID)
	}
	if len(ev.Remarks) == 0 {
		t.Fatal("journaled job carries no remarks")
	}
	elims := res.ElimMove + res.ElimFold + res.ElimBranch + res.ElimDead +
		res.Propagated + res.DataInvUsed + res.CtrlInvUsed
	if len(ev.Remarks) != elims {
		t.Errorf("%d remarks, result counted %d transforms", len(ev.Remarks), elims)
	}
	for i, r := range ev.Remarks {
		if r.UopIdx < 0 {
			t.Errorf("remark %d has no uop index: %+v", i, r)
		}
		if int(r.Kind) >= NumTransformKinds {
			t.Errorf("remark %d kind out of range: %+v", i, r)
		}
		if (r.Kind == TransformDataInv || r.Kind == TransformCtrlInv) && r.Conf <= 0 {
			t.Errorf("invariant remark %d lost its planting confidence: %+v", i, r)
		}
	}
}

// TestCompactRemarksPureTap: remark collection must not change the
// compaction result — Compact and CompactWithRemarks agree on everything
// but the remark list, and plain Compact allocates none.
func TestCompactRemarksPureTap(t *testing.T) {
	env, p := unitEnv(t)
	plain := Compact(DefaultConfig(), env, p.Labels["start"])
	remarked := CompactWithRemarks(DefaultConfig(), env, p.Labels["start"])
	if plain.Remarks != nil {
		t.Errorf("plain Compact collected %d remarks", len(plain.Remarks))
	}
	if len(remarked.Remarks) == 0 {
		t.Error("CompactWithRemarks collected nothing")
	}
	remarked.Remarks = nil
	if plain.Cycles != remarked.Cycles || plain.ElimMove != remarked.ElimMove ||
		plain.ElimFold != remarked.ElimFold || plain.Propagated != remarked.Propagated ||
		plain.OutSlots != remarked.OutSlots || plain.Abort != remarked.Abort {
		t.Errorf("remark collection changed the result:\nplain    %+v\nremarked %+v",
			plain, remarked)
	}
}

func TestLevelLadder(t *testing.T) {
	ladder := Levels()
	if len(ladder) != 6 {
		t.Fatalf("ladder = %v", ladder)
	}
	me := ConfigForLevel(LevelMoveElim)
	if !me.EnableMoveElim || me.EnableFoldProp {
		t.Error("move-elim level wrong")
	}
	fp := ConfigForLevel(LevelFoldProp)
	if !fp.EnableFoldProp || fp.EnableBranchFold {
		t.Error("fold+prop level wrong")
	}
	full := ConfigForLevel(LevelFull)
	if !full.EnableControlInv {
		t.Error("full level wrong")
	}
	names := map[string]bool{}
	for _, l := range ladder {
		names[l.String()] = true
	}
	if len(names) != 6 {
		t.Error("level names must be distinct")
	}
}

func TestFitsWidth(t *testing.T) {
	cases := []struct {
		v     int64
		width int
		want  bool
	}{
		{127, 8, true}, {128, 8, false}, {-128, 8, true}, {-129, 8, false},
		{32767, 16, true}, {32768, 16, false},
		{1 << 40, 32, false}, {1 << 40, 64, true},
		{-1 << 62, 64, true},
	}
	for _, c := range cases {
		if got := FitsWidth(c.v, c.width); got != c.want {
			t.Errorf("FitsWidth(%d, %d) = %v", c.v, c.width, got)
		}
	}
}

func TestVPKeyDistinguishesCrackedUops(t *testing.T) {
	a := &uop.UOp{MacroPC: 0x1000, SeqNum: 0}
	b := &uop.UOp{MacroPC: 0x1000, SeqNum: 1}
	if VPKey(a) == VPKey(b) {
		t.Error("cracked uops must have distinct VP keys")
	}
}
