package scc

// Tests for occurrence-indexed invariants: a wrapped walk (branch folding
// back into a loop body) revisits the same static micro-op, and invariant
// semantics must bind to the specific dynamic occurrence.

import (
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/uop"
)

// wrapLoop is a tight loop whose backward branch folds (CC predictable),
// so the compaction walk wraps and revisits the load.
const wrapLoop = `
	.entry main
main:
	movi r1, 0
	movi r2, 100000
	movi r9, 0x100000
	jmp  loop
	.align 32
loop:
	ld   r4, [r9+0]
	add  r6, r6, r4
	addi r1, r1, 1
	cmp  r1, r2
	bne  loop
	halt
`

func wrapEnv(p *asm.Program, ldVal int64) Env {
	ldPC := p.Labels["loop"]
	cmpPC := ldPC + 4 + 3 + 4 // ld(4) add(3) addi(4) -> cmp
	return Env{
		UopsAt:   p.Image.At,
		Resident: func(pc uint64) bool { return true },
		ProbeValue: func(key uint64) (int64, int, bool) {
			switch key >> 3 {
			case ldPC:
				return ldVal, 12, true
			case cmpPC:
				return 2, 12, true // flags(r1, r2) = LT, constant until exit
			}
			return 0, 0, false
		},
	}
}

func TestWrappedWalkOnlyFirstOccurrenceProbes(t *testing.T) {
	p := asm.MustAssemble(wrapLoop)
	res := Compact(DefaultConfig(), wrapEnv(p, 10), p.Labels["loop"])
	if res.Line == nil {
		t.Fatalf("no line: %v", res.Abort)
	}
	if res.ElimBranch == 0 {
		t.Fatal("loop branch should fold via the CC invariant (walk wraps)")
	}
	// Each invariant must be a first occurrence, and no two invariants may
	// share (key, occ).
	seen := map[[2]uint64]bool{}
	for _, d := range res.Line.Meta.DataInv {
		if d.Occ != 0 {
			t.Errorf("invariant at occ %d — only first occurrences may probe", d.Occ)
		}
		k := [2]uint64{d.Key, uint64(d.Occ)}
		if seen[k] {
			t.Errorf("duplicate invariant for key %#x occ %d", d.Key, d.Occ)
		}
		seen[k] = true
	}
	// The wrapped (second) instance of the load must be retained and NOT
	// be a prediction source.
	ldPC := p.Labels["loop"]
	count, predSrc := 0, 0
	for i := range res.Line.Uops {
		u := &res.Line.Uops[i]
		if u.Kind == uop.KLoad && u.MacroPC == ldPC {
			count++
			if u.PredSource {
				predSrc++
			}
		}
	}
	if count < 2 {
		t.Fatalf("walk did not wrap: %d load instances", count)
	}
	if predSrc != 1 {
		t.Errorf("prediction sources among load instances = %d, want exactly 1 (the first)", predSrc)
	}
}

func TestWrappedWalkKeyOccCounting(t *testing.T) {
	// Whatever the stream shape, invariants must never exceed the bound
	// and all occurrence ordinals must be consistent with a single pass.
	p := asm.MustAssemble(wrapLoop)
	for _, val := range []int64{10, -3, 1 << 30} {
		res := Compact(DefaultConfig(), wrapEnv(p, val), p.Labels["loop"])
		if res.Line == nil {
			continue
		}
		if len(res.Line.Meta.DataInv) > DefaultConfig().MaxDataInv {
			t.Fatalf("invariant bound exceeded: %d", len(res.Line.Meta.DataInv))
		}
		for _, d := range res.Line.Meta.DataInv {
			if d.Occ < 0 {
				t.Fatal("negative occurrence ordinal")
			}
		}
	}
}
