// Deadcode walks through the paper's Figure 3/4 transformations on a hot
// basic block, showing exactly which micro-ops the SCC unit eliminates,
// which become prediction sources, and what the compacted stream and its
// live-outs look like. This drives the compaction engine directly (the
// same code the pipeline invokes) so every decision is visible.
package main

import (
	"fmt"

	"sccsim/internal/asm"
	"sccsim/internal/scc"
)

// The Figure 4 flavour: a compiler-optimized basic block whose load is
// dynamically invariant. Every remaining integer op folds or propagates.
const block = `
	.data 0x100000
width:	.word 8
	.text
	.entry main
	.org 0x1000
main:
	movi r9, 0x100000
	ld   r1, [r9+0]     ; speculative data invariant (predicted = 8)
	addi r2, r1, 4      ; folds: r2 = 12
	shli r3, r2, 2      ; folds: r3 = 48
	add  r4, r3, r7     ; r7 unknown -> constant-propagated to add r4, #48, r7
	cmpi r3, 100        ; folds: flags(48, 100)
	blt  under
	movi r5, 1          ; dead path
	halt
under:
	movi r5, 2          ; reached: folds into live-out r5 = 2
	halt
`

func main() {
	prog := asm.MustAssemble(block)

	// Show the original micro-op sequence.
	fmt.Println("original micro-ops:")
	n := 0
	for _, in := range prog.Insts {
		us, _ := prog.Image.At(in.Addr)
		for i := range us {
			fmt.Printf("  %2d: [%#x] %v\n", n, in.Addr, &us[i])
			n++
		}
	}

	// The environment the pipeline would provide: everything resident,
	// and the value predictor confidently predicting the load's value.
	ldPC := prog.Insts[1].Addr
	env := scc.Env{
		UopsAt:   prog.Image.At,
		Resident: func(pc uint64) bool { return true },
		ProbeValue: func(key uint64) (int64, int, bool) {
			if key == ldPC<<3 {
				return 8, 14, true // high-confidence invariant: width == 8
			}
			return 0, 0, false
		},
	}

	res := scc.Compact(scc.DefaultConfig(), env, prog.Entry)
	if res.Line == nil {
		fmt.Printf("\ncompaction produced no line (%v)\n", res.Abort)
		return
	}

	fmt.Printf("\ncompacted stream (%d of %d original slots, %d cycles in the unit):\n",
		res.Line.Slots, res.OrigSlots, res.Cycles)
	for i := range res.Line.Uops {
		fmt.Printf("  %2d: %v\n", i, &res.Line.Uops[i])
	}

	fmt.Printf("\ntransformations applied:\n")
	fmt.Printf("  move eliminations:    %d\n", res.ElimMove)
	fmt.Printf("  constant folds:       %d\n", res.ElimFold)
	fmt.Printf("  branches folded:      %d\n", res.ElimBranch)
	fmt.Printf("  operands propagated:  %d\n", res.Propagated)

	meta := res.Line.Meta
	fmt.Printf("\ndata invariants (validated at execution, 4-bit confidence):\n")
	for _, d := range meta.DataInv {
		fmt.Printf("  pc=%#x predicted=%d conf=%d\n", d.PC, d.Value, d.Conf)
	}
	fmt.Printf("live-outs inlined at rename (physical register inlining):\n")
	for _, lo := range meta.LiveOuts {
		fmt.Printf("  %s = %d\n", lo.Reg, lo.Value)
	}
	fmt.Printf("\nfetch resumes at %#x after streaming\n", meta.EndPC)
}
