package asm_test

import (
	"errors"
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/workloads"
)

// FuzzAssemble feeds the assembler arbitrary source. It must never
// panic, every error must be an *asm.Error, and every program that
// assembles must carry an image that finds each instruction's micro-ops
// at its address and nothing inside it.
func FuzzAssemble(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	// Overlapping words, an .org back over code, and code 2^47 bytes
	// from the rest of the program.
	f.Add(".data 0x100000\n.word 0x1111111111111111\n.data 0x100004\n.word 0x2222222222222222\n.text\nhalt")
	f.Add("movi r1, 1\nmovi r2, 2\n.org 0x1000\nhalt")
	f.Add("\tmovi r1, 7\n\tjmp far\n\t.org 0x7fff00000000\nfar:\n\thalt")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			var ae *asm.Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not an *asm.Error: %v", err, err)
			}
			return
		}
		for _, in := range p.Insts {
			us, ok := p.Image.At(in.Addr)
			if !ok || len(us) == 0 || us[0].MacroPC != in.Addr {
				t.Fatalf("image has no uops for the instruction at %#x", in.Addr)
			}
			for b := in.Addr + 1; b < in.NextAddr(); b++ {
				if _, ok := p.Image.At(b); ok {
					t.Fatalf("image finds an instruction at %#x, inside the one at %#x", b, in.Addr)
				}
			}
		}
	})
}
