package uop

import (
	"reflect"
	"testing"

	"sccsim/internal/isa"
)

// layout places ops back to back from base, as the assembler does.
func layout(base uint64, ops ...isa.Op) []isa.Inst {
	var out []isa.Inst
	for _, op := range ops {
		in := isa.Inst{Op: op, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Addr: base, Len: op.EncLen(), Target: 0x1000}
		out = append(out, in)
		base = in.NextAddr()
	}
	return out
}

func TestImageAtMatchesDecode(t *testing.T) {
	insts := layout(0x1000, isa.OpMovi, isa.OpAddm, isa.OpCmpi, isa.OpBne, isa.OpCall, isa.OpRepmov, isa.OpHalt)
	// A second run after alignment padding, and a far one past a gap no
	// table spans; listed out of address order.
	insts = append(layout(0x7fff00000000, isa.OpNop, isa.OpHalt), insts...)
	insts = append(insts, layout(0x1040, isa.OpAdd, isa.OpRet)...)
	im := NewImage(insts)
	if len(im.segs) != 2 {
		t.Errorf("image has %d segments, want 2 (one for the code near 0x1000, one far)", len(im.segs))
	}
	for _, in := range insts {
		us, ok := im.At(in.Addr)
		if !ok {
			t.Fatalf("At(%#x) missed", in.Addr)
		}
		if want := Decode(in); !reflect.DeepEqual(us, want) {
			t.Errorf("At(%#x) = %v, want %v", in.Addr, us, want)
		}
		for b := in.Addr + 1; b < in.NextAddr(); b++ {
			if _, ok := im.At(b); ok {
				t.Errorf("At(%#x) hit inside the instruction at %#x", b, in.Addr)
			}
		}
	}
	for _, pc := range []uint64{0, 0xfff, 0x1030, 0x103f, 0x1046, 0x7ffeffffffff, 0x7fff00000002, ^uint64(0)} {
		if _, ok := im.At(pc); ok {
			t.Errorf("At(%#x) hit where no instruction starts", pc)
		}
	}
}

func TestImageSizeFollowsInstructionCount(t *testing.T) {
	// Two instructions 2^47 bytes apart: a table over the span would
	// need terabytes.
	insts := append(layout(0x1000, isa.OpJmp), layout(0x7fff00000000, isa.OpHalt)...)
	im := NewImage(insts)
	entries := 0
	for _, s := range im.segs {
		entries += len(s.at)
	}
	if entries > 8 {
		t.Errorf("image tables hold %d entries for %d instructions", entries, len(insts))
	}
}

func TestEmptyImage(t *testing.T) {
	if _, ok := NewImage(nil).At(0x1000); ok {
		t.Error("empty image hit")
	}
}
