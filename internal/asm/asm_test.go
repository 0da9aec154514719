package asm

import (
	"errors"
	"strings"
	"testing"

	"sccsim/internal/isa"
)

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble(`
		; simple counting loop
		.entry main
	main:
		movi r1, 0
		movi r2, 10
	loop:
		addi r1, r1, 1
		cmp  r1, r2
		bne  loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != CodeBase {
		t.Errorf("entry = %#x, want %#x", p.Entry, CodeBase)
	}
	if len(p.Insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(p.Insts))
	}
	// Addresses must be contiguous per encoding lengths.
	want := CodeBase
	for i, in := range p.Insts {
		if in.Addr != want {
			t.Errorf("inst %d addr = %#x, want %#x", i, in.Addr, want)
		}
		want += uint64(in.Len)
	}
	// The bne must target the loop label (after the two movi's).
	loopAddr := p.Labels["loop"]
	bne := p.Insts[4]
	if bne.Op != isa.OpBne || bne.Target != loopAddr {
		t.Errorf("bne = %v, want target %#x", bne, loopAddr)
	}
}

func TestAssembleAllOperandForms(t *testing.T) {
	p, err := Assemble(`
		movi r1, 0x10
		mov  r2, r1
		add  r3, r1, r2
		addi r4, r3, -5
		cmp  r3, r4
		cmpi r3, 100
		test r1, r2
		ld   r5, [r1+8]
		ld   r6, [r1]
		st   [r1+16], r5
		addm r5, [r1+24]
		mul  r7, r5, r6
		jr   r7
		fmov f1, f2
		fadd f3, f1, f2
		fld  f4, [r1+32]
		fst  [r1-8], f4
		cvtif f5, r1
		cvtfi r8, f5
		repmov
		nop
		ret
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) isa.Inst { return p.Insts[i] }
	if in := get(0); in.Imm != 16 {
		t.Errorf("movi imm = %d", in.Imm)
	}
	if in := get(3); in.Imm != -5 {
		t.Errorf("addi imm = %d", in.Imm)
	}
	if in := get(8); in.Rs1 != isa.R1 || in.Imm != 0 {
		t.Errorf("ld no-disp = %+v", in)
	}
	if in := get(9); in.Rs1 != isa.R1 || in.Imm != 16 || in.Rs2 != isa.R5 {
		t.Errorf("st = %+v", in)
	}
	if in := get(16); in.Rs2 != isa.F4 || in.Imm != -8 {
		t.Errorf("fst = %+v", in)
	}
	if in := get(17); in.Rd != isa.F5 || in.Rs1 != isa.R1 {
		t.Errorf("cvtif = %+v", in)
	}
}

func TestAssembleData(t *testing.T) {
	p, err := Assemble(`
		.data 0x100000
	tab:
		.word 1, 2, 3
		.space 16
	val:
		.word 0xdeadbeef
		.text
	main:
		movi r1, tab
		ld r2, [r1+0]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["tab"] != 0x100000 {
		t.Errorf("tab = %#x", p.Labels["tab"])
	}
	if p.Labels["val"] != 0x100000+24+16 {
		t.Errorf("val = %#x", p.Labels["val"])
	}
	// tab words emitted little-endian.
	w := p.Data[0x100008]
	if w == nil || w[0] != 2 {
		t.Errorf("data word 1 = %v", w)
	}
	// movi resolves the data label.
	if p.Insts[0].Imm != 0x100000 {
		t.Errorf("movi imm = %#x", p.Insts[0].Imm)
	}
}

func TestAssembleAlignAndOrg(t *testing.T) {
	p, err := Assemble(`
		.org 0x2000
		nop
		.align 32
	aligned:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Addr != 0x2000 {
		t.Errorf("first inst at %#x", p.Insts[0].Addr)
	}
	if p.Labels["aligned"] != 0x2020 {
		t.Errorf("aligned label = %#x", p.Labels["aligned"])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"bogus r1, r2", "unknown mnemonic"},
		{"add r1, r2", "expects 3 operands"},
		{"movi r99, 1", "bad register"},
		{"jmp nowhere", "undefined label"},
		{"ld r1, r2", "bad memory operand"},
		{"x: nop\nx: nop", "duplicate label"},
		{".data\nadd r1, r2, r3", "inside .data"},
		{".word 5", "outside .data"},
		{".entry missing\nnop", "undefined .entry"},
		{".align 3\nnop", "bad .align"},
		// Overlapping words would make the initial memory depend on the
		// order the data map is loaded in.
		{".data 0x100000\n.word 0x1111111111111111\n.data 0x100004\n.word 0x2222222222222222",
			"line 4: .word at 0x100004 overlaps the word at 0x100000"},
		// An .org back over code would leave two instructions at one address.
		{"movi r1, 1\nmovi r2, 2\n.org 0x1000\nhalt", "line 4: instruction at 0x1000 overlaps the instruction at 0x1000"},
		{"movi r1, 1\n.org 0x1004\nhalt", "line 3: instruction at 0x1004 overlaps the instruction at 0x1000"},
		{".org 0x2004\nhalt\n.org 0x2000\nmovi r1, 1", "line 4: instruction at 0x2000 overlaps the instruction at 0x2004"},
		{".org 0xfffffffffffffffe\nmovi r1, 1", "runs past the end of the address space"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Assemble(%q) error = %v, want containing %q", c.src, err, c.frag)
		}
		var ae *Error
		if !errors.As(err, &ae) {
			t.Errorf("Assemble(%q) error %T is not an *Error", c.src, err)
		}
	}
}

func TestAdjacentEmissionAssembles(t *testing.T) {
	p, err := Assemble(".data 0x100000\n.word 1\n.data 0x100008\n.word 2\n.text\n.org 0x1000\nmovi r1, 1\n.org 0x1006\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 2 || len(p.Data) != 2 {
		t.Errorf("got %d instructions and %d words, want 2 and 2", len(p.Insts), len(p.Data))
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble("start: movi r1, 1\njmp start\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[1].Target != p.Labels["start"] {
		t.Errorf("jmp target = %#x", p.Insts[1].Target)
	}
}

func TestForwardReferences(t *testing.T) {
	p, err := Assemble(`
		beq fwd
		nop
	fwd:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Target != p.Labels["fwd"] {
		t.Errorf("forward branch target = %#x, want %#x", p.Insts[0].Target, p.Labels["fwd"])
	}
}

func TestInstAt(t *testing.T) {
	p := MustAssemble("movi r1, 5\nhalt")
	in, ok := p.InstAt(CodeBase)
	if !ok || in.Op != isa.OpMovi {
		t.Fatalf("InstAt(CodeBase) = %v, %v", in, ok)
	}
	if _, ok := p.InstAt(CodeBase + 1); ok {
		t.Error("InstAt mid-instruction should miss")
	}
	if end := p.CodeEnd(); end != in.NextAddr()+1 {
		t.Errorf("CodeEnd = %#x", end)
	}
}

func TestSpAndLrAliases(t *testing.T) {
	p := MustAssemble("mov sp, lr\nhalt")
	if p.Insts[0].Rd != isa.SP || p.Insts[0].Rs1 != isa.LR {
		t.Errorf("aliases: %+v", p.Insts[0])
	}
}

func TestCommentStyles(t *testing.T) {
	p, err := Assemble("nop ; trailing\nnop // c-style\n; whole line\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 3 {
		t.Errorf("got %d insts, want 3", len(p.Insts))
	}
}
