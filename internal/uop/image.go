package uop

import (
	"sort"

	"sccsim/internal/isa"
)

// Image is a program's decoded micro-op image: every macro-instruction
// cracked once by Decode and found by code address through dense offset
// tables, not a map. The tables cover runs of code whose gaps are short
// (maxImageGap), so an image's size follows the instruction count, not
// the address span of a sparse program.
//
// An image is immutable once built. The emulator, the pipeline and the
// SCC unit of every machine running the program share one, on any
// number of goroutines, so the slices At returns must never be modified:
// a reader that transforms uops copies them first, as the SCC unit does.
type Image struct {
	segs   []imageSeg // ascending by base
	macros [][]UOp    // per instruction, in the order NewImage got them
}

// imageSeg is one run of code: at[pc-base] is 1 + the index into
// Image.macros of the instruction starting at pc, and 0 where none
// starts.
type imageSeg struct {
	base uint64
	at   []int32
}

// maxImageGap is the longest run of addresses without an instruction
// that one segment spans; a longer gap starts a new segment. It covers
// alignment padding (.align 32) and bounds a segment's table at
// maxImageGap plus the longest encoding entries per instruction.
const maxImageGap = 64

// NewImage decodes every instruction once. The instructions may come in
// any order but must not overlap, nor run past the top of the address
// space; asm.Assemble rejects programs that do either.
func NewImage(insts []isa.Inst) *Image {
	im := &Image{macros: make([][]UOp, len(insts))}
	order := make([]int, len(insts))
	for i, in := range insts {
		im.macros[i] = Decode(in)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return insts[order[a]].Addr < insts[order[b]].Addr })

	// Cut the address-sorted instructions into segments, then fill each
	// segment's table.
	first := 0
	for k := 1; k <= len(order); k++ {
		if k < len(order) && insts[order[k]].Addr-insts[order[k-1]].NextAddr() <= maxImageGap {
			continue
		}
		base := insts[order[first]].Addr
		seg := imageSeg{base: base, at: make([]int32, insts[order[k-1]].NextAddr()-base)}
		for _, i := range order[first:k] {
			seg.at[insts[i].Addr-base] = int32(i + 1)
		}
		im.segs = append(im.segs, seg)
		first = k
	}
	return im
}

// At returns the micro-op sequence of the macro-instruction at pc. The
// slice is the image's own storage, shared by every reader: callers
// must not modify it.
func (im *Image) At(pc uint64) ([]UOp, bool) {
	// Binary search for the last segment based at or below pc; a program
	// without far-apart code has one segment and skips the loop.
	segs := im.segs
	lo, hi := 0, len(segs)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].base <= pc {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < len(segs) {
		s := &segs[lo]
		if off := pc - s.base; off < uint64(len(s.at)) {
			if i := s.at[off]; i > 0 {
				return im.macros[i-1], true
			}
		}
	}
	return nil, false
}
