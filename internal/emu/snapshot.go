package emu

import (
	"fmt"
	"sort"

	"sccsim/internal/snap"
)

// EncodeSnapshot serializes the emulator's complete architectural state
// — registers, PC, memory image, uop/macro counters, and the intra-
// macro position — into w. Memory pages are written in ascending page
// order so identical states encode to identical bytes. The machine must
// not be inside an undo window (BeginUndo without CommitUndo/Rollback):
// an undo log references a past state that a restore could not rebuild.
func (m *Machine) EncodeSnapshot(w *snap.Writer) error {
	if m.undoActive {
		return fmt.Errorf("emu: cannot snapshot inside an undo window")
	}
	w.Block(&m.St)
	w.U64(m.UopCount)
	w.U64(m.MacroCount)
	w.Int(m.curSeq)

	pns := make([]uint64, 0, len(m.Mem.pages))
	// order-independent: collects the page numbers, sorted below
	for pn := range m.Mem.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.U32(uint32(len(pns)))
	for _, pn := range pns {
		w.U64(pn)
		w.Raw(m.Mem.pages[pn][:])
	}
	return nil
}

// RestoreSnapshot rebuilds the emulator state written by EncodeSnapshot
// onto a freshly constructed machine for the same program. The memory
// image is replaced wholesale (the snapshot includes every mapped page,
// initial data segments included), and a mid-macro position is restored
// by looking the current macro up in the program image — the same
// re-attachment Rollback performs, since the uops are the image's shared
// storage and are never serialized.
func (m *Machine) RestoreSnapshot(r *snap.Reader) error {
	r.Block(&m.St)
	m.UopCount = r.U64()
	m.MacroCount = r.U64()
	seq := r.Int()

	n := r.Count(8 + pageSize) // page number + page bytes
	pages := make(map[uint64]*[pageSize]byte, n)
	for i := 0; i < n; i++ {
		pn := r.U64()
		raw := r.Raw(pageSize)
		if raw == nil {
			break
		}
		p := new([pageSize]byte)
		copy(p[:], raw)
		pages[pn] = p
	}
	if err := r.Err(); err != nil {
		return err
	}
	m.Mem.pages = pages

	m.curUops, m.curSeq = nil, 0
	if seq != 0 {
		us, ok := m.Prog.Image.At(m.St.PC)
		if !ok {
			return fmt.Errorf("emu: snapshot mid-macro at pc %#x but no macro decodes there", m.St.PC)
		}
		if seq < 0 || seq >= len(us) {
			return fmt.Errorf("emu: snapshot seq %d out of range for macro at pc %#x (%d uops)", seq, m.St.PC, len(us))
		}
		m.curUops, m.curSeq = us, seq
	}
	m.undoActive = false
	m.undoMem = m.undoMem[:0]
	return nil
}
