package bpred

import (
	"sort"

	"sccsim/internal/snap"
)

// EncodeSnapshot serializes the full branch prediction front-end:
// TAGE (bimodal + tagged tables + global history), BTB, RAS, LSD and
// ITTAGE. Map-backed structures (the LSD entries, the ITTAGE base
// table) are written in ascending-PC order so identical predictor
// states encode to identical bytes.
func (u *Unit) EncodeSnapshot(w *snap.Writer) {
	u.Dir.encodeSnapshot(w)
	u.Btb.encodeSnapshot(w)
	u.Ras.encodeSnapshot(w)
	u.Lsd.encodeSnapshot(w)
	u.Itt.encodeSnapshot(w)
}

// RestoreSnapshot fills a freshly built (NewUnit-sized) unit from the
// snapshot. Table geometries are length-checked by the slice decoders;
// a mismatch poisons the reader.
func (u *Unit) RestoreSnapshot(r *snap.Reader) {
	u.Dir.restoreSnapshot(r)
	u.Btb.restoreSnapshot(r)
	u.Ras.restoreSnapshot(r)
	u.Lsd.restoreSnapshot(r)
	u.Itt.restoreSnapshot(r)
}

func (t *TAGE) encodeSnapshot(w *snap.Writer) {
	w.I8s(t.base)
	w.U32(uint32(len(t.tables)))
	for i := range t.tables {
		tt := &t.tables[i]
		w.U16s(tt.tags)
		w.I8s(tt.ctr)
		w.U8s(tt.useful)
	}
	w.U64(t.ghist)
	w.U64(t.Lookups)
	w.U64(t.Mispreds)
	w.U8(t.allocTick)
}

func (t *TAGE) restoreSnapshot(r *snap.Reader) {
	r.I8sInto(t.base)
	r.Len(len(t.tables))
	for i := range t.tables {
		tt := &t.tables[i]
		r.U16sInto(tt.tags)
		r.I8sInto(tt.ctr)
		r.U8sInto(tt.useful)
	}
	t.ghist = r.U64()
	t.Lookups = r.U64()
	t.Mispreds = r.U64()
	t.allocTick = r.U8()
}

func (b *BTB) encodeSnapshot(w *snap.Writer) {
	w.U64s(b.tags)
	w.U64s(b.targets)
	w.U64(b.Hits)
	w.U64(b.Misses)
}

func (b *BTB) restoreSnapshot(r *snap.Reader) {
	r.U64sInto(b.tags)
	r.U64sInto(b.targets)
	b.Hits = r.U64()
	b.Misses = r.U64()
}

func (s *RAS) encodeSnapshot(w *snap.Writer) {
	w.U64s(s.stack)
	w.Int(s.top)
}

func (s *RAS) restoreSnapshot(r *snap.Reader) {
	r.U64sInto(s.stack)
	s.top = r.Int()
}

func (l *LSD) encodeSnapshot(w *snap.Writer) {
	pcs := make([]uint64, 0, len(l.entries))
	for pc := range l.entries {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.U32(uint32(len(pcs)))
	for _, pc := range pcs {
		e := l.entries[pc]
		w.U64(pc)
		w.U32(e.streak)
		w.U32(e.lastTrip)
		w.U8(e.stable)
		w.U64(e.totalSeen)
	}
}

func (l *LSD) restoreSnapshot(r *snap.Reader) {
	n := r.Count(8 + 4 + 4 + 1 + 8) // pc, streak, lastTrip, stable, totalSeen
	l.entries = make(map[uint64]*lsdEntry, n)
	for i := 0; i < n; i++ {
		pc := r.U64()
		e := &lsdEntry{streak: r.U32(), lastTrip: r.U32(), stable: r.U8(), totalSeen: r.U64()}
		if r.Err() != nil {
			return
		}
		l.entries[pc] = e
	}
}

func (it *ITTAGE) encodeSnapshot(w *snap.Writer) {
	pcs := make([]uint64, 0, len(it.base))
	for pc := range it.base {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.U32(uint32(len(pcs)))
	for _, pc := range pcs {
		w.U64(pc)
		w.U64(it.base[pc])
	}
	w.U32(uint32(len(it.tables)))
	for _, tbl := range it.tables {
		w.U32(uint32(len(tbl)))
		for i := range tbl {
			e := &tbl[i]
			w.U16(e.tag)
			w.U64(e.target)
			w.I8(e.conf)
			w.U8(e.useful)
		}
	}
	w.U64(it.ghist)
	w.U8(it.tick)
	w.U64(it.Lookups)
	w.U64(it.Mispred)
}

func (it *ITTAGE) restoreSnapshot(r *snap.Reader) {
	n := r.Count(2 * 8) // pc, target
	it.base = make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		pc := r.U64()
		it.base[pc] = r.U64()
	}
	r.Len(len(it.tables))
	for _, tbl := range it.tables {
		r.Len(len(tbl))
		for i := range tbl {
			e := &tbl[i]
			e.tag = r.U16()
			e.target = r.U64()
			e.conf = r.I8()
			e.useful = r.U8()
		}
	}
	it.ghist = r.U64()
	it.tick = r.U8()
	it.Lookups = r.U64()
	it.Mispred = r.U64()
}
