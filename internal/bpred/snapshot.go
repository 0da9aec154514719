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
// snapshot. Table geometries are length-checked by the sparse table
// decoder; a mismatch poisons the reader.
func (u *Unit) RestoreSnapshot(r *snap.Reader) {
	u.Dir.restoreSnapshot(r)
	u.Btb.restoreSnapshot(r)
	u.Ras.restoreSnapshot(r)
	u.Lsd.restoreSnapshot(r)
	u.Itt.restoreSnapshot(r)
}

func (t *TAGE) encodeSnapshot(w *snap.Writer) {
	base := w.Sparse(len(t.base))
	for i, v := range t.base {
		if v != 0 {
			base.Entry(i)
			w.I8(v)
		}
	}
	base.End()
	w.U32(uint32(len(t.tables)))
	for i := range t.tables {
		tt := &t.tables[i]
		tbl := w.Sparse(len(tt.tags))
		for j := range tt.tags {
			if tt.tags[j] != 0 || tt.ctr[j] != 0 || tt.useful[j] != 0 {
				tbl.Entry(j)
				w.U16(tt.tags[j])
				w.I8(tt.ctr[j])
				w.U8(tt.useful[j])
			}
		}
		tbl.End()
	}
	w.U64(t.ghist)
	w.U64(t.Lookups)
	w.U64(t.Mispreds)
	w.U8(t.allocTick)
}

func (t *TAGE) restoreSnapshot(r *snap.Reader) {
	base := r.Sparse(len(t.base), 1)
	for base.Next() {
		t.base[base.Index()] = r.I8()
	}
	r.Len(len(t.tables))
	for i := range t.tables {
		tt := &t.tables[i]
		tbl := r.Sparse(len(tt.tags), 2+1+1) // tag, ctr, useful
		for tbl.Next() {
			j := tbl.Index()
			tt.tags[j] = r.U16()
			tt.ctr[j] = r.I8()
			tt.useful[j] = r.U8()
		}
	}
	t.ghist = r.U64()
	t.Lookups = r.U64()
	t.Mispreds = r.U64()
	t.allocTick = r.U8()
}

func (b *BTB) encodeSnapshot(w *snap.Writer) {
	tbl := w.Sparse(len(b.tags))
	for i := range b.tags {
		if b.tags[i] != 0 || b.targets[i] != 0 {
			tbl.Entry(i)
			w.U64(b.tags[i])
			w.U64(b.targets[i])
		}
	}
	tbl.End()
	w.U64(b.Hits)
	w.U64(b.Misses)
}

func (b *BTB) restoreSnapshot(r *snap.Reader) {
	tbl := r.Sparse(len(b.tags), 2*8) // tag, target
	for tbl.Next() {
		i := tbl.Index()
		b.tags[i] = r.U64()
		b.targets[i] = r.U64()
	}
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
		t := w.Sparse(len(tbl))
		for i, e := range tbl {
			if e != (ittEntry{}) {
				t.Entry(i)
				w.U16(e.tag)
				w.U64(e.target)
				w.I8(e.conf)
				w.U8(e.useful)
			}
		}
		t.End()
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
		t := r.Sparse(len(tbl), 2+8+1+1) // tag, target, conf, useful
		for t.Next() {
			e := &tbl[t.Index()]
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
