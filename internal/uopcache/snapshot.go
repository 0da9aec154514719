package uopcache

import (
	"encoding/binary"

	"sccsim/internal/isa"
	"sccsim/internal/snap"
	"sccsim/internal/uop"
)

// uopBytes is the encoded size of one uop.UOp, and minLineBytes that of
// a line with no uops and no Meta: EntryPC, the uop count,
// Slots/Ways/Hot, Locked, lastTouch and the Meta flag. They bound the
// count prefixes DecodeLine and Partition.RestoreSnapshot accept
// (snap.Reader.Count).
var uopBytes = binary.Size(uop.UOp{})

const minLineBytes = 8 + 4 + 3*8 + 1 + 8 + 1

// EncodeLine serializes one cache line, invariant metadata included.
// Exported because the SCC unit snapshots its pending compaction result
// — a line minted but not yet inserted into any partition.
func EncodeLine(w *snap.Writer, l *Line) {
	w.U64(l.EntryPC)
	w.U32(uint32(len(l.Uops)))
	if len(l.Uops) > 0 {
		w.Block(l.Uops)
	}
	w.Int(l.Slots)
	w.Int(l.Ways)
	w.Int(l.Hot)
	w.Bool(l.Locked)
	w.U64(l.lastTouch)
	w.Bool(l.Meta != nil)
	if l.Meta != nil {
		encodeMeta(w, l.Meta)
	}
}

// DecodeLine rebuilds a line written by EncodeLine. Returns nil once
// the reader is poisoned.
func DecodeLine(r *snap.Reader) *Line {
	l := &Line{EntryPC: r.U64()}
	if n := r.Count(uopBytes); n > 0 {
		us := make([]uop.UOp, n)
		r.Block(us)
		l.Uops = us
	}
	l.Slots = r.Int()
	l.Ways = r.Int()
	l.Hot = r.Int()
	l.Locked = r.Bool()
	l.lastTouch = r.U64()
	if r.Bool() {
		l.Meta = decodeMeta(r)
	}
	if r.Err() != nil {
		return nil
	}
	return l
}

func encodeMeta(w *snap.Writer, m *CompactMeta) {
	w.U32(uint32(len(m.DataInv)))
	for i := range m.DataInv {
		d := &m.DataInv[i]
		w.U64(d.Key)
		w.U64(d.PC)
		w.I64(d.Value)
		w.Int(d.Conf)
		w.Int(d.Occ)
		w.Int(d.ConfAtPlant)
		w.U8(d.SrcKind)
	}
	w.U32(uint32(len(m.CtrlInv)))
	for i := range m.CtrlInv {
		c := &m.CtrlInv[i]
		w.U64(c.PC)
		w.Bool(c.Taken)
		w.U64(c.Target)
		w.Int(c.Conf)
		w.Int(c.ConfAtPlant)
	}
	w.U32(uint32(len(m.LiveOuts)))
	for i := range m.LiveOuts {
		w.U8(uint8(m.LiveOuts[i].Reg))
		w.I64(m.LiveOuts[i].Value)
	}
	w.Int(m.OrigSlots)
	w.Int(m.OrigUops)
	w.Int(m.ElimMove)
	w.Int(m.ElimFold)
	w.Int(m.ElimBranch)
	w.Int(m.ElimDead)
	w.Int(m.Propagated)
	w.U64(m.EndPC)
	w.U64(m.Squashes)
	w.U64(m.Streams)
	w.U64(m.JobID)
}

func decodeMeta(r *snap.Reader) *CompactMeta {
	m := &CompactMeta{}
	if n := r.Count(6*8 + 1); n > 0 { // Key, PC, Value, Conf, Occ, ConfAtPlant, SrcKind
		m.DataInv = make([]DataInvariant, n)
		for i := range m.DataInv {
			d := &m.DataInv[i]
			d.Key = r.U64()
			d.PC = r.U64()
			d.Value = r.I64()
			d.Conf = r.Int()
			d.Occ = r.Int()
			d.ConfAtPlant = r.Int()
			d.SrcKind = r.U8()
		}
	}
	if n := r.Count(8 + 1 + 3*8); n > 0 { // PC, Taken, Target, Conf, ConfAtPlant
		m.CtrlInv = make([]CtrlInvariant, n)
		for i := range m.CtrlInv {
			c := &m.CtrlInv[i]
			c.PC = r.U64()
			c.Taken = r.Bool()
			c.Target = r.U64()
			c.Conf = r.Int()
			c.ConfAtPlant = r.Int()
		}
	}
	if n := r.Count(1 + 8); n > 0 { // Reg, Value
		m.LiveOuts = make([]LiveOut, n)
		for i := range m.LiveOuts {
			m.LiveOuts[i].Reg = isa.Reg(r.U8())
			m.LiveOuts[i].Value = r.I64()
		}
	}
	m.OrigSlots = r.Int()
	m.OrigUops = r.Int()
	m.ElimMove = r.Int()
	m.ElimFold = r.Int()
	m.ElimBranch = r.Int()
	m.ElimDead = r.Int()
	m.Propagated = r.Int()
	m.EndPC = r.U64()
	m.Squashes = r.U64()
	m.Streams = r.U64()
	m.JobID = r.U64()
	return m
}

// EncodeSnapshot serializes one partition: clocks, stats, and every
// resident line set by set (sets are ordered slices, so the walk is
// already deterministic). Geometry is written as a header so a restore
// against a differently configured partition fails loudly.
func (p *Partition) EncodeSnapshot(w *snap.Writer) {
	w.U32(uint32(p.NumSets))
	w.U32(uint32(p.Ways))
	w.U64(p.touch)
	w.Int(p.decayAcc)
	w.Block(&p.Stats)
	for _, set := range p.sets {
		w.U32(uint32(len(set)))
		for _, l := range set {
			EncodeLine(w, l)
		}
	}
}

// RestoreSnapshot rebuilds the partition's line sets from the snapshot.
// Lines are written into the sets directly — Insert is never called, so
// restore cannot perturb touch clocks or eviction stats.
func (p *Partition) RestoreSnapshot(r *snap.Reader) {
	if sets, ways := int(r.U32()), int(r.U32()); sets != p.NumSets || ways != p.Ways {
		r.Errorf("uopcache: snapshot partition geometry %dx%d, machine is %dx%d", sets, ways, p.NumSets, p.Ways)
		return
	}
	p.touch = r.U64()
	p.decayAcc = r.Int()
	r.Block(&p.Stats)
	for si := range p.sets {
		n := r.Count(minLineBytes)
		set := make([]*Line, 0, n)
		for i := 0; i < n; i++ {
			l := DecodeLine(r)
			if l == nil {
				return
			}
			set = append(set, l)
		}
		p.sets[si] = set
	}
}

// EncodeSnapshot serializes both partitions (the optimized one only
// when configured).
func (u *UopCache) EncodeSnapshot(w *snap.Writer) {
	u.Unopt.EncodeSnapshot(w)
	w.Bool(u.Opt != nil)
	if u.Opt != nil {
		u.Opt.EncodeSnapshot(w)
	}
}

// RestoreSnapshot restores both partitions onto a freshly built cache
// of the same configuration.
func (u *UopCache) RestoreSnapshot(r *snap.Reader) {
	u.Unopt.RestoreSnapshot(r)
	hasOpt := r.Bool()
	if hasOpt != (u.Opt != nil) {
		r.Errorf("uopcache: snapshot optimized-partition presence %v, machine %v", hasOpt, u.Opt != nil)
		return
	}
	if u.Opt != nil {
		u.Opt.RestoreSnapshot(r)
	}
}
