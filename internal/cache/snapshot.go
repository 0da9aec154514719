package cache

import "sccsim/internal/snap"

// EncodeSnapshot serializes one cache level: recency clock, replacement
// RNG, stats, and every line that differs from an empty one, as a
// sparse table indexed set*ways+way. Geometry (sets × ways) is written
// as a header so a restore against a differently sized level fails
// loudly instead of silently misaligning.
func (c *Cache) EncodeSnapshot(w *snap.Writer) {
	w.U32(uint32(c.cfg.Sets))
	w.U32(uint32(c.cfg.Ways))
	w.U32(c.tick)
	w.U64(c.rng)
	w.Block(&c.Stats)
	t := w.Sparse(c.cfg.Sets * c.cfg.Ways)
	for i, set := range c.sets {
		for j, ln := range set {
			if ln != (line{}) {
				t.Entry(i*c.cfg.Ways + j)
				w.U64(ln.tag)
				w.Bool(ln.valid)
				w.U32(ln.lru)
			}
		}
	}
	t.End()
}

// RestoreSnapshot fills a freshly built level of the same configuration
// from the snapshot. Only the groups of sets the snapshot lists a line
// in are allocated, so a restore never allocates more than the
// configured geometry, whatever the input.
func (c *Cache) RestoreSnapshot(r *snap.Reader) {
	if sets, ways := int(r.U32()), int(r.U32()); sets != c.cfg.Sets || ways != c.cfg.Ways {
		r.Errorf("cache: snapshot geometry %dx%d, level %q is %dx%d", sets, ways, c.cfg.Name, c.cfg.Sets, c.cfg.Ways)
		return
	}
	c.tick = r.U32()
	c.rng = r.U64()
	r.Block(&c.Stats)
	t := r.Sparse(c.cfg.Sets*c.cfg.Ways, 8+1+4) // tag, valid, lru
	for t.Next() {
		i, j := t.Index()/c.cfg.Ways, t.Index()%c.cfg.Ways
		set := c.sets[i]
		if len(set) == 0 {
			set = c.group(i)
		}
		set[j] = line{tag: r.U64(), valid: r.Bool(), lru: r.U32()}
	}
}

// EncodeSnapshot serializes the full hierarchy: all four levels plus
// the DRAM/prefetch counters.
func (h *Hierarchy) EncodeSnapshot(w *snap.Writer) {
	h.L1I.EncodeSnapshot(w)
	h.L1D.EncodeSnapshot(w)
	h.L2.EncodeSnapshot(w)
	h.L3.EncodeSnapshot(w)
	w.U64(h.DRAMAccesses)
	w.U64(h.Prefetches)
}

// RestoreSnapshot restores the full hierarchy onto a freshly built one
// of the same configuration.
func (h *Hierarchy) RestoreSnapshot(r *snap.Reader) {
	h.L1I.RestoreSnapshot(r)
	h.L1D.RestoreSnapshot(r)
	h.L2.RestoreSnapshot(r)
	h.L3.RestoreSnapshot(r)
	h.DRAMAccesses = r.U64()
	h.Prefetches = r.U64()
}
