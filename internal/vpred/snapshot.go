package vpred

import "sccsim/internal/snap"

// EncodeSnapshot serializes a predictor's full table state. The
// predictor kind is written first so a restore against a machine
// configured with a different predictor fails loudly. Each table is a
// sparse table of its non-zero entries in index order.
func EncodeSnapshot(w *snap.Writer, p Predictor) {
	w.String(p.Name())
	switch v := p.(type) {
	case *LastValue:
		t := w.Sparse(len(v.entries))
		for i, e := range v.entries {
			if e != (lastValueEntry{}) {
				t.Entry(i)
				w.U64(e.key)
				w.I64(e.last)
				w.I8(e.conf)
			}
		}
		t.End()
	case *EVES:
		t := w.Sparse(len(v.stride))
		for i, e := range v.stride {
			if e != (strideEntry{}) {
				t.Entry(i)
				w.U64(e.key)
				w.I64(e.last)
				w.I64(e.stride)
				w.I8(e.conf)
				w.U8(e.seen)
			}
		}
		t.End()
		t = w.Sparse(len(v.ctx))
		for i, e := range v.ctx {
			if e != (vtageEntry{}) {
				t.Entry(i)
				w.U16(e.tag)
				w.I64(e.value)
				w.I8(e.conf)
			}
		}
		t.End()
		t = w.Sparse(len(v.hist))
		for i, h := range v.hist {
			if h != 0 {
				t.Entry(i)
				w.U64(h)
			}
		}
		t.End()
		w.U64(v.rng)
	case *H3VP:
		t := w.Sparse(len(v.entries))
		for i, e := range v.entries {
			if e != (h3vpEntry{}) {
				t.Entry(i)
				w.U64(e.key)
				w.I64(e.vals[0])
				w.I64(e.vals[1])
				w.I64(e.vals[2])
				w.I8(e.pos)
				w.I8(e.filled)
				w.I8(e.perConf[0])
				w.I8(e.perConf[1])
				w.I8(e.perConf[2])
			}
		}
		t.End()
	default:
		panic("vpred: unencodable predictor " + p.Name())
	}
}

// RestoreSnapshot fills a freshly built predictor of the same kind and
// geometry from the snapshot. A kind or table-size mismatch poisons the
// reader.
func RestoreSnapshot(r *snap.Reader, p Predictor) {
	if kind := r.String(); kind != p.Name() {
		r.Errorf("vpred: snapshot is for predictor %q, machine uses %q", kind, p.Name())
		return
	}
	switch v := p.(type) {
	case *LastValue:
		t := r.Sparse(len(v.entries), 8+8+1) // key, last, conf
		for t.Next() {
			e := &v.entries[t.Index()]
			e.key = r.U64()
			e.last = r.I64()
			e.conf = r.I8()
		}
	case *EVES:
		t := r.Sparse(len(v.stride), 8+8+8+1+1) // key, last, stride, conf, seen
		for t.Next() {
			e := &v.stride[t.Index()]
			e.key = r.U64()
			e.last = r.I64()
			e.stride = r.I64()
			e.conf = r.I8()
			e.seen = r.U8()
		}
		t = r.Sparse(len(v.ctx), 2+8+1) // tag, value, conf
		for t.Next() {
			e := &v.ctx[t.Index()]
			e.tag = r.U16()
			e.value = r.I64()
			e.conf = r.I8()
		}
		t = r.Sparse(len(v.hist), 8)
		for t.Next() {
			v.hist[t.Index()] = r.U64()
		}
		v.rng = r.U64()
	case *H3VP:
		t := r.Sparse(len(v.entries), 8+3*8+2+3) // key, vals, pos, filled, perConf
		for t.Next() {
			e := &v.entries[t.Index()]
			e.key = r.U64()
			e.vals[0] = r.I64()
			e.vals[1] = r.I64()
			e.vals[2] = r.I64()
			e.pos = r.I8()
			e.filled = r.I8()
			e.perConf[0] = r.I8()
			e.perConf[1] = r.I8()
			e.perConf[2] = r.I8()
		}
	default:
		r.Errorf("vpred: undecodable predictor %q", p.Name())
	}
}
