package vpred

import (
	"reflect"
	"testing"

	"sccsim/internal/snap"
)

// TestSnapshotKeepsEveryTouchedField sets one field of one entry of a
// table, the smallest change a sparse encoder could miss, and requires
// a fresh predictor restored from the snapshot to equal the touched
// one.
func TestSnapshotKeepsEveryTouchedField(t *testing.T) {
	lv := func(f func(*LastValue)) Predictor { p := NewLastValue(); f(p); return p }
	ev := func(f func(*EVES)) Predictor { p := NewEVES(); f(p); return p }
	h3 := func(f func(*H3VP)) Predictor { p := NewH3VP(); f(p); return p }
	for name, want := range map[string]Predictor{
		"lastvalue key":    lv(func(p *LastValue) { p.entries[3].key = 9 }),
		"lastvalue last":   lv(func(p *LastValue) { p.entries[3].last = -9 }),
		"lastvalue conf":   lv(func(p *LastValue) { p.entries[4095].conf = 1 }),
		"eves stride key":  ev(func(p *EVES) { p.stride[0].key = 9 }),
		"eves last":        ev(func(p *EVES) { p.stride[1].last = -9 }),
		"eves stride":      ev(func(p *EVES) { p.stride[1].stride = 4 }),
		"eves stride conf": ev(func(p *EVES) { p.stride[2].conf = 1 }),
		"eves seen":        ev(func(p *EVES) { p.stride[2].seen = 1 }),
		"eves ctx tag":     ev(func(p *EVES) { p.ctx[5].tag = 9 }),
		"eves ctx value":   ev(func(p *EVES) { p.ctx[5].value = -9 }),
		"eves ctx conf":    ev(func(p *EVES) { p.ctx[8191].conf = 1 }),
		"eves hist":        ev(func(p *EVES) { p.hist[1023] = 9 }),
		"h3vp key":         h3(func(p *H3VP) { p.entries[7].key = 9 }),
		"h3vp vals":        h3(func(p *H3VP) { p.entries[7].vals[2] = -9 }),
		"h3vp pos":         h3(func(p *H3VP) { p.entries[7].pos = 2 }),
		"h3vp filled":      h3(func(p *H3VP) { p.entries[7].filled = 1 }),
		"h3vp perConf":     h3(func(p *H3VP) { p.entries[7].perConf[1] = 1 }),
	} {
		w := snap.NewWriter()
		EncodeSnapshot(w, want)
		r, err := snap.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		got := New(want.Name())
		RestoreSnapshot(r, got)
		if r.Err() != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored predictor differs from the snapshotted one (err %v)", name, r.Err())
		}
	}
}
