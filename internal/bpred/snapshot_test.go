package bpred

import (
	"reflect"
	"testing"

	"sccsim/internal/snap"
)

// TestSnapshotKeepsEveryTouchedField sets one field of one entry of a
// table, the smallest change a sparse encoder could miss, and requires
// a fresh unit restored from the snapshot to equal the touched one.
func TestSnapshotKeepsEveryTouchedField(t *testing.T) {
	for name, touch := range map[string]func(u *Unit){
		"tage base":     func(u *Unit) { u.Dir.base[5] = -1 },
		"tage tag":      func(u *Unit) { u.Dir.tables[2].tags[7] = 3 },
		"tage ctr":      func(u *Unit) { u.Dir.tables[2].ctr[7] = -2 },
		"tage useful":   func(u *Unit) { u.Dir.tables[3].useful[1023] = 1 },
		"btb tag":       func(u *Unit) { u.Btb.tags[11] = 0x40 },
		"btb target":    func(u *Unit) { u.Btb.targets[0] = 0x80 },
		"ittage tag":    func(u *Unit) { u.Itt.tables[1][4].tag = 1 },
		"ittage target": func(u *Unit) { u.Itt.tables[1][4].target = 0x100 },
		"ittage conf":   func(u *Unit) { u.Itt.tables[2][4].conf = -1 },
		"ittage useful": func(u *Unit) { u.Itt.tables[0][511].useful = 1 },
	} {
		want := NewUnit()
		touch(want)
		w := snap.NewWriter()
		want.EncodeSnapshot(w)
		r, err := snap.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		got := NewUnit()
		got.RestoreSnapshot(r)
		if r.Err() != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored unit differs from the snapshotted one (err %v)", name, r.Err())
		}
	}
}
