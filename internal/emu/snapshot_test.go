package emu

import (
	"errors"
	"runtime"
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/snap"
)

// TestRestoreSnapshotRejectsCraftedPageCount feeds RestoreSnapshot a
// validly framed snapshot whose page-count prefix equals the payload
// bytes left: one byte per claimed page instead of a page number plus
// 4 KiB. Restore must fail with a typed error before it sizes the page
// map from the prefix, and leave the machine's memory alone.
func TestRestoreSnapshotRejectsCraftedPageCount(t *testing.T) {
	const pad = 1 << 20
	p, err := asm.Assemble("halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Mem.Write64(0x1000, 42)
	w := snap.NewWriter()
	w.Block(&m.St)
	w.U64(0)   // UopCount
	w.U64(0)   // MacroCount
	w.Int(0)   // mid-macro position
	w.U32(pad) // page count
	w.Raw(make([]byte, pad))
	data := w.Finish()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	err = m.RestoreSnapshot(r)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, snap.ErrMalformed) {
		t.Errorf("err = %v, want snap.ErrMalformed", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("restore allocated %d bytes from a %d-byte snapshot", got, len(data))
	}
	if got := m.Mem.Read64(0x1000); got != 42 {
		t.Errorf("failed restore replaced memory: read %d, want 42", got)
	}
}
