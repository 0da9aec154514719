package uopcache

import (
	"errors"
	"runtime"
	"testing"

	"sccsim/internal/snap"
)

// TestDecodeLineRejectsCraftedUopCount feeds DecodeLine a uop-count
// prefix equal to the payload bytes left: one byte per claimed uop
// instead of an encoded uop.UOp. Decoding must fail with a typed error
// before it sizes the uop slice from the prefix.
func TestDecodeLineRejectsCraftedUopCount(t *testing.T) {
	const pad = 1 << 20
	w := snap.NewWriter()
	w.U64(0x1000) // EntryPC
	w.U32(pad)    // uop count
	w.Raw(make([]byte, pad))
	data := w.Finish()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	l := DecodeLine(r)
	runtime.ReadMemStats(&after)

	if l != nil {
		t.Errorf("decoded a %d-uop line from a crafted count", len(l.Uops))
	}
	if !errors.Is(r.Err(), snap.ErrMalformed) {
		t.Errorf("err = %v, want snap.ErrMalformed", r.Err())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("decode allocated %d bytes from a %d-byte snapshot", got, len(data))
	}
}
