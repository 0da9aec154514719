package scc

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"sccsim/internal/snap"
)

// TestRestoreSnapshotRejectsCraftedQueueLength feeds Unit.RestoreSnapshot
// a validly framed snapshot whose queue-length prefix claims far more
// entries than the payload holds. The integrity digest is not a MAC, so
// such a file can sit in a snapshot directory: restore must fail with a
// typed error and must not size any allocation from the prefix.
func TestRestoreSnapshotRejectsCraftedQueueLength(t *testing.T) {
	const pad = 1 << 20
	for _, tc := range []struct {
		n   uint32 // queue length prefix
		pad int    // zero bytes after the one entry actually present
	}{
		{1 << 24, 0},
		{math.MaxUint32, 0},
		// One payload byte per claimed entry: a bound in bytes rather
		// than in 8-byte entries would size a 1M-entry queue and set.
		{8 + pad, pad},
	} {
		w := snap.NewWriter()
		w.Block(&UnitStats{})
		w.U32(tc.n)   // queue length
		w.U64(0x1000) // the one entry actually present
		w.Raw(make([]byte, tc.pad))
		data := w.Finish()

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := snap.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		u := NewUnit(DefaultConfig(), Env{})
		u.RestoreSnapshot(r)
		runtime.ReadMemStats(&after)

		if !errors.Is(r.Err(), snap.ErrMalformed) {
			t.Errorf("queue length %d: err = %v, want snap.ErrMalformed", tc.n, r.Err())
		}
		if u.QueueLen() != 0 {
			t.Errorf("queue length %d: restored %d queue entries", tc.n, u.QueueLen())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("queue length %d: restore allocated %d bytes from a %d-byte snapshot", tc.n, got, len(data))
		}
	}
}
