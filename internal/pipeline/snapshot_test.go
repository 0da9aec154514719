package pipeline

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sccsim/internal/scc"
	"sccsim/internal/snap"
	"sccsim/internal/workloads"
)

// TestSnapshotRoundTripAndContinue is the machine-checkpoint contract:
// a machine snapshotted at an interval boundary and restored into a
// fresh machine continues byte-identically to the original — same
// stats, same architectural state, and (the strongest form) the same
// snapshot bytes at the next boundary, which covers every serialized
// field at once. A just-restored machine snapshots to its input bytes.
// It runs every value predictor's tables, with and without the
// next-line prefetcher, on a kernel that touches few cache lines
// (xalancbmk) and one that fills thousands (mcf).
func TestSnapshotRoundTripAndContinue(t *testing.T) {
	const interval = 20_000
	for _, name := range []string{"xalancbmk", "mcf"} {
		for _, vp := range []string{"eves", "h3vp", "lastvalue"} {
			for _, prefetch := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/prefetch=%v", name, vp, prefetch), func(t *testing.T) {
					w, _ := workloads.ByName(name)
					cfg := IcelakeSCC(scc.LevelFull).WithValuePredictor(vp)
					cfg.Hier.NextLinePrefetch = prefetch
					snapshotRoundTrip(t, w, cfg, interval)
				})
			}
		}
	}
}

func snapshotRoundTrip(t *testing.T, w workloads.Workload, cfg Config, interval uint64) {
	m := workloadMachine(t, w, cfg)
	// Warm through two boundaries, stopping at each like the serial
	// SimPoint estimator does.
	for i := uint64(1); i <= 2; i++ {
		m.Cfg.MaxUops = i * interval
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}

	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("two snapshots of the same state differ — encoding is nondeterministic")
	}

	r, err := NewMachineFromSnapshot(cfg, w.Program(), data)
	if err != nil {
		t.Fatal(err)
	}
	if re, err := r.Snapshot(); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("a just-restored machine does not snapshot to its input bytes (err %v)", err)
	}
	if !reflect.DeepEqual(r.Stats, m.Stats) {
		t.Fatalf("restored stats differ:\n restored %+v\n original %+v", r.Stats, m.Stats)
	}
	if r.Oracle.St != m.Oracle.St {
		t.Fatalf("restored architectural state differs: %+v vs %+v", r.Oracle.St, m.Oracle.St)
	}

	// Continue both machines one more interval.
	for _, mm := range []*Machine{m, r} {
		mm.Cfg.MaxUops = 3 * interval
		if _, err := mm.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(r.Stats, m.Stats) {
		t.Fatalf("stats diverged after continuing:\n restored %+v\n original %+v", r.Stats, m.Stats)
	}
	origSnap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restSnap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origSnap, restSnap) {
		t.Fatal("machine state diverged after continuing from a restore (snapshot bytes differ)")
	}
}

// TestFreshMachineSnapshotIsSmall guards the sparse format: a machine
// that has run nothing has touched no table entry, so its snapshot
// holds only fixed-size state. A table encoder that writes its whole
// capacity again would cost hundreds of kilobytes here.
func TestFreshMachineSnapshotIsSmall(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	for name, cfg := range map[string]Config{"icelake": Icelake(), "full SCC": IcelakeSCC(scc.LevelFull)} {
		m, err := New(cfg, w.Program())
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 8<<10 {
			t.Errorf("%s: fresh machine snapshots to %d bytes, want at most 8 KiB", name, len(data))
		}
	}
}

// TestSnapshotRestoreRejectsWrongConfig checks the loud-failure paths:
// structural geometry mismatches poison the decode instead of silently
// misaligning state.
func TestSnapshotRestoreRejectsWrongConfig(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := IcelakeSCC(scc.LevelFull)
	m, err := New(cfg, w.Program())
	if err != nil {
		t.Fatal(err)
	}
	if w.MemInit != nil {
		w.MemInit(m.Oracle.Mem)
	}
	m.Cfg.MaxUops = 10_000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	base := Icelake() // no SCC unit, baseline uop cache: must not restore
	if _, err := NewMachineFromSnapshot(base, w.Program(), data); err == nil {
		t.Fatal("restore into a baseline config succeeded; want geometry error")
	}

	vp := cfg
	vp.ValuePredictor = "lastvalue"
	if _, err := NewMachineFromSnapshot(vp, w.Program(), data); err == nil {
		t.Fatal("restore into a different value predictor succeeded; want kind error")
	}
}

// TestSnapshotRejectsDoneFlag: the byte after the cycle count is the
// retired "done" flag, which Snapshot always writes false so the format
// stays unchanged. A snapshot with it set is malformed.
func TestSnapshotRejectsDoneFlag(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := Icelake()
	m := workloadMachine(t, w, cfg)
	m.Cfg.MaxUops = 5_000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Re-seal the payload (between the 12-byte magic+version header and
	// the SHA-256 trailer) with the flag byte set to v.
	reseal := func(v byte) []byte {
		payload := append([]byte(nil), data[12:len(data)-sha256.Size]...)
		payload[8] = v // after the u64 cycle count
		w := snap.NewWriter()
		w.Raw(payload)
		return w.Finish()
	}
	if _, err := NewMachineFromSnapshot(cfg, w.Program(), reseal(0)); err != nil {
		t.Fatalf("re-sealed snapshot with the flag clear: %v", err)
	}
	if _, err := NewMachineFromSnapshot(cfg, w.Program(), reseal(1)); !errors.Is(err, snap.ErrMalformed) {
		t.Fatalf("flag set: err = %v, want snap.ErrMalformed", err)
	}
}
