package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// TestSnapshotRoundTripAndContinue is the machine-checkpoint contract:
// a machine snapshotted at an interval boundary and restored into a
// fresh machine continues byte-identically to the original — same
// stats, same architectural state, and (the strongest form) the same
// snapshot bytes at the next boundary, which covers every serialized
// field at once.
func TestSnapshotRoundTripAndContinue(t *testing.T) {
	const interval = 20_000
	w, _ := workloads.ByName("xalancbmk")
	cfg := IcelakeSCC(scc.LevelFull)

	m, err := New(cfg, w.Program())
	if err != nil {
		t.Fatal(err)
	}
	if w.MemInit != nil {
		w.MemInit(m.Oracle.Mem)
	}
	// Warm through two boundaries, stopping at each like the serial
	// SimPoint estimator does.
	for i := 1; i <= 2; i++ {
		m.Cfg.MaxUops = uint64(i) * interval
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
