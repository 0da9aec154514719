package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/snap"
	"sccsim/internal/workloads"
)

// TestSnapshotSimPointMatchesSerial pins the headline contract of the
// snapshot warmup path: a sharded sweep whose shards restore from
// warmup snapshots is byte-identical to the serial detailed estimator —
// warmup amortization is a pure wall-clock optimization.
func TestSnapshotSimPointMatchesSerial(t *testing.T) {
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	const interval, k = 20_000, 3
	opts := Options{MaxUops: 100_000, Parallel: 4}

	serial, err := SimPointEstimate(cfg, w, interval, k, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, dir := range []string{"", t.TempDir()} {
		o := opts
		o.SnapshotDir = dir
		snap, err := SimPointEstimateSnapshot(cfg, w, interval, k, o)
		if err != nil {
			t.Fatal(err)
		}
		if snap.WeightedIPC != serial.WeightedIPC || snap.FullIPC != serial.FullIPC {
			t.Fatalf("dir=%q: snapshot estimate (%v, %v) != serial (%v, %v)",
				dir, snap.WeightedIPC, snap.FullIPC, serial.WeightedIPC, serial.FullIPC)
		}
		if !reflect.DeepEqual(snap.IntervalCycles, serial.IntervalCycles) ||
			!reflect.DeepEqual(snap.IntervalUops, serial.IntervalUops) {
			t.Fatalf("dir=%q: interval samples diverged", dir)
		}
		if dir != "" {
			// Second pass: every warmup boundary restores from the store.
			warm, err := SimPointEstimateSnapshot(cfg, w, interval, k, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, snap) {
				t.Fatal("store-hit pass diverged from cold pass")
			}
		}
	}
}

// TestSnapshotStoreReusedAcrossIntervalLengths shares one snapshot
// store between sweeps that use different interval lengths — the shape
// two -max-uops runs against the same -snapshot-dir produce, since
// SimPointSweepRun derives the interval from the budget. The warmup
// hash is identical across them (it zeroes the budget), so only the
// interval length in the slot key keeps boundary b of one sweep from
// restoring the other's state; each sweep must stay byte-identical to
// its own serial estimate.
func TestSnapshotStoreReusedAcrossIntervalLengths(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	const k = 3

	// The warmup hash ignores the work budget only: any other knob, or
	// another workload, addresses different slots.
	a, b := cfg, cfg
	a.MaxUops, b.MaxUops = 1_000, 2_000
	vp := cfg
	vp.ValuePredictor = "lastvalue"
	if WarmupHash("mcf", a) != WarmupHash("mcf", b) {
		t.Fatal("budget-only variants have different warmup hashes")
	}
	if h := WarmupHash("mcf", a); h == WarmupHash("mcf", pipeline.Icelake()) || h == WarmupHash("mcf", vp) ||
		WarmupHash("mcf", pipeline.Icelake()) == WarmupHash("mcf", vp) {
		t.Fatal("distinct warmup configs share a hash")
	}
	if WarmupHash("lbm", a) == WarmupHash("mcf", a) {
		t.Fatal("WarmupHash must key on the workload too")
	}

	dir := t.TempDir()
	for _, interval := range []uint64{10_000, 15_000} {
		opts := Options{MaxUops: 60_000, Parallel: 2, SnapshotDir: dir}
		serial, err := SimPointEstimate(cfg, w, interval, k, Options{MaxUops: opts.MaxUops, Parallel: opts.Parallel})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := SimPointEstimateSnapshot(cfg, w, interval, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, serial) {
			t.Fatalf("interval=%d: snapshot sweep over shared store diverged from serial (snapshot %+v, serial %+v)",
				interval, snap, serial)
		}
	}
}

// TestSnapshotStoreSelfHealingFallsBackToColdWarmup corrupts every
// persisted snapshot slot between two sweeps, one of them into a slot
// with an intact digest under the version-1 header that a store
// written before the sparse format holds. The second sweep must count
// every slot as a miss, delete the slots, fall back to a cold detailed
// warmup, rewrite valid slots at the current version — and still equal
// the serial estimate. The store is an accelerator, never a
// correctness dependency.
func TestSnapshotStoreSelfHealingFallsBackToColdWarmup(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	const interval, k = 15_000, 3
	dir := t.TempDir()
	opts := Options{MaxUops: 60_000, Parallel: 2, SnapshotDir: dir}

	serial, err := SimPointEstimate(cfg, w, interval, k, Options{MaxUops: opts.MaxUops, Parallel: opts.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	first, err := SimPointEstimateSnapshot(cfg, w, interval, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(slots) == 0 {
		t.Fatalf("no snapshot slots persisted (err=%v)", err)
	}
	old := oldVersionSlot(t, slots[0])
	if err := os.WriteFile(slots[0], old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range slots[1:] {
		if err := os.Truncate(p, 10); err != nil {
			t.Fatal(err)
		}
	}

	misses := snapMet.misses.Value()
	second, err := SimPointEstimateSnapshot(cfg, w, interval, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapMet.misses.Value() - misses; got != int64(len(slots)) {
		t.Fatalf("sweep over %d unusable slots counted %d misses", len(slots), got)
	}
	if !reflect.DeepEqual(second, first) || !reflect.DeepEqual(second, serial) {
		t.Fatal("sweep over corrupted store diverged from the clean sweep or the serial estimate")
	}
	for _, p := range slots {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // deleted and not re-needed: fine
		}
		if err := snap.Verify(data); err != nil {
			t.Fatalf("slot %s survived without being healed: %v", p, err)
		}
	}

	// The store deletes a version-1 slot on the load that rejects it.
	if err := os.WriteFile(slots[0], old, 0o644); err != nil {
		t.Fatal(err)
	}
	key := strings.TrimSuffix(filepath.Base(slots[0]), ".snap")
	if snap.NewStore(dir, 0).Load(key) != nil {
		t.Fatal("a version-1 slot loaded")
	}
	if _, err := os.Stat(slots[0]); !os.IsNotExist(err) {
		t.Fatalf("version-1 slot not deleted on load (stat err %v)", err)
	}
}

// oldVersionSlot re-seals the snapshot slot at path under the
// version-1 header, with a digest that matches.
func oldVersionSlot(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), data[:len(data)-sha256.Size]...)
	binary.LittleEndian.PutUint32(body[8:12], 1) // after the 8-byte magic
	sum := sha256.Sum256(body)
	return append(body, sum[:]...)
}

// TestSnapshotShardFallsBackToColdWalk hands a shard a checkpoint that
// cannot restore: the shard must fall back to a cold detailed walk and
// measure exactly what the shard restored from a good checkpoint does.
func TestSnapshotShardFallsBackToColdWalk(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	const interval, hi = 10_000, 3
	snaps, err := warmupSnapshots(context.Background(), cfg, w, interval, []int{hi - 1}, WarmupHash(w.Name, cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := runSnapshotShard(cfg, w, interval, hi, snaps[hi-1])
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runSnapshotShard(cfg, w, interval, hi, []byte("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if cold != restored {
		t.Fatalf("cold fallback shard = %+v, restored shard = %+v", cold, restored)
	}
}
