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
	"sccsim/internal/tracing"
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
// measure exactly what the shard restored from a good checkpoint does,
// which is what the serial walk reads at the interval's boundaries.
func TestSnapshotShardFallsBackToColdWalk(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	const interval, hi = 10_000, 3
	m, err := newMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walk(m, interval, 0, hi-1, nil); err != nil {
		t.Fatal(err)
	}
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	restored, err := runSnapshotShard(ctx, cfg, w, interval, hi, data)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runSnapshotShard(ctx, cfg, w, interval, hi, []byte("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := detailedWalk(cfg, w, interval, hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := (shardSample{lo: rs[hi-1], hi: rs[hi]}); cold != restored || restored != want {
		t.Fatalf("cold fallback shard = %+v, restored shard = %+v, serial walk = %+v", cold, restored, want)
	}
}

// TestSnapshotEstimateSimulatesEachIntervalOnce pins the work the
// snapshot estimator does, by pipeline_cycles_total and by its spans,
// and that its estimate equals the serial one in every store state:
//
//   - without a store, and over an empty store (cold), one walk
//     measures every interval, so it advances the counter by exactly
//     the serial walk's final cycle count and restores nothing;
//   - over the store the cold pass filled (warm), no walk runs and one
//     restore shard per distinct boundary simulates just its interval;
//   - over a store with some slots deleted, the walk and restore shards
//     split the intervals.
//
// xalancbmk at 200k uops with k=6 picks interval n-1 as its last
// representative, so the full-extent interval is also a
// representative's; mcf at 90k with k=3 does not.
func TestSnapshotEstimateSimulatesEachIntervalOnce(t *testing.T) {
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	cases := []struct {
		workload        string
		budget, ivUops  uint64
		k               int
		lastIsFullRange bool
	}{
		{"xalancbmk", 200_000, 25_000, 6, true},
		{"mcf", 90_000, 10_000, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			w, _ := workloads.ByName(tc.workload)
			opts := Options{MaxUops: tc.budget, Parallel: 2}
			serial, err := SimPointEstimate(cfg, w, tc.ivUops, tc.k, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := int(tc.budget / tc.ivUops)
			if last := serial.Points[len(serial.Points)-1].Interval; (last == n-1) != tc.lastIsFullRange {
				t.Fatalf("last representative is interval %d of %d; the case wants it %v to be n-1", last, n, tc.lastIsFullRange)
			}
			rs, err := detailedWalk(cfg, w, tc.ivUops, n)
			if err != nil {
				t.Fatal(err)
			}
			his := upperBounds(n, serial.Points)
			var shardCycles int64
			for _, hi := range his {
				shardCycles += int64(rs[hi].cycles - rs[hi-1].cycles)
			}

			dir := t.TempDir()
			pass := func(name, dir string, wantCycles int64, wantWalks, wantShards int) []tracing.SpanData {
				t.Helper()
				tr := tracing.New(tracing.MintTraceID())
				o := tracedOptions(tr, opts)
				o.SnapshotDir = dir
				c0 := cycleMet.cycles.Value()
				got, err := SimPointEstimateSnapshot(cfg, w, tc.ivUops, tc.k, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("%s: estimate %+v, serial %+v", name, got, serial)
				}
				if d := cycleMet.cycles.Value() - c0; wantCycles >= 0 && d != wantCycles {
					t.Errorf("%s: advanced pipeline_cycles_total by %d, want %d", name, d, wantCycles)
				}
				tr.Finish()
				count := map[string]int{}
				for _, sp := range tr.Spans() {
					count[sp.Name]++
				}
				shards := count["simpoint.shard"]
				if count["simpoint.walk"] != wantWalks || shards != wantShards && !(wantShards < 0 && shards > 0) {
					t.Errorf("%s: %d walk and %d shard spans, want %d and %d", name,
						count["simpoint.walk"], shards, wantWalks, wantShards)
				}
				return tr.Spans()
			}
			serialCycles := int64(rs[n].cycles)
			pass("no store", "", serialCycles, 1, 0)
			for _, sp := range pass("cold", dir, serialCycles, 1, 0) {
				switch sp.Name {
				case "simpoint.profile":
					if spanAttr(sp, "intervals") != n || spanAttr(sp, "points") != len(serial.Points) {
						t.Errorf("cold: simpoint.profile attrs %v, want %d intervals and %d points", sp.Attrs, n, len(serial.Points))
					}
				case "simpoint.walk":
					if spanAttr(sp, "from") != int64(0) || spanAttr(sp, "to") != int64(n) || spanAttr(sp, "measured") != len(serial.Points) {
						t.Errorf("cold: simpoint.walk attrs %v, want from 0 to %d measuring %d", sp.Attrs, n, len(serial.Points))
					}
				}
			}
			restoredAt := map[int64]bool{}
			for _, sp := range pass("warm", dir, shardCycles, 0, len(his)) {
				if sp.Name == "simpoint.shard" {
					restoredAt[spanAttr(sp, "boundary").(int64)] = spanAttr(sp, "restored").(bool)
				}
			}
			for _, hi := range his {
				// Boundary 0 needs no checkpoint: that shard starts fresh.
				if r, ok := restoredAt[int64(hi-1)]; !ok || r != (hi > 1) {
					t.Errorf("warm: shard at boundary %d: present %v, restored %v", hi-1, ok, r)
				}
			}

			// Delete the slot of a middle boundary: the walk resumes below
			// it and the boundaries above it restore (-1: any count > 0).
			mid := his[len(his)/2] - 1
			slot := filepath.Join(dir, snap.Key(w.Name, WarmupHash(w.Name, cfg), tc.ivUops, mid)+".snap")
			if err := os.Remove(slot); err != nil {
				t.Fatal(err)
			}
			pass("partial", dir, -1, 1, -1)
		})
	}
}

// spanAttr returns the value of sp's attribute key, or nil.
func spanAttr(sp tracing.SpanData, key string) any {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}
