package harness

import (
	"context"
	"fmt"
	"sort"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/snap"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// Snapshot-store metrics, registered eagerly on the process-wide
// registry at package load so every consumer (sccserve's /metrics.prom,
// the CLIs' -metrics-dump) exposes the series even before the first
// snapshot sweep runs. Pure observability: counters never feed back
// into warmup decisions.
var snapMet = struct {
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	bytesWritten *telemetry.Counter
	evictions    *telemetry.Counter
}{
	hits:         telemetry.Default().Counter("snapshot_hits_total", "Warmup snapshots restored from the snapshot store."),
	misses:       telemetry.Default().Counter("snapshot_misses_total", "Warmup snapshot probes that found no usable slot (cold warmup ran)."),
	bytesWritten: telemetry.Default().Counter("snapshot_bytes_written_total", "Bytes of warmup snapshots written to the snapshot store."),
	evictions:    telemetry.Default().Counter("snapshot_evictions_total", "Snapshot slots evicted to enforce the store size cap."),
}

// WarmupHash is the sub-hash of ConfigHash that covers every
// configuration knob affecting warmup state. MaxUops is the one knob
// that does not: it only bounds how far a run goes, not what any prefix
// of it does, so sweep configs differing only in work budget share
// warmup snapshots. Implemented by hashing the config with the budget
// zeroed — any future knob is conservatively warmup-affecting by
// default, which can only cost snapshot reuse, never correctness.
func WarmupHash(workload string, cfg pipeline.Config) string {
	cfg.MaxUops = 0
	return obs.ConfigHash(workload, cfg)
}

// warmupSnapshots produces the snapshot at every boundary in needed
// (1-based interval boundaries, ascending) for one workload/config. The
// store is probed first; remaining boundaries come from one serial
// detailed warmup walk that stops at every interval boundary — the same
// stops the serial estimator makes, which is what keeps restored runs
// byte-identical — snapshotting (and persisting) at each needed stop.
// The walk itself resumes from the deepest store hit below the first
// miss, so incremental sweeps never re-warm covered prefixes.
func warmupSnapshots(ctx context.Context, cfg pipeline.Config, w workloads.Workload, intervalUops uint64, needed []int, warmupHash string, store *snap.Store) (map[int][]byte, error) {
	snaps := make(map[int][]byte, len(needed))
	var missing []int
	for _, b := range needed {
		if store == nil {
			// No store configured: nothing to probe, and the hit/miss
			// series must only count real store probes.
			missing = append(missing, b)
			continue
		}
		key := snap.Key(w.Name, warmupHash, intervalUops, b)
		_, span := tracing.Start(ctx, "snapshot.load",
			tracing.String("key", key), tracing.Int("boundary", int64(b)))
		data := store.Load(key)
		span.SetAttr("hit", data != nil)
		span.End()
		if data != nil {
			snapMet.hits.Inc()
			snaps[b] = data
			continue
		}
		snapMet.misses.Inc()
		missing = append(missing, b)
	}
	if len(missing) == 0 {
		return snaps, nil
	}
	sort.Ints(missing)
	maxB := missing[len(missing)-1]
	missingSet := make(map[int]bool, len(missing))
	for _, b := range missing {
		missingSet[b] = true
	}

	// Resume the walk from the deepest hit below the first miss, if any:
	// scan eligible boundaries deepest-first and stop at the first
	// snapshot that restores, so at most one machine is rebuilt.
	start := 0
	var m *pipeline.Machine
	var eligible []int
	for _, b := range needed {
		if snaps[b] != nil && b < missing[0] {
			eligible = append(eligible, b)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(eligible)))
	for _, b := range eligible {
		if rm, err := pipeline.NewMachineFromSnapshot(cfg, w.Program(), snaps[b]); err == nil {
			start, m = b, rm
			break
		}
	}
	if m == nil {
		var err error
		m, err = pipeline.New(cfg, w.Program())
		if err != nil {
			return nil, err
		}
		if w.MemInit != nil {
			w.MemInit(m.Oracle.Mem)
		}
	}
	for i := start + 1; i <= maxB; i++ {
		m.Cfg.MaxUops = uint64(i) * intervalUops
		if _, err := m.Run(); err != nil {
			return nil, fmt.Errorf("harness: %s warmup to boundary %d: %w", w.Name, i, err)
		}
		if !missingSet[i] {
			continue
		}
		data, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("harness: %s snapshot at boundary %d: %w", w.Name, i, err)
		}
		snaps[i] = data
		key := snap.Key(w.Name, warmupHash, intervalUops, i)
		_, span := tracing.Start(ctx, "snapshot.save",
			tracing.String("key", key), tracing.Int("bytes", int64(len(data))))
		written, evicted := store.Save(key, data)
		span.SetAttr("written", written)
		span.End()
		if written {
			snapMet.bytesWritten.Add(int64(len(data)))
		}
		if evicted > 0 {
			snapMet.evictions.Add(int64(evicted))
		}
	}
	return snaps, nil
}

// runSnapshotShard measures the interval ending at boundary hi by
// restoring the warmup snapshot at hi-1 and running exactly one
// interval in detail. Any restore problem (nil snapshot, decode
// failure) degrades to a cold detailed walk — slower, never wrong.
func runSnapshotShard(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, hi int, data []byte) (shardSample, error) {
	if hi > 1 && data != nil {
		if m, err := pipeline.NewMachineFromSnapshot(cfg, w.Program(), data); err == nil {
			lo := reading{cycles: m.Stats.Cycles, uops: m.Stats.CommittedUops}
			m.Cfg.MaxUops = uint64(hi) * intervalUops
			st, err := m.Run()
			if err != nil {
				return shardSample{}, err
			}
			return shardSample{lo: lo, hi: reading{cycles: st.Cycles, uops: st.CommittedUops}}, nil
		}
	}
	rs, err := detailedWalk(cfg, w, intervalUops, hi)
	if err != nil {
		return shardSample{}, err
	}
	return shardSample{lo: rs[hi-1], hi: rs[hi]}, nil
}

// SimPointEstimateSnapshot is the snapshot-amortized detailed-warmup
// estimator: bit-equal to SimPointEstimate, but the detailed warmup
// prefix is simulated once per (workload, warmup hash) instead of once
// per representative. One serial walk snapshots the machine at each
// boundary a representative starts at; every shard then restores its
// boundary's snapshot and simulates exactly one interval. Total
// detailed work drops from O(sum of prefixes) to O(program + k
// intervals), and the per-interval shards parallelize across
// Options.Parallel workers — submitted longest-first for makespan and
// merged in canonical point order, so results are byte-identical at any
// worker count. Snapshots persist in Options.SnapshotDir (when set)
// keyed by WarmupHash, so later sweeps of budget-only config variants
// skip warmup entirely.
func SimPointEstimateSnapshot(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, k int, opts Options) (*SimPointResult, error) {
	n, points, err := selectSimPoints(w, intervalUops, k, opts)
	if err != nil {
		return nil, err
	}

	// One shard per representative plus the full-extent shard for FullIPC.
	his := make([]int, 0, len(points)+1)
	for _, p := range points {
		his = append(his, p.Interval+1)
	}
	his = append(his, n)

	// Collect the distinct warmup boundaries (hi-1) the shards restore at.
	neededSet := make(map[int]bool)
	for _, hi := range his {
		if hi > 1 {
			neededSet[hi-1] = true
		}
	}
	needed := make([]int, 0, len(neededSet))
	for b := range neededSet {
		needed = append(needed, b)
	}
	sort.Ints(needed)

	store := snap.NewStore(opts.SnapshotDir, opts.SnapshotMaxBytes)
	snaps, err := warmupSnapshots(opts.ctx(), cfg, w, intervalUops, needed, WarmupHash(w.Name, cfg), store)
	if err != nil {
		return nil, err
	}

	order := make([]int, len(his))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return his[order[a]] > his[order[b]] })
	jobs := make([]runner.Job[shardSample], len(order))
	for ji, si := range order {
		hi := his[si]
		jobs[ji] = runner.Job[shardSample]{
			Name: fmt.Sprintf("%s@%d", w.Name, hi),
			Run: func(context.Context) (shardSample, error) {
				return runSnapshotShard(cfg, w, intervalUops, hi, snaps[hi-1])
			},
		}
	}
	results, _, err := runner.Run(opts.ctx(), opts.runnerConfig(), jobs)
	if err != nil {
		return nil, err
	}
	shards := make([]shardSample, len(his))
	for ji, si := range order {
		shards[si] = results[ji]
	}
	return weightedEstimate(points, shards, shards[len(points)].hi), nil
}
