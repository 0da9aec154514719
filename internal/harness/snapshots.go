package harness

import (
	"context"
	"fmt"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/simpoint"
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

// warmupWalk is the readings a warmup walk took at the boundaries it
// stopped at: rs[i] at boundary from+i. The zero value passed none.
type warmupWalk struct {
	from int
	rs   []reading
}

// sample returns the readings at both boundaries of the interval
// ending at boundary hi, if the walk passed them.
func (wk warmupWalk) sample(hi int) (shardSample, bool) {
	if hi-1 < wk.from || hi-wk.from >= len(wk.rs) {
		return shardSample{}, false
	}
	return shardSample{lo: wk.rs[hi-1-wk.from], hi: wk.rs[hi-wk.from]}, true
}

// warmupSnapshots prepares one workload/config's SimPoint estimate over
// n intervals. An interval is read from two readings, one at each of
// its boundaries, and the intervals needed are each representative's
// and the full extent's. The store is probed for the checkpoint at
// each needed interval's lower boundary. The boundaries that miss are
// walked once, in detail: from the deepest loaded checkpoint below the
// first miss (or a fresh machine), stopping at every interval boundary
// as the serial estimator does, to one interval past the last miss.
// The walk records its reading at every stop, so it measures every
// interval it passes. It takes a checkpoint at a missed boundary only
// to persist it, so without a store it takes none. warmupSnapshots
// returns the slots it loaded and the walk; a needed interval the walk
// did not pass restores from its slot.
func warmupSnapshots(ctx context.Context, cfg pipeline.Config, w workloads.Workload, intervalUops uint64, n int, points []simpoint.SimPoint, warmupHash string, store *snap.Store) (map[int][]byte, warmupWalk, error) {
	var needed []int // ascending; boundary 0 needs no checkpoint
	for _, hi := range upperBounds(n, points) {
		if hi > 1 {
			needed = append(needed, hi-1)
		}
	}
	loaded := make(map[int][]byte, len(needed))
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
			loaded[b] = data
			continue
		}
		snapMet.misses.Inc()
		missing = append(missing, b)
	}
	if len(missing) == 0 {
		return loaded, warmupWalk{}, nil
	}

	// Resume the walk from the deepest hit below the first miss, if any:
	// scan those boundaries deepest-first and stop at the first
	// checkpoint that restores, so at most one machine is rebuilt.
	start := 0
	var m *pipeline.Machine
	for i := len(needed) - 1; i >= 0 && m == nil; i-- {
		if b := needed[i]; b < missing[0] && loaded[b] != nil {
			if rm, err := pipeline.NewMachineFromSnapshot(cfg, w.Program(), loaded[b]); err == nil {
				start, m = b, rm
			}
		}
	}
	if m == nil {
		var err error
		if m, err = newMachine(cfg, w); err != nil {
			return nil, warmupWalk{}, err
		}
	}
	last := missing[len(missing)-1]
	wctx, span := tracing.Start(ctx, "simpoint.walk",
		tracing.Int("from", int64(start)), tracing.Int("to", int64(last+1)))
	defer span.End()
	var persist func(b int) error
	if store != nil {
		missed := make(map[int]bool, len(missing))
		for _, b := range missing {
			missed[b] = true
		}
		persist = func(b int) error {
			if !missed[b] {
				return nil
			}
			return saveSnapshot(wctx, m, w, warmupHash, intervalUops, b, store)
		}
	}
	rs, err := walk(m, intervalUops, start, last+1, persist)
	if err != nil {
		span.SetError(err.Error())
		return nil, warmupWalk{}, fmt.Errorf("harness: %s warmup walk: %w", w.Name, err)
	}
	wk := warmupWalk{from: start, rs: rs}
	measured := 0
	for _, p := range points {
		if _, ok := wk.sample(p.Interval + 1); ok {
			measured++
		}
	}
	span.SetAttr("measured", measured)
	return loaded, wk, nil
}

// saveSnapshot checkpoints m at boundary b and persists the checkpoint.
func saveSnapshot(ctx context.Context, m *pipeline.Machine, w workloads.Workload, warmupHash string, intervalUops uint64, b int, store *snap.Store) error {
	data, err := m.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot at boundary %d: %w", b, err)
	}
	key := snap.Key(w.Name, warmupHash, intervalUops, b)
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
	return nil
}

// runSnapshotShard measures the interval ending at boundary hi by
// restoring the warmup checkpoint at hi-1 and running exactly one
// interval in detail. Without a checkpoint (the interval from boundary
// 0) it starts a fresh machine, and a checkpoint that does not restore
// degrades to a cold detailed walk — slower, never wrong.
func runSnapshotShard(ctx context.Context, cfg pipeline.Config, w workloads.Workload, intervalUops uint64, hi int, data []byte) (shardSample, error) {
	_, span := tracing.Start(ctx, "simpoint.shard", tracing.Int("boundary", int64(hi-1)))
	defer span.End()
	var m *pipeline.Machine
	if data != nil {
		// A checkpoint that does not restore leaves m nil.
		m, _ = pipeline.NewMachineFromSnapshot(cfg, w.Program(), data)
	}
	span.SetAttr("restored", m != nil)
	from := hi - 1
	if m == nil {
		var err error
		if m, err = newMachine(cfg, w); err != nil {
			return shardSample{}, err
		}
		from = 0
	}
	rs, err := walk(m, intervalUops, from, hi, nil)
	if err != nil {
		span.SetError(err.Error())
		return shardSample{}, fmt.Errorf("harness: %s shard at boundary %d: %w", w.Name, hi-1, err)
	}
	return shardSample{lo: rs[len(rs)-2], hi: rs[len(rs)-1]}, nil
}

// SimPointEstimateSnapshot is the snapshot-backed detailed-warmup
// estimator: bit-equal to SimPointEstimate, while simulating each
// interval at most once. The intervals it reads are each
// representative's and the full extent's. warmupSnapshots probes the
// store (Options.SnapshotDir, keyed by WarmupHash, so budget-only
// config variants share it) for the checkpoint each interval starts
// at, and one detailed walk measures every interval whose checkpoint
// is missing, persisting the missed checkpoints on its way. Every
// other interval is a restore shard: it restores its checkpoint and
// simulates exactly one interval, one shard per distinct boundary.
// Over an empty store, or without one, the walk measures everything
// and no shard runs, which is exactly the serial estimator's work;
// over a full store no walk runs. Shards run across Options.Parallel
// workers, submitted longest-first for makespan and merged in
// canonical point order, so results are byte-identical at any worker
// count.
func SimPointEstimateSnapshot(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, k int, opts Options) (*SimPointResult, error) {
	n, points, err := selectSimPoints(w, intervalUops, k, opts)
	if err != nil {
		return nil, err
	}
	store := snap.NewStore(opts.SnapshotDir, opts.SnapshotMaxBytes)
	loaded, wk, err := warmupSnapshots(opts.ctx(), cfg, w, intervalUops, n, points, WarmupHash(w.Name, cfg), store)
	if err != nil {
		return nil, err
	}

	// Each interval read, by upper boundary, from the walk or from the
	// restore shard that measures it. Shards go longest first.
	samples := make(map[int]shardSample, len(points)+1)
	var shards []int
	his := upperBounds(n, points)
	for i := len(his) - 1; i >= 0; i-- {
		s, ok := wk.sample(his[i])
		samples[his[i]] = s
		if !ok {
			shards = append(shards, his[i])
		}
	}
	jobs := make([]runner.Job[shardSample], len(shards))
	for i, hi := range shards {
		jobs[i] = runner.Job[shardSample]{
			Name: fmt.Sprintf("%s@%d", w.Name, hi),
			Run: func(ctx context.Context) (shardSample, error) {
				return runSnapshotShard(ctx, cfg, w, intervalUops, hi, loaded[hi-1])
			},
		}
	}
	results, _, err := runner.Run(opts.ctx(), opts.runnerConfig(), jobs)
	if err != nil {
		return nil, err
	}
	for i, hi := range shards {
		samples[hi] = results[i]
	}
	read := make([]shardSample, len(points))
	for i, p := range points {
		read[i] = samples[p.Interval+1]
	}
	return weightedEstimate(points, read, samples[n].hi), nil
}
