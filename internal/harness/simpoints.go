package harness

import (
	"fmt"
	"io"
	"sort"

	"sccsim/internal/emu"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/simpoint"
	"sccsim/internal/stats"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// SimPointResult is a SimPoint-style whole-program estimate (§VI's
// methodology): the program is profiled into basic-block-vector intervals,
// k representatives are chosen, the pipeline measures each representative,
// and whole-program metrics are the weighted sums.
type SimPointResult struct {
	Points []simpoint.SimPoint
	// Per-representative measurements, aligned with Points.
	IntervalCycles []uint64
	IntervalUops   []uint64
	// WeightedIPC is the SimPoint estimate; FullIPC is the measured
	// whole-run value it approximates.
	WeightedIPC float64
	FullIPC     float64
}

// ProfileBBV runs the workload functionally and fingerprints execution
// intervals by basic-block vector, attributing each micro-op to the macro
// PC that started its basic block.
func ProfileBBV(w workloads.Workload, intervalUops uint64, budget uint64) []simpoint.Interval {
	m := emu.New(w.Program())
	if w.MemInit != nil {
		w.MemInit(m.Mem)
	}
	prof := simpoint.NewProfile(intervalUops)
	blockHead := m.PC()
	for m.UopCount < budget {
		res, ok := m.StepUop()
		if !ok {
			break
		}
		prof.Touch(blockHead)
		if res.U.IsBranchKind() && res.EndsMacro {
			blockHead = res.Target
		}
	}
	return prof.Intervals()
}

// reading is a cumulative (cycles, committed uops) pair taken when a run
// stops at an interval boundary.
type reading struct{ cycles, uops uint64 }

// shardSample is one representative's readings at its interval's lower
// and upper boundaries.
type shardSample struct{ lo, hi reading }

// selectSimPoints is the estimators' shared prologue: profile the
// workload into intervals of intervalUops and choose up to k
// representatives. It returns the interval count and the points.
func selectSimPoints(w workloads.Workload, intervalUops uint64, k int, opts Options) (int, []simpoint.SimPoint, error) {
	_, span := tracing.Start(opts.ctx(), "simpoint.profile")
	defer span.End()
	intervals := ProfileBBV(w, intervalUops, opts.maxUops(w))
	if len(intervals) == 0 {
		return 0, nil, fmt.Errorf("harness: %s produced no intervals", w.Name)
	}
	points := simpoint.Select(intervals, k)
	span.SetAttr("intervals", len(intervals))
	span.SetAttr("points", len(points))
	return len(intervals), points, nil
}

// upperBounds returns the distinct upper boundaries, ascending, of the
// intervals an estimate over n intervals reads: each representative's
// and the full extent's.
func upperBounds(n int, points []simpoint.SimPoint) []int {
	his := make([]int, 0, len(points)+1)
	for _, p := range points {
		his = append(his, p.Interval+1)
	}
	if len(his) == 0 || his[len(his)-1] != n {
		his = append(his, n)
	}
	return his
}

// walk runs m from boundary from through boundary to, stopping at
// every interval boundary, and returns its readings at from..to. Each
// stop's pipeline-drain bubble is part of the measurement, so every
// estimator stops at the same boundaries. at, when non-nil, is called
// at each stop past from.
func walk(m *pipeline.Machine, intervalUops uint64, from, to int, at func(b int) error) ([]reading, error) {
	rs := make([]reading, 1, to-from+1)
	rs[0] = reading{cycles: m.Stats.Cycles, uops: m.Stats.CommittedUops}
	for b := from + 1; b <= to; b++ {
		m.Cfg.MaxUops = uint64(b) * intervalUops
		st, err := run(m)
		if err != nil {
			return nil, fmt.Errorf("boundary %d: %w", b, err)
		}
		rs = append(rs, reading{cycles: st.Cycles, uops: st.CommittedUops})
		if at != nil {
			if err := at(b); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// detailedWalk simulates w on a fresh machine through boundary n,
// stopping at every interval boundary, and returns the cumulative
// readings at boundaries 0..n.
func detailedWalk(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, n int) ([]reading, error) {
	m, err := newMachine(cfg, w)
	if err != nil {
		return nil, err
	}
	return walk(m, intervalUops, 0, n, nil)
}

// weightedEstimate is the estimators' shared merge: per-representative
// interval deltas (shards aligned with points), their IPCs weighted by
// simpoint.WeightedMetric, and the full run's IPC from its final reading.
func weightedEstimate(points []simpoint.SimPoint, shards []shardSample, full reading) *SimPointResult {
	res := &SimPointResult{Points: points}
	ipcs := make([]float64, len(points))
	for i := range points {
		cyc := shards[i].hi.cycles - shards[i].lo.cycles
		uops := shards[i].hi.uops - shards[i].lo.uops
		res.IntervalCycles = append(res.IntervalCycles, cyc)
		res.IntervalUops = append(res.IntervalUops, uops)
		ipcs[i] = stats.Ratio(float64(uops), float64(cyc))
	}
	// ipcs is aligned with points by construction, so WeightedMetric's
	// length check cannot fail.
	res.WeightedIPC, _ = simpoint.WeightedMetric(points, ipcs)
	res.FullIPC = stats.Ratio(float64(full.uops), float64(full.cycles))
	return res
}

// SimPointEstimate profiles the workload, selects up to k simpoints, runs
// the pipeline across interval boundaries (the machine is resumable, so
// each interval is measured in one pass with full warmup), and returns the
// weighted whole-program estimate next to the true full-run measurement.
// It is the serial reference SimPointEstimateSnapshot is pinned against.
func SimPointEstimate(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, k int, opts Options) (*SimPointResult, error) {
	n, points, err := selectSimPoints(w, intervalUops, k, opts)
	if err != nil {
		return nil, err
	}
	rs, err := detailedWalk(cfg, w, intervalUops, n)
	if err != nil {
		return nil, err
	}
	shards := make([]shardSample, len(points))
	for i, p := range points {
		shards[i] = shardSample{lo: rs[p.Interval], hi: rs[p.Interval+1]}
	}
	return weightedEstimate(points, shards, rs[n]), nil
}

// SimPoint sweep defaults: each workload's budget is cut into this many
// intervals, and up to this many representatives are measured.
const (
	simPointIntervalsPerRun = 8
	simPointK               = 4
)

// SimPointSweep is the SimPoint-estimation table: per-workload weighted
// whole-program IPC estimates under the full-SCC configuration, next to
// the true full-run IPC.
type SimPointSweep struct {
	Names       []string
	WeightedIPC []float64
	FullIPC     []float64
	Points      []int // representatives measured per workload
}

// SimPointSweepRun estimates every workload's whole-program IPC from
// SimPoint representatives with SimPointEstimateSnapshot, one workload
// after another, simulating each interval once: one detailed walk
// measures the intervals whose warmup checkpoints Options.SnapshotDir
// lacks (all of them without a store) and persists those checkpoints,
// and each other interval restores its checkpoint as its own scheduler
// job across Options.Parallel workers. Estimates are bit-equal to the
// serial detailed pass.
func SimPointSweepRun(opts Options) (*SimPointSweep, error) {
	f := &SimPointSweep{}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	for _, w := range opts.workloads() {
		interval := opts.maxUops(w) / simPointIntervalsPerRun
		if interval == 0 {
			interval = opts.maxUops(w)
		}
		r, err := SimPointEstimateSnapshot(cfg, w, interval, simPointK, opts)
		if err != nil {
			return nil, err
		}
		f.Names = append(f.Names, w.Name)
		f.WeightedIPC = append(f.WeightedIPC, r.WeightedIPC)
		f.FullIPC = append(f.FullIPC, r.FullIPC)
		f.Points = append(f.Points, len(r.Points))
	}
	return f, nil
}

// Write prints the estimation table.
func (f *SimPointSweep) Write(w io.Writer) {
	section(w, "SimPoint whole-program IPC estimates (detailed warmup, each interval simulated once)")
	t := newTable("benchmark", "points", "weighted ipc", "full ipc")
	for i, name := range f.Names {
		t.row(name, fmt.Sprintf("%d", f.Points[i]), fmt.Sprintf("%.3f", f.WeightedIPC[i]), fmt.Sprintf("%.3f", f.FullIPC[i]))
	}
	t.write(w)
	fmt.Fprintln(w, "note: the warmup walk measures the intervals it passes, the rest restore from stored warmup snapshots; estimates are bit-equal to the serial detailed pass")
}

// blockHeads returns the static basic-block leader PCs of a program
// (entry, branch targets, fall-throughs after branches) — a diagnostic
// used by tests to sanity-check BBV coverage.
func blockHeads(w workloads.Workload) []uint64 {
	p := w.Program()
	heads := map[uint64]bool{p.Entry: true}
	for _, in := range p.Insts {
		if in.Op.IsBranch() {
			if in.Target != 0 {
				heads[in.Target] = true
			}
			heads[in.NextAddr()] = true
		}
	}
	var out []uint64
	for h := range heads {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
