// Package harness drives the paper's experiments: it runs workloads under
// configuration sweeps and regenerates every table and figure of the
// evaluation section (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for measured-vs-paper shapes).
//
// Every figure is one grid: each workload under each of the figure's
// configurations, scheduled through internal/runner. The runs fan out
// across a worker pool and come back in submission order, so the
// rendered tables are byte-identical to a serial run no matter the
// Parallel setting. A Session shares runs between the figures it runs.
package harness

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/power"
	"sccsim/internal/runner"
	"sccsim/internal/scc"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// RunResult is one (workload, configuration) measurement.
type RunResult struct {
	Workload string
	// Config is the effective machine configuration the run executed
	// under (work budget applied) — what the manifest content-hashes.
	Config pipeline.Config
	Stats  *pipeline.Stats
	Energy power.Report
	Mem    power.CacheCounts
	Unit   *scc.UnitStats // nil for baselines
	// Samples is the interval-sampled telemetry series; nil unless
	// Options.SampleEvery enabled sampling.
	Samples []obs.Interval
	// OptReport is the aggregated SCC optimization report; nil unless
	// Options.Journal attached the journal aggregator.
	OptReport *obs.SCCReport
	// FromCache marks a result rehydrated from a manifest in
	// Options.CacheDir instead of simulated (the run never executed).
	FromCache bool
	// cachedReport is the scc_report block of the manifest a journaled
	// cache hit was rehydrated from.
	cachedReport *obs.SCCReportSummary
}

// Manifest assembles the run's machine-readable JSON artifact. Everything
// it fills except the VCS stamp is deterministic.
func (r *RunResult) Manifest() *obs.Manifest {
	m := obs.NewManifest(r.Workload, r.Config, r.Stats, r.Energy, r.Mem, r.Unit, r.Samples)
	m.SCCReport = r.cachedReport
	if r.OptReport != nil {
		m.SCCReport = r.OptReport.Summary()
	}
	return m
}

// EnergyJ returns total energy in joules.
func (r *RunResult) EnergyJ() float64 { return r.Energy.Total() }

// CommittedUopCount reports the run's committed micro-ops to the
// scheduler's telemetry (runner.UopCounter).
func (r *RunResult) CommittedUopCount() uint64 {
	if r == nil || r.Stats == nil {
		return 0
	}
	return r.Stats.CommittedUops
}

// Options tunes experiment runs.
type Options struct {
	// Ctx, when non-nil, is the root context for sweeps: it carries
	// cancellation and — when bound with tracing.NewContext — the trace
	// context every run's span tree hangs under. nil means Background.
	Ctx context.Context
	// MaxUops overrides every workload's default interval length
	// (0 keeps the defaults). Benchmarks use small values for speed.
	MaxUops uint64
	// Workloads restricts the set (nil = all 19).
	Workloads []workloads.Workload
	// Parallel is the sweep worker count: 0 means GOMAXPROCS, 1 runs
	// with exact serial semantics. Results are order-deterministic
	// either way.
	Parallel int
	// SnapshotDir, when non-empty, persists SimPointEstimateSnapshot's
	// warmup checkpoints in a content-addressed store beside the result
	// cache, keyed by (workload, WarmupHash, interval length, boundary):
	// later estimates of configs that differ only in work budget, and
	// later invocations, restore a representative's checkpoint instead
	// of walking to it. Empty takes no checkpoint: one detailed walk
	// measures every interval, as SimPointEstimate does.
	SnapshotDir string
	// SnapshotMaxBytes caps the on-disk snapshot store; least-recently-
	// used slots are evicted past the cap. 0 means unbounded.
	SnapshotMaxBytes int64
	// CacheDir, when non-empty, enables the manifest result cache: before
	// simulating, each run probes the directory for a manifest whose
	// ConfigHash matches the effective configuration and rehydrates the
	// RunResult from it (FromCache=true); on a miss the finished run is
	// written back. Any sccbench -json output directory is a valid cache.
	CacheDir string
	// SampleEvery enables interval-sampled telemetry: every N committed
	// micro-ops the pipeline snapshots its stats into the run's Samples
	// series (obs.Interval deltas). 0 (the default) disables sampling.
	SampleEvery uint64
	// Journal attaches the SCC journal aggregator to each run and fills
	// RunResult.OptReport with the aggregated optimization report. The
	// journal is a pure tap — simulation results are identical either way.
	// Like Observe, it is not applied on a result-cache hit: a hit needs
	// a cached manifest with an scc_report block, which its Manifest
	// keeps.
	Journal bool
	// Observe, when non-nil, is invoked with each run's prepared machine
	// before simulation starts — the attach point for obs observers
	// (PipeTracer, extra samplers). Observers must be pure taps; they may
	// not alter simulation behaviour. Not invoked on a result-cache hit
	// (the run never executes), so lifecycle tracing wants CacheDir off,
	// nor for a run a Session reused.
	Observe func(*pipeline.Machine)
	// OnResult, when non-nil, is invoked after an experiment's sweep
	// returns for every cell of its grid, reused runs included, in
	// [configuration][workload] order; i is the cell's index in that
	// order. Used by the CLIs to write per-run manifests. Not called
	// when the sweep fails.
	OnResult func(i int, r *RunResult)
	// Progress is forwarded to the scheduler's live progress hook
	// (runner.Config.Progress); the hook must not affect results.
	Progress func(runner.ProgressEvent)
	// Logger, when non-nil, emits structured run-lifecycle events (run
	// start/done, cache hits) and is forwarded to the scheduler for job
	// events. When the logger is enabled at Debug level, the SCC journal
	// is additionally tapped to log per-event compaction outcomes and
	// squash forensics, each carrying the logger's bound attributes — the
	// serving tier binds the admission request_id, so one correlation ID
	// links the HTTP access log, scheduler events, and SCC journal
	// entries of the same request. A pure tap: simulation results are
	// byte-identical with or without it (TestPureTaps).
	Logger *slog.Logger
}

func (o Options) workloads() []workloads.Workload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return workloads.All()
}

func (o Options) maxUops(w workloads.Workload) uint64 {
	if o.MaxUops > 0 {
		return o.MaxUops
	}
	return w.DefaultMaxUops
}

func (o Options) runnerConfig() runner.Config {
	return runner.Config{Parallel: o.Parallel, Progress: o.Progress, Logger: o.Logger}
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Prepare builds the machine for one (workload, configuration) run:
// it applies the work budget and seeds workload memory. RunOne and
// every sweep job set up their machines through it.
func Prepare(cfg pipeline.Config, w workloads.Workload, opts Options) (*pipeline.Machine, error) {
	cfg.MaxUops = opts.maxUops(w)
	return newMachine(cfg, w)
}

// newMachine builds a machine for w under cfg, work budget included,
// and seeds the workload's memory.
func newMachine(cfg pipeline.Config, w workloads.Workload) (*pipeline.Machine, error) {
	m, err := pipeline.New(cfg, w.Program())
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	if w.MemInit != nil {
		w.MemInit(m.Oracle.Mem)
	}
	return m, nil
}

// Cycle counters, registered on the process-wide registry at package
// load like the snapshot_* series. Every Machine.Run the harness makes
// adds the cycles it advanced and, of those, the quiet cycles it jumped
// over; their ratio is the skipped share. Pure observability.
var cycleMet = struct {
	cycles  *telemetry.Counter
	skipped *telemetry.Counter
}{
	cycles:  telemetry.Default().Counter("pipeline_cycles_total", "Simulated cycles advanced by Machine.Run, skipped ones included."),
	skipped: telemetry.Default().Counter("pipeline_skipped_cycles_total", "Quiet cycles Machine.Run jumped over instead of simulating one by one."),
}

// run is m.Run plus the cycle counters.
func run(m *pipeline.Machine) (*pipeline.Stats, error) {
	c0, s0 := m.CycleCounts()
	st, err := m.Run()
	c1, s1 := m.CycleCounts()
	cycleMet.cycles.Add(int64(c1 - c0))
	cycleMet.skipped.Add(int64(s1 - s0))
	return st, err
}

// measure is the serial core of a single run: prepare, simulate, package
// the measurement. Sweep jobs call it from pool workers with the
// runner-provided context, so a trace bound into Options.Ctx reaches
// every run's span tree. All spans are pure taps — they read clocks and
// copy attributes, never feed back into the simulation
// (TestPureTaps pins byte-identical manifests either way).
func measure(ctx context.Context, cfg pipeline.Config, w workloads.Workload, opts Options) (*RunResult, error) {
	ctx, runSpan := tracing.Start(ctx, "harness.run", tracing.String("workload", w.Name))
	defer runSpan.End()
	_, prepSpan := tracing.Start(ctx, "harness.prepare")
	m, err := Prepare(cfg, w, opts)
	prepSpan.End()
	if err != nil {
		runSpan.SetError(err.Error())
		return nil, err
	}
	if runSpan != nil {
		runSpan.SetAttr("config_hash", obs.ConfigHash(w.Name, m.Cfg)[:12])
	}
	rlog := opts.Logger
	if rlog != nil {
		// Bind the run identity once; ConfigHash is only computed when a
		// logger is attached (it walks the whole effective config).
		rlog = rlog.With(
			slog.String("workload", w.Name),
			slog.String("config_hash", obs.ConfigHash(w.Name, m.Cfg)[:12]))
	}
	if opts.CacheDir != "" {
		_, cacheSpan := tracing.Start(ctx, "cache.probe")
		res := loadCached(opts, w, m.Cfg)
		cacheSpan.SetAttr("hit", res != nil)
		cacheSpan.End()
		if res != nil {
			if rlog != nil {
				rlog.LogAttrs(context.Background(), slog.LevelDebug, "harness cache hit")
			}
			return res, nil
		}
	}
	if opts.Observe != nil {
		opts.Observe(m)
	}
	var journal *obs.JournalAggregator
	var hooks *scc.Journal
	if opts.Journal {
		journal = obs.NewJournalAggregator()
		hooks = journal.Hooks()
	}
	if debugEnabled(rlog) {
		// Only a Debug-enabled logger pays for the journal tap (a Job hook
		// turns on remark collection inside the unit).
		hooks = scc.Tee(hooks, journalLogger(rlog))
	}
	if hooks != nil {
		m.SetSCCJournal(hooks)
	}
	simCtx, simSpan := tracing.Start(ctx, "harness.simulate")
	var sampler *obs.Sampler
	var closeWindow func(obs.Interval)
	if opts.SampleEvery > 0 {
		sampler, closeWindow = new(obs.Sampler), windowSpans(simCtx)
		m.SetSampleHook(opts.SampleEvery, func(cur pipeline.Stats) {
			closeWindow(sampler.Observe(cur))
		})
	}
	if rlog != nil {
		rlog.LogAttrs(context.Background(), slog.LevelDebug, "harness run start",
			slog.Uint64("max_uops", m.Cfg.MaxUops))
	}
	t0 := time.Now()
	st, err := run(m)
	if err != nil {
		simSpan.SetError(err.Error())
		simSpan.End()
		runSpan.SetError(err.Error())
		if rlog != nil {
			rlog.LogAttrs(context.Background(), slog.LevelWarn, "harness run failed",
				slog.String("error", err.Error()))
		}
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	var samples []obs.Interval
	if sampler != nil {
		samples = sampler.Finalize(st)
		if n := len(samples); n > 0 {
			closeWindow(samples[n-1]) // the tail window, if Finalize closed one
		}
	}
	if simSpan != nil {
		_, skipped := m.CycleCounts()
		simSpan.SetAttr("uops", st.CommittedUops)
		simSpan.SetAttr("cycles", st.Cycles)
		simSpan.SetAttr("skipped_cycles", skipped)
	}
	simSpan.End()
	if rlog != nil {
		rlog.LogAttrs(context.Background(), slog.LevelInfo, "harness run done",
			slog.Float64("wall_ms", time.Since(t0).Seconds()*1e3),
			slog.Uint64("uops", st.CommittedUops),
			slog.Uint64("cycles", st.Cycles))
	}
	_, finSpan := tracing.Start(ctx, "harness.finalize")
	defer finSpan.End()
	mem := power.CacheCounts{
		L1D:  m.Hier.L1D.Stats.Hits + m.Hier.L1D.Stats.Misses,
		L2:   m.Hier.L2.Stats.Hits + m.Hier.L2.Stats.Misses,
		L3:   m.Hier.L3.Stats.Hits + m.Hier.L3.Stats.Misses,
		DRAM: m.Hier.DRAMAccesses,
	}
	res := &RunResult{
		Workload: w.Name,
		Config:   m.Cfg,
		Stats:    st,
		Energy:   power.Energy(power.DefaultParams(), st, mem),
		Mem:      mem,
	}
	if m.Unit != nil {
		u := m.Unit.Stats
		res.Unit = &u
	}
	res.Samples = samples
	if journal != nil {
		res.OptReport = journal.Report(w.Name)
	}
	if opts.CacheDir != "" {
		storeCached(opts.CacheDir, res)
	}
	return res, nil
}

// windowSpans returns the function measure hands each sampling window
// as it closes. On a traced context it records the window as a
// sample.interval span under the context's span (harness.simulate),
// from the previous window's end to now, carrying the interval's
// metrics; a window it has already recorded is skipped. On an untraced
// context it does nothing.
func windowSpans(ctx context.Context) func(obs.Interval) {
	tr, parent := tracing.FromContext(ctx)
	if tr == nil {
		return func(obs.Interval) {}
	}
	start, next := time.Now(), 0
	return func(iv obs.Interval) {
		if iv.Index < next {
			return
		}
		tr.StartSpanAt(start, "sample.interval", parent.SpanID(),
			tracing.Int("interval", int64(iv.Index)),
			tracing.Uint64("end_uops", iv.EndUops),
			tracing.Float64("ipc", iv.IPC),
			tracing.Float64("uop_reduction", iv.UopReduction),
			tracing.Float64("opt_share", iv.OptShare),
			tracing.Float64("squashes_per_kuop", iv.SquashesPerKuop),
			tracing.Float64("mpki", iv.MPKI),
			tracing.Uint64("committed", iv.Committed),
			tracing.Uint64("eliminated", iv.Eliminated),
			tracing.Uint64("cycles", iv.Cycles),
		).End()
		start, next = time.Now(), iv.Index+1
	}
}

// Session remembers the runs its experiments simulated, so a later
// experiment reuses a run instead of simulating it again: sccbench runs
// every figure in one session, and the baseline and full-SCC runs that
// figures 7 to 11 and the extension need are figure 6's. A session
// serves experiments run one after another and holds no lock. A nil
// *Session shares nothing and computes no keys.
type Session struct {
	runs map[runKey]*RunResult
}

// NewSession returns a session that holds no runs yet.
func NewSession() *Session { return &Session{runs: map[runKey]*RunResult{}} }

// runKey is a run's identity in a session: the identity that decides a
// result-cache hit, the ConfigHash of the workload and effective
// configuration, plus the options that add to a RunResult beyond it.
type runKey struct {
	configHash  string
	sampleEvery uint64
	journal     bool
}

func keyOf(cfg pipeline.Config, w workloads.Workload, opts Options) runKey {
	cfg.MaxUops = opts.maxUops(w)
	return runKey{obs.ConfigHash(w.Name, cfg), opts.SampleEvery, opts.Journal}
}

// Sweep reports how an experiment's grid ran: the scheduler telemetry of
// the runs it simulated, and how many of its cells reused a run of the
// session instead.
type Sweep struct {
	Timing *runner.Summary
	Reused int
}

// Summary renders the sweep as one line, the reused count appended when
// there is one.
func (s Sweep) Summary() string {
	if s.Reused == 0 {
		return s.Timing.String()
	}
	return fmt.Sprintf("%s; %d reused", s.Timing, s.Reused)
}

// grid runs every workload of opts under each configuration and returns
// the results as [configuration][workload]. A run the session holds is
// reused; the rest fan out across the pool as one sweep, submitted in
// [configuration][workload] order. On success the session records the
// new runs and every cell is handed to Options.OnResult in that order; a
// failed sweep records nothing.
func (s *Session) grid(opts Options, cfgs ...pipeline.Config) ([][]*RunResult, Sweep, error) {
	ws := opts.workloads()
	cells := make([]*RunResult, len(cfgs)*len(ws))
	var jobs []runner.Job[*RunResult]
	var at []int      // the cell each job fills
	var keys []runKey // each job's run identity, with a session
	for ci, cfg := range cfgs {
		for wi, w := range ws {
			i := ci*len(ws) + wi
			if s != nil {
				k := keyOf(cfg, w, opts)
				if r, ok := s.runs[k]; ok {
					cells[i] = r
					continue
				}
				keys = append(keys, k)
			}
			jobs = append(jobs, runner.Job[*RunResult]{
				Name: w.Name,
				Run: func(ctx context.Context) (*RunResult, error) {
					return measure(ctx, cfg, w, opts)
				},
			})
			at = append(at, i)
		}
	}
	results, sum, err := runner.Run(opts.ctx(), opts.runnerConfig(), jobs)
	sw := Sweep{Timing: sum, Reused: len(cells) - len(jobs)}
	if err != nil {
		return nil, sw, err
	}
	for j, r := range results {
		cells[at[j]] = r
		if s != nil {
			s.runs[keys[j]] = r
		}
	}
	if opts.OnResult != nil {
		for i, r := range cells {
			opts.OnResult(i, r)
		}
	}
	g := make([][]*RunResult, len(cfgs))
	for ci := range g {
		g[ci] = cells[ci*len(ws) : (ci+1)*len(ws)]
	}
	return g, sw, nil
}

// RunOne executes one workload under one configuration and returns the
// measurement. Even the single-run path goes through the scheduler so it
// shares the same fault isolation (a panicking simulation reports an
// error instead of crashing the caller).
func RunOne(cfg pipeline.Config, w workloads.Workload, opts Options) (*RunResult, error) {
	opts.Workloads = []workloads.Workload{w}
	g, _, err := (*Session)(nil).grid(opts, cfg)
	if err != nil {
		return nil, err
	}
	return g[0][0], nil
}
