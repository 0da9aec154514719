package main

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// fig6Classes are the kernel classes the fig6-sweep draws one kernel
// from per sweep: a hot predictable loop, a memory-bound pointer chase,
// an FP kernel and a branchy one.
var fig6Classes = []workloads.Class{
	workloads.ClassPredictable, workloads.ClassMemory, workloads.ClassFP, workloads.ClassBranchy,
}

// fig6Parallel is the sweep's worker count. With both cores of a
// two-core machine busy, the same sweep's wall time varied by 25-30%
// between runs minutes apart; one worker keeps it within 6-8%. The
// parallel paths stay timed in simpoint-snapshot.
const fig6Parallel = 1

// fig6Sweep runs harness.Fig6Run over the six-level SCC ladder. One
// sweep covers every kernel of the four classes in a seeded order. The
// seed changes which jobs the two workers run side by side but not the
// work: drawing one kernel per class per sweep instead makes the work of
// a run depend on the seed by more than the metrics' bounds, because the
// memory-bound kernels differ fourfold in host time.
type fig6Sweep struct {
	order []workloads.Workload // seeded order

	// ref is the serial reference sweep (Parallel=1) over the same
	// kernels: Normalize'd manifest bytes per (kernel, level) and the
	// rendered fig6 table.
	ref   map[string][]byte
	table []byte
}

func newFig6(seed int64) *fig6Sweep {
	var ws []workloads.Workload
	for _, c := range fig6Classes {
		for _, w := range workloads.All() {
			if w.Class == c {
				ws = append(ws, w)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return &fig6Sweep{order: ws}
}

// setUp runs the warm-up sweep: the first sweeps of a process run about
// 30% slow, so one belongs in set-up. It sweeps the first kernel of each
// class in registry order, so set-up costs the same for every seed.
func (f *fig6Sweep) setUp() error {
	var ws []workloads.Workload
	for _, c := range fig6Classes {
		for _, w := range workloads.All() {
			if w.Class == c {
				ws = append(ws, w)
				break
			}
		}
	}
	_, err := harness.Fig6Run(harness.Options{Workloads: ws, Parallel: fig6Parallel})
	return err
}

func (f *fig6Sweep) tearDown() {}

func (f *fig6Sweep) reference() error {
	levels := scc.Levels()
	f.ref = map[string][]byte{}
	var encErr error
	ref, err := harness.Fig6Run(harness.Options{
		Workloads: f.order, Parallel: 1,
		OnResult: func(i int, r *harness.RunResult) {
			b, err := manifestBytes(r)
			if err != nil {
				encErr = err
			}
			f.ref[fig6Key(r.Workload, levels[i/len(f.order)])] = b
		},
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	f.table = fig6Table(ref)
	return nil
}

// fig6Table renders the three panels of Figure 6.
func fig6Table(f *harness.Fig6) []byte {
	var buf bytes.Buffer
	f.Write(&buf)
	return buf.Bytes()
}

func fig6Key(workload string, lv scc.Level) string {
	return "fig6/" + workload + "/" + lv.String()
}

// digests covers every run's manifest; the table depends on the seeded
// kernel order, so only its rows, through the manifests, are committed.
func (f *fig6Sweep) digests() digestSet {
	d := digestSet{}
	for k, b := range f.ref {
		d.add(k, b)
	}
	return d
}

// measure runs sweeps until deadline. An operation is one job of a
// sweep (one kernel at one level); its latency is the job's wall time.
func (f *fig6Sweep) measure(deadline time.Time, traced bool, rec *recorder) {
	levels := scc.Levels()
	ws := f.order
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	rec.detail = append(rec.detail, "fig6-sweep kernels in seeded order: "+strings.Join(names, ","))
	for time.Now().Before(deadline) {
		results := make([]*harness.RunResult, len(ws)*len(levels))
		opts := harness.Options{
			Workloads: ws, Parallel: fig6Parallel,
			OnResult: func(i int, r *harness.RunResult) { results[i] = r },
		}
		var tr *tracing.Tracer
		var root *tracing.Span
		if traced {
			tr = tracing.New(tracing.MintTraceID())
			root = tr.StartSpan("bench.sweep", tracing.SpanID{})
			opts.Ctx = tracing.NewContext(context.Background(), tr, root)
		}
		t0 := time.Now()
		fig, err := harness.Fig6Run(opts)
		wall := time.Since(t0)
		root.End()
		if err != nil {
			rec.attempted += len(results)
			rec.fail("fig6 sweep: %v", err)
			continue
		}
		rec.busy += wall
		sum := fig.Timing
		if traced {
			rec.spans = append(rec.spans, fromTracing(tr.Spans())...)
			var busy time.Duration
			for _, j := range sum.Jobs {
				busy += j.Wall
				rec.counters["runner.wait_ms"] += j.Start.Seconds() * 1e3
				rec.counters["runner.jobs"]++
			}
			rec.counters["runner.busy_s"] += busy.Seconds()
			rec.counters["runner.capacity_s"] += float64(sum.Workers) * sum.Wall.Seconds()
		}
		tableOK := bytes.Equal(fig6Table(fig), f.table)
		if !tableOK {
			rec.fail("fig6 table differs from the serial reference")
		}
		for i, r := range results {
			rec.attempted++
			key := fig6Key(ws[i%len(ws)].Name, levels[i/len(ws)])
			if r == nil {
				rec.fail("%s: no result", key)
				continue
			}
			if b, err := manifestBytes(r); err != nil || !bytes.Equal(b, f.ref[key]) {
				rec.fail("%s: manifest differs from the serial reference", key)
				continue
			}
			if !tableOK {
				continue
			}
			rec.latencies = append(rec.latencies, sum.Jobs[i].Wall.Seconds()*1e3)
			rec.uops += r.Stats.CommittedUops
		}
	}
}

func (f *fig6Sweep) kernels() []replayTarget {
	var cfgs []pipeline.Config
	for _, lv := range scc.Levels() {
		cfgs = append(cfgs, pipeline.IcelakeSCC(lv))
	}
	var out []replayTarget
	for _, w := range f.order {
		out = append(out, replayTarget{w: w, cfgs: cfgs})
	}
	return out
}

// manifestBytes renders a run the way the service and the CLIs publish
// it: the Normalize'd manifest's encoding.
func manifestBytes(r *harness.RunResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Manifest().Normalize().Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
