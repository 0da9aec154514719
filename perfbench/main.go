// Command perfbench is the host-time benchmark of the simulator. It runs
// one workload from a seed for a fixed time, checks every output against
// the serial reference path, and prints one JSON result line:
//
//	perfbench --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the first half of the time is measured
// untraced and the second half traced, and the result carries the
// per-layer metrics: self time of the spans around each layer call, a
// component replay over recorded functional streams, and the tracing
// overhead (traced wall versus untraced wall). README.md explains the
// workloads and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

// workload is one benchmark workload. A value is built from the seed
// and is driven as setUp, reference, then one or more timed phases.
type workload interface {
	// setUp builds what a timed phase needs (programs, server, stores)
	// and runs one untimed warm-up operation. It may be called again
	// after tearDown.
	setUp() error
	// reference computes the serial reference outputs the timed phases
	// are checked against. It runs once, untimed.
	reference() error
	// measure runs operations until deadline, checks each one, and
	// records latencies, work and spans into rec.
	measure(deadline time.Time, traced bool, rec *recorder)
	// digests returns a digest of every reference output, keyed by what
	// produced it, for the check against the committed digests.
	digests() digestSet
	// kernels lists the simulator kernels and configurations the
	// workload runs, for the component replay.
	kernels() []replayTarget
	tearDown()
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig6-sweep | simpoint-snapshot | serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	record := flag.Bool("record-digests", false, "rewrite the digest file from this run's reference outputs instead of checking against it")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	work, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	var w workload
	switch *name {
	case "fig6-sweep":
		w = newFig6(*seed)
	case "simpoint-snapshot":
		w = newSimpoint(*seed, work)
	case "serve-mixed":
		w = newServe(*seed, work, time.Duration(*seconds)*time.Second)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := bench(w, *name, work, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dpath := filepath.Join(benchDir(), "testdata", "digests.json")
	if *record {
		if err := res.digests.write(dpath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else if bad, err := res.digests.check(dpath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	} else if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d reference outputs differ from the committed digests\n", bad)
		res.out.Correct = false
		res.out.Failed += bad
	}
	res.printDetail(os.Stdout)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workDir makes the scratch directory for stores and caches inside the
// build directory of the checkout, so the benchmark writes nowhere else.
func workDir() (string, error) {
	base := os.Getenv("PERFBENCH_BUILD_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "work-*")
}

// benchDir is the benchmark's own directory, which the launcher names in
// PERFBENCH_DIR; without it, the current directory.
func benchDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return "."
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the result line plus the human-readable detail that
// precedes it: each per-layer timing with its call count and each ratio
// with its base.
type benchResult struct {
	out     output
	detail  []string
	digests digestSet
}

func (r *benchResult) set(name, unit string, v float64) {
	r.out.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *benchResult) note(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// layer sets a per-layer metric and notes it with its call count or
// ratio base.
func (r *benchResult) layer(name, unit string, v float64, detail string) {
	r.set(name, unit, v)
	r.note("layer %-28s %14.4f %-6s %s", name, v, unit, detail)
}

func (r *benchResult) printDetail(f *os.File) {
	for _, d := range r.detail {
		fmt.Fprintln(f, d)
	}
}

// bench drives one workload: set-up (repeated, median reported), the
// reference, the untraced timed phase, and for traced runs the traced
// phase, the component replay and the serving-tier probe.
func bench(w workload, name, work string, seed int64, dur time.Duration, traced bool) (*benchResult, error) {
	res := &benchResult{out: output{Metrics: map[string]metric{}}}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	plain := newRecorder()
	untracedDur := dur
	if traced {
		untracedDur = dur / 2
	}
	heap := startHeapSampler()
	t0 := time.Now()
	w.measure(t0.Add(untracedDur), false, plain)
	wall := time.Since(t0)
	peakHeap, allocated := heap.stop()

	res.out.Attempted = plain.attempted
	res.out.Failed = plain.failed
	res.digests = w.digests()
	res.note("workload %s: %d operations, %d failed, %.3f s", name, plain.attempted, plain.failed, wall.Seconds())
	if !traced {
		lat := plain.latencies
		p50 := median(lat)
		tail, pct := tailValue(lat)
		res.set("setup_s", "s", median(setups))
		res.set("alloc_mb_per_op", "MiB", allocated/(1<<20)/float64(max(len(lat), 1)))
		res.set("p50_ms", "ms", p50)
		res.set("tail_ms", "ms", tail)
		res.set("uops_per_s", "uops/s", float64(plain.uops)/plain.busy.Seconds())
		res.note("p50_ms over %d operations; tail_ms is p%.2f (%d samples beyond it)", len(lat), pct, tailBeyond)
		res.note("peak in-use heap %.1f MiB; %.1f MiB allocated in the timed phase", peakHeap/(1<<20), allocated/(1<<20))
		for _, d := range plain.detail {
			res.note("%s", d)
		}
	} else {
		tr := newRecorder()
		w.measure(time.Now().Add(dur-untracedDur), true, tr)
		res.out.Attempted += tr.attempted
		res.out.Failed += tr.failed

		plainMean, tracedMean := mean(plain.latencies), mean(tr.latencies)
		res.layer("tracing.overhead_pct", "%", 100*(tracedMean/plainMean-1),
			fmt.Sprintf("mean operation latency %.3f ms traced (%d ops) vs %.3f ms untraced (%d ops)",
				tracedMean, len(tr.latencies), plainMean, len(plain.latencies)))
		reportSpans(res, tr)
		if err := replay(work, w.kernels(), res); err != nil {
			return nil, fmt.Errorf("component replay: %w", err)
		}
		if err := checkPerLayer(res); err != nil {
			return nil, err
		}
		if err := serveProbe(res, work, seed); err != nil {
			return nil, fmt.Errorf("serving-tier probe: %w", err)
		}
	}
	res.out.Correct = res.out.Failed == 0
	return res, nil
}

// recorder accumulates one timed phase.
type recorder struct {
	attempted int
	failed    int
	latencies []float64     // ms, one per operation that passed its check
	busy      time.Duration // wall time of those operations
	uops      uint64        // simulated uops those operations produced
	spans     []spanRec     // traced phases only
	detail    []string      // workload-specific lines for the report
	// counters holds workload-specific per-layer counts (calls, hits,
	// time totals) that the traced report turns into metrics.
	counters map[string]float64
}

func newRecorder() *recorder {
	return &recorder{counters: map[string]float64{}}
}

// fail records a failed operation with its cause.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// heapSampler tracks the peak in-use heap while a phase runs, and the
// bytes the phase allocated.
type heapSampler struct {
	stopc  chan struct{}
	done   chan float64
	alloc0 uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64), alloc0: allocBytes()}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-h.stopc:
				h.done <- float64(peak)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop returns the peak in-use heap and the bytes allocated since start.
func (h *heapSampler) stop() (peak, allocated float64) {
	close(h.stopc)
	peak = <-h.done
	return peak, float64(allocBytes() - h.alloc0)
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
