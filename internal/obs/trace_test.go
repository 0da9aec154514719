package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// traceEvent is one decoded Chrome trace event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// start and end are in whole nanoseconds, the precision the trace
// carries, so containment compares exactly.
func (e traceEvent) start() int64 { return int64(math.Round(e.TS * 1e3)) }
func (e traceEvent) end() int64   { return e.start() + int64(math.Round(e.Dur*1e3)) }

// within reports whether e lies on outer's lane inside outer.
func (e traceEvent) within(outer traceEvent) bool {
	return e.PID == outer.PID && e.TID == outer.TID &&
		outer.start() <= e.start() && e.end() <= outer.end()
}

func decodeTrace(t *testing.T, tr *obs.Trace) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	return f.TraceEvents
}

// checkLanes asserts the rules Perfetto needs to draw a trace: every
// pid and every lane holding slices is named, and no lane holds two
// slices that overlap without one containing the other. It returns the
// X slices.
func checkLanes(t *testing.T, evs []traceEvent) []traceEvent {
	t.Helper()
	procs := map[int]bool{}
	threads := map[[2]int]bool{}
	lanes := map[[2]int][]traceEvent{}
	var slices []traceEvent
	for _, e := range evs {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procs[e.PID] = true
		case e.Ph == "M" && e.Name == "thread_name":
			threads[[2]int{e.PID, e.TID}] = true
		case e.Ph == "X":
			lanes[[2]int{e.PID, e.TID}] = append(lanes[[2]int{e.PID, e.TID}], e)
			slices = append(slices, e)
		default:
			t.Errorf("unexpected event %+v", e)
		}
	}
	for lane, ls := range lanes {
		if !procs[lane[0]] {
			t.Errorf("pid %d has no process_name", lane[0])
		}
		if !threads[lane] {
			t.Errorf("lane %v has no thread_name", lane)
		}
		sort.SliceStable(ls, func(i, j int) bool {
			if ls[i].start() != ls[j].start() {
				return ls[i].start() < ls[j].start()
			}
			return ls[i].end() > ls[j].end()
		})
		var open []traceEvent // enclosing slices, innermost last
		for _, e := range ls {
			for len(open) > 0 && open[len(open)-1].end() <= e.start() {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && e.end() > open[n-1].end() {
				t.Errorf("lane %v: %q [%d, %d] overlaps %q [%d, %d] without nesting",
					lane, e.Name, e.start(), e.end(), open[n-1].Name, open[n-1].start(), open[n-1].end())
			}
			open = append(open, e)
		}
	}
	return slices
}

// pinnedSpans finishes tr and sets each span's extent to the
// millisecond offsets from a fixed base that pin gives by span name.
func pinnedSpans(tr *tracing.Tracer, pin map[string][2]int) []tracing.SpanData {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Finish()
	spans := tr.Spans()
	for i := range spans {
		p := pin[spans[i].Name]
		spans[i].Start = base.Add(time.Duration(p[0]) * time.Millisecond)
		spans[i].End = base.Add(time.Duration(p[1]) * time.Millisecond)
	}
	return spans
}

func byName(slices []traceEvent) map[string]traceEvent {
	m := map[string]traceEvent{}
	for _, e := range slices {
		m[e.Name] = e
	}
	return m
}

// TestTraceShape pins the rendering of a span tree: each root becomes a
// named process on the first lane, its children are packed onto the
// fewest lanes on which slices only nest (a child may start where
// another ended), and timestamps count from the earliest span, so two
// sweeps lie one after the other.
func TestTraceShape(t *testing.T) {
	tr := tracing.New(tracing.MintTraceID())
	a := tr.StartSpan("sweep:a", tracing.SpanID{})
	c1 := tr.StartSpan("c1", a.SpanID())
	tr.StartSpan("g1", c1.SpanID())
	for _, name := range []string{"c2", "c3", "c4"} {
		tr.StartSpan(name, a.SpanID())
	}
	b := tr.StartSpan("sweep:b", tracing.SpanID{})
	tr.StartSpan("d1", b.SpanID())
	spans := pinnedSpans(tr, map[string][2]int{
		"sweep:a": {0, 100}, "c1": {1, 50}, "g1": {10, 20}, "c2": {2, 30},
		"c3": {31, 60}, "c4": {50, 90}, "sweep:b": {100, 200}, "d1": {110, 190},
	})

	evs := decodeTrace(t, obs.NewTrace(spans))
	s := byName(checkLanes(t, evs))
	procs := map[int]string{}
	lanes := map[int]int{}
	for _, e := range evs {
		switch e.Name {
		case "process_name":
			procs[e.PID] = e.Args["name"].(string)
		case "thread_name":
			lanes[e.PID]++
		}
	}
	pa, pb := s["sweep:a"].PID, s["sweep:b"].PID
	if pa == pb || procs[pa] != "sweep:a" || procs[pb] != "sweep:b" {
		t.Errorf("processes %v: want one named after each root", procs)
	}
	if lanes[pa] != 2 || lanes[pb] != 1 {
		t.Errorf("lanes per process %v, want 2 for sweep:a (two children overlap at most) and 1 for sweep:b", lanes)
	}
	if s["sweep:a"].TS != 0 || s["sweep:b"].TS != 100_000 || s["sweep:b"].Dur != 100_000 {
		t.Errorf("sweep:a at ts=%v, sweep:b at ts=%v dur=%v; want 0, 100000 and 100000 µs",
			s["sweep:a"].TS, s["sweep:b"].TS, s["sweep:b"].Dur)
	}
	for _, c := range []string{"c1", "c2", "c3", "c4", "g1"} {
		if s[c].PID != pa {
			t.Errorf("%s in pid %d, want sweep:a's %d", c, s[c].PID, pa)
		}
	}
	if s["c1"].TID != s["c4"].TID || s["c2"].TID != s["c3"].TID || s["c1"].TID == s["c2"].TID {
		t.Errorf("lanes c1=%d c2=%d c3=%d c4=%d: want c1 and c4 on one lane, c2 and c3 on the other",
			s["c1"].TID, s["c2"].TID, s["c3"].TID, s["c4"].TID)
	}
}

// TestTraceSpanLane: a descendant rides its top-level ancestor's lane,
// and every slice carries its span's attributes and ids as args.
func TestTraceSpanLane(t *testing.T) {
	tr := tracing.New(tracing.MintTraceID())
	root := tr.StartSpan("sccsim", tracing.SpanID{}, tracing.String("workload", "mcf"))
	run := tr.StartSpan("harness.run", root.SpanID())
	sim := tr.StartSpan("harness.simulate", run.SpanID(), tracing.Uint64("cycles", 42))
	spans := pinnedSpans(tr, map[string][2]int{
		"sccsim": {0, 10}, "harness.run": {2, 6}, "harness.simulate": {3, 5},
	})

	s := byName(checkLanes(t, decodeTrace(t, obs.NewTrace(spans))))
	if got := s["harness.simulate"]; !got.within(s["harness.run"]) {
		t.Errorf("harness.simulate at pid %d tid %d [%d, %d] not inside harness.run at pid %d tid %d [%d, %d]",
			got.PID, got.TID, got.start(), got.end(),
			s["harness.run"].PID, s["harness.run"].TID, s["harness.run"].start(), s["harness.run"].end())
	}
	if r := s["harness.run"]; r.TS != 2000 || r.Dur != 4000 {
		t.Errorf("harness.run at ts=%v dur=%v, want 2000/4000 µs", r.TS, r.Dur)
	}
	args := s["harness.simulate"].Args
	for k, want := range map[string]any{
		"trace_id":  tr.TraceID().String(),
		"span_id":   sim.SpanID().String(),
		"parent_id": run.SpanID().String(),
		"cycles":    float64(42),
	} {
		if args[k] != want {
			t.Errorf("harness.simulate arg %s = %v, want %v", k, args[k], want)
		}
	}
	if s["sccsim"].Args["workload"] != "mcf" || s["sccsim"].Cat != "span" {
		t.Errorf("root slice cat %q args %v", s["sccsim"].Cat, s["sccsim"].Args)
	}
	if _, ok := s["sccsim"].Args["parent_id"]; ok {
		t.Error("root slice carries a parent_id")
	}
}

// TestTraceEncodeFormat: the encoded file is the catapult JSON object —
// a traceEvents array plus displayTimeUnit — and parses back.
func TestTraceEncodeFormat(t *testing.T) {
	tr := tracing.New(tracing.MintTraceID())
	tr.StartSpan("harness.run", tr.StartSpan("sccsim", tracing.SpanID{}).SpanID())
	tr.Finish()
	var buf bytes.Buffer
	if err := obs.NewTrace(tr.Spans()).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents     []map[string]any  `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", decoded.DisplayTimeUnit)
	}
	// process_name, thread_name, and one slice per span.
	if len(decoded.TraceEvents) != 4 {
		t.Errorf("encoded %d events, want 4", len(decoded.TraceEvents))
	}
	if decoded.OtherData["sim_version"] != obs.Version {
		t.Errorf("otherData sim_version %q", decoded.OtherData["sim_version"])
	}

	// An empty trace still encodes a valid (loadable) file: traceEvents
	// must be [], not null.
	buf.Reset()
	if err := obs.NewTrace(nil).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents": []`) {
		t.Errorf("empty trace encodes as %s", buf.String())
	}
}

// TestTraceErrorCategory: a failed span keeps its slice but switches
// category and carries the error message, so it is filterable in the
// viewer.
func TestTraceErrorCategory(t *testing.T) {
	tr := tracing.New(tracing.MintTraceID())
	root := tr.StartSpan("sweep:fig6", tracing.SpanID{})
	tr.StartSpan("harness.run", root.SpanID()).SetError("sim exploded")
	tr.Finish()
	s := byName(checkLanes(t, decodeTrace(t, obs.NewTrace(tr.Spans()))))
	if e := s["harness.run"]; e.Cat != "span,error" || e.Args["error"] != "sim exploded" {
		t.Errorf("failed span cat %q, error arg %v", e.Cat, e.Args["error"])
	}
	if e := s["sweep:fig6"]; e.Cat != "span" || e.Args["error"] != nil {
		t.Errorf("healthy span cat %q, error arg %v", e.Cat, e.Args["error"])
	}
}

// TestTraceIntervalNesting renders a traced, sampled Parallel: 4 fig6
// sweep of three kernels: one process for the sweep, its 18 runs on at
// most 4 lanes that only nest, and every run's phases and sampling
// windows inside the run on its lane, the windows inside
// harness.simulate.
func TestTraceIntervalNesting(t *testing.T) {
	var ws []workloads.Workload
	for _, name := range []string{"xalancbmk", "mcf", "lbm"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s not found", name)
		}
		ws = append(ws, w)
	}
	tr := tracing.New(tracing.MintTraceID())
	root := tr.StartSpan("sweep:fig6", tracing.SpanID{})
	samples := 0
	_, err := harness.Fig6Run(harness.Options{
		Ctx:       tracing.NewContext(context.Background(), tr, root),
		Workloads: ws, MaxUops: 12_000, SampleEvery: 5_000, Parallel: 4,
		OnResult: func(_ int, r *harness.RunResult) { samples += len(r.Samples) },
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	tr.Finish()

	evs := decodeTrace(t, obs.NewTrace(tr.Spans()))
	slices := checkLanes(t, evs)
	var procs int
	for _, e := range evs {
		if e.Name == "process_name" {
			procs++
		}
	}
	if procs != 1 {
		t.Errorf("%d processes, want 1 for the one sweep", procs)
	}
	var runs, sims []traceEvent
	lanes := map[int]bool{}
	for _, e := range slices {
		switch e.Name {
		case "harness.run":
			runs = append(runs, e)
			lanes[e.TID] = true
		case "harness.simulate":
			sims = append(sims, e)
		}
	}
	if len(runs) != 18 || len(lanes) > 4 {
		t.Errorf("%d harness.run slices on %d lanes, want 18 on at most 4", len(runs), len(lanes))
	}
	inside := func(e traceEvent, outer []traceEvent) bool {
		for _, o := range outer {
			if e.within(o) {
				return true
			}
		}
		return false
	}
	windows := 0
	for _, e := range slices {
		switch e.Name {
		case "sweep:fig6", "harness.run":
		case "sample.interval":
			windows++
			if !inside(e, sims) {
				t.Errorf("sample.interval at tid %d [%d, %d] lies in no harness.simulate on its lane", e.TID, e.start(), e.end())
			}
		default:
			if !inside(e, runs) {
				t.Errorf("%s at tid %d [%d, %d] lies in no harness.run on its lane", e.Name, e.TID, e.start(), e.end())
			}
		}
	}
	if windows != samples {
		t.Errorf("%d sample.interval slices, want one per manifest sample (%d)", windows, samples)
	}
}
