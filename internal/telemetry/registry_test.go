package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestRegisterIsGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h")
	b := r.Counter("test_total", "h")
	if a != b {
		t.Error("re-registering the same counter returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering an existing name as a different type did not panic")
		}
	}()
	r.Gauge("test_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("9bad name", "h")
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 55.65; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	// Cumulative buckets: <=0.1 holds 2 (0.05 and the boundary 0.1),
	// <=1 holds 3, <=10 holds 4, +Inf holds all 5.
	for series, want := range map[string]float64{
		`test_seconds_bucket{le="0.1"}`:  2,
		`test_seconds_bucket{le="1"}`:    3,
		`test_seconds_bucket{le="10"}`:   4,
		`test_seconds_bucket{le="+Inf"}`: 5,
		"test_seconds_count":             5,
	} {
		if snap[series] != want {
			t.Errorf("%s = %v, want %v", series, snap[series], want)
		}
	}
}

func TestGaugeFuncSuppression(t *testing.T) {
	r := NewRegistry()
	ok := false
	v := 0.0
	r.GaugeFunc("test_p99", "p99", func() (float64, bool) { return v, ok })

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "test_p99") {
		t.Errorf("suppressed gauge leaked into exposition:\n%s", buf.String())
	}

	ok, v = true, 42
	buf.Reset()
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_p99 42\n") {
		t.Errorf("gauge missing after samples exist:\n%s", buf.String())
	}
}

// TestCounterFunc: a computed counter renders with counter TYPE and
// tracks its callback across scrapes.
func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.CounterFunc("test_dropped_total", "drops", func() float64 { return v })

	render := func() string {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	if !strings.Contains(out, "# TYPE test_dropped_total counter") {
		t.Errorf("computed counter not typed as counter:\n%s", out)
	}
	if !strings.Contains(out, "test_dropped_total 3\n") {
		t.Errorf("computed counter value missing:\n%s", out)
	}
	v = 8
	if out := render(); !strings.Contains(out, "test_dropped_total 8\n") {
		t.Errorf("computed counter did not advance:\n%s", out)
	}
}

// TestHistogramExemplarRaceLatestWins: two goroutines hammer one bucket
// with distinct (value, trace) pairs. The winning exemplar must be one
// of the two written pairs with its value and trace id consistent —
// the whole *Exemplar swaps atomically, so a torn (value-from-A,
// trace-from-B) mix can never be observed. Run under -race via
// `make check`.
func TestHistogramExemplarRaceLatestWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("race_exemplar_seconds", "h", nil)
	// Both values land in the first bucket (bound 0.0005).
	pairs := map[string]float64{"trace-a": 0.0001, "trace-b": 0.0002}

	const perWriter = 10_000
	var writers sync.WaitGroup
	for traceID, v := range pairs {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				h.ObserveExemplar(v, traceID)
			}
		}()
	}
	// Concurrent reader: every snapshot mid-race, not just the final one,
	// must be an untorn pair.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ex := h.exemplars[0].Load(); ex != nil {
				checkExemplar(t, pairs, ex)
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone

	final := h.exemplars[0].Load()
	if final == nil {
		t.Fatal("no exemplar recorded")
	}
	checkExemplar(t, pairs, final)
	if want := int64(perWriter * len(pairs)); h.Count() != want {
		t.Fatalf("count = %d, want %d", h.Count(), want)
	}
}

func checkExemplar(t *testing.T, pairs map[string]float64, ex *Exemplar) {
	t.Helper()
	id := ex.Labels["trace_id"]
	want, ok := pairs[id]
	if !ok {
		t.Errorf("exemplar trace_id %q is neither writer's", id)
		return
	}
	if ex.Value != want {
		t.Errorf("torn exemplar: trace_id %q carries value %v, want %v", id, ex.Value, want)
	}
}

func TestConcurrentInstrumentsRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "h")
	g := r.Gauge("race_gauge", "h")
	h := r.Histogram("race_seconds", "h", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counter=%d gauge=%v histogram=%d, want 8000 each",
			c.Value(), g.Value(), h.Count())
	}
}
