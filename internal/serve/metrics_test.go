package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sccsim/internal/telemetry"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(s.Close)
	return s
}

// TestLatencyRingWraparound drives the sliding window past latencyWindow
// and checks that it stays bounded and evicts oldest-first: after the
// wrap, only the most recent latencyWindow samples shape the
// percentiles.
func TestLatencyRingWraparound(t *testing.T) {
	s := newTestServer(t)
	m := &s.met
	total := latencyWindow + 100
	for i := 0; i < total; i++ {
		// Strictly increasing latencies: sample i is (i+1) ms.
		m.observeLatency(time.Duration(i+1)*time.Millisecond, "")
	}
	m.mu.Lock()
	n := len(m.latMS)
	var minMS, maxMS = m.latMS[0], m.latMS[0]
	for _, v := range m.latMS {
		if v < minMS {
			minMS = v
		}
		if v > maxMS {
			maxMS = v
		}
	}
	m.mu.Unlock()
	if n != latencyWindow {
		t.Fatalf("ring length = %d, want bounded at %d", n, latencyWindow)
	}
	// The first 100 samples (1..100 ms) must have been evicted in order;
	// the window holds exactly samples 101..total.
	if wantMin := float64(total - latencyWindow + 1); minMS != wantMin {
		t.Errorf("oldest surviving sample = %vms, want %vms (oldest-first eviction)", minMS, wantMin)
	}
	if maxMS != float64(total) {
		t.Errorf("newest sample = %vms, want %vms", maxMS, float64(total))
	}
	// The histogram keeps the full count — it never evicts.
	if c := m.latency.Count(); c != int64(total) {
		t.Errorf("histogram count = %d, want %d", c, total)
	}
	if p0, ok := m.latencyPercentile(0); !ok || p0 != float64(total-latencyWindow+1) {
		t.Errorf("p0 = %v (ok=%v), want window minimum", p0, ok)
	}
}

// TestRunRingWraparound covers the run-phase ring the Retry-After
// estimate reads: bounded, and the mean reflects only recent samples.
func TestRunRingWraparound(t *testing.T) {
	s := newTestServer(t)
	m := &s.met
	// Fill the window with 10s samples, then overwrite it entirely with
	// 1s samples: the mean must forget the old regime.
	for i := 0; i < latencyWindow; i++ {
		m.observeRun(10 * time.Second)
	}
	for i := 0; i < latencyWindow; i++ {
		m.observeRun(1 * time.Second)
	}
	if mean := m.meanRunSeconds(); mean != 1 {
		t.Errorf("mean run seconds = %v after full overwrite, want 1", mean)
	}
	m.mu.Lock()
	n := len(m.runSecs)
	m.mu.Unlock()
	if n != latencyWindow {
		t.Errorf("run ring length = %d, want %d", n, latencyWindow)
	}
}

// TestObserveLatencyConcurrent hammers the ring from many goroutines —
// meaningful under -race (make check runs the suite with it).
func TestObserveLatencyConcurrent(t *testing.T) {
	s := newTestServer(t)
	m := &s.met
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.observeLatency(time.Duration(g*per+i)*time.Microsecond, "")
				if i%16 == 0 {
					m.latencyPercentile(99) // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	if c := m.latency.Count(); c != goroutines*per {
		t.Errorf("histogram count = %d, want %d", c, goroutines*per)
	}
	m.mu.Lock()
	n := len(m.latMS)
	m.mu.Unlock()
	if n != latencyWindow {
		t.Errorf("ring length = %d, want %d", n, latencyWindow)
	}
}

// TestMetricsPercentilesSuppressedWhenEmpty pins satellite behaviour: a
// server with no completed jobs omits the latency percentile series
// from the Prometheus exposition instead of reporting a misleading 0.
func TestMetricsPercentilesSuppressedWhenEmpty(t *testing.T) {
	s := newTestServer(t)
	scrape := func() *telemetry.Exposition {
		t.Helper()
		var prom strings.Builder
		if err := telemetry.WritePrometheus(&prom, s.met.reg); err != nil {
			t.Fatal(err)
		}
		exp, err := telemetry.ParseExposition([]byte(prom.String()))
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	exp := scrape()
	for _, name := range []string{"sccserve_job_latency_p50_milliseconds", "sccserve_job_latency_p99_milliseconds"} {
		if _, ok := exp.Samples[name]; ok {
			t.Errorf("suppressed percentile gauge %s appears in the exposition", name)
		}
	}

	// One sample flips both on.
	s.met.observeLatency(5*time.Millisecond, "")
	exp = scrape()
	if v, ok := exp.Samples["sccserve_job_latency_p50_milliseconds"]; !ok || v != 5 {
		t.Errorf("p50 after one 5ms sample = %v (present %v), want 5", v, ok)
	}
	if _, ok := exp.Samples["sccserve_job_latency_p99_milliseconds"]; !ok {
		t.Error("p99 gauge missing from the exposition after a sample")
	}
	if up := exp.Samples["sccserve_uptime_seconds"]; up <= 0 {
		t.Errorf("sccserve_uptime_seconds = %v, want > 0", up)
	}
}
