package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
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

// TestRetryAfterFromRunMean pins the Retry-After estimate to the mean
// of every simulated run's wall time, which the
// sccserve_run_wall_seconds histogram records: ⌈mean × (queued+1) /
// workers⌉ seconds, clamped to 1..60.
func TestRetryAfterFromRunMean(t *testing.T) {
	sec := func(s ...float64) []time.Duration {
		var ds []time.Duration
		for _, x := range s {
			ds = append(ds, time.Duration(x*float64(time.Second)))
		}
		return ds
	}
	cases := []struct {
		runs            []time.Duration
		queued, workers int
		want            int
	}{
		{nil, 0, 1, 1},             // no simulated run yet
		{sec(3, 5), 0, 2, 2},       // 4 × 1 / 2
		{sec(3, 5), 2, 4, 3},       // 4 × 3 / 4
		{sec(1, 2), 1, 2, 2},       // 1.5 × 2 / 2 = 1.5, rounded up
		{sec(2.0005), 0, 1, 3},     // a ceiling, not a round-up past 0.001
		{sec(0.1), 0, 1, 1},        // 0.1, raised to the floor
		{sec(50, 70), 3, 2, 60},    // 60 × 4 / 2 = 120, capped
		{sec(1, 1, 1, 9), 1, 1, 6}, // the mean of all runs, not the last
	}
	for _, c := range cases {
		s := &Server{cfg: Config{Workers: c.workers}, queue: make(chan *job, 4)}
		s.initMetrics()
		for _, d := range c.runs {
			s.met.observeRun(d)
		}
		for i := 0; i < c.queued; i++ {
			s.queue <- nil
		}
		if got := s.retryAfter(); got != c.want {
			t.Errorf("runs %v, %d queued, %d workers: Retry-After %d, want %d",
				c.runs, c.queued, c.workers, got, c.want)
		}
	}
}

// TestObserveLatencyConcurrent hammers the latency histogram from many
// goroutines while they also scrape the registry — meaningful under
// -race (make check runs the suite with it). The histogram keeps every
// observation: it never evicts.
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
					telemetry.WritePrometheus(io.Discard, m.reg) // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	if c := m.latency.Count(); c != goroutines*per {
		t.Errorf("histogram count = %d, want %d", c, goroutines*per)
	}
}

// TestMetricsExposition pins the /metrics.prom contract a scraper relies
// on: the Prometheus content type, a document ParseExposition accepts,
// a series for every job counter, pool gauge and process-wide
// instrument, and counters that never decrease across two scrapes with
// a job between them.
func TestMetricsExposition(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	scrape := func() *telemetry.Exposition {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics.prom")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d: %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
			t.Errorf("content type %q, want %q", ct, telemetry.PrometheusContentType)
		}
		exp, err := telemetry.ParseExposition(raw)
		if err != nil {
			t.Fatalf("exposition does not validate: %v", err)
		}
		return exp
	}
	submit := func() {
		t.Helper()
		st, code := postJob(t, ts, `{"workload":"mcf","max_uops":5000,"wait":true}`)
		if code != http.StatusOK || st.State != string(StateDone) {
			t.Fatalf("submit: code %d state %+v", code, st)
		}
	}

	submit()
	first := scrape()
	for _, name := range []string{
		"sccserve_jobs_submitted_total", "sccserve_jobs_completed_total",
		"sccserve_jobs_failed_total", "sccserve_jobs_canceled_total",
		"sccserve_jobs_rejected_total", "sccserve_cache_hits_total",
		"sccserve_cache_misses_total", "sccserve_http_requests_total",
		"sccserve_jobs_in_flight", "sccserve_queue_depth",
		"sccserve_queue_capacity", "sccserve_workers",
		"sccserve_uptime_seconds", "sccserve_draining",
		"sccserve_job_latency_seconds_count", "sccserve_run_wall_seconds_count",
		"sccserve_compare_total", "telemetry_flight_dropped_total",
		"runner_jobs_completed_total", "process_uptime_seconds",
		"snapshot_hits_total", "snapshot_misses_total",
		"snapshot_bytes_written_total", "snapshot_evictions_total",
	} {
		if _, ok := first.Samples[name]; !ok {
			t.Errorf("series %s missing from the exposition", name)
		}
	}
	if up := first.Samples["sccserve_uptime_seconds"]; up <= 0 {
		t.Errorf("sccserve_uptime_seconds = %v, want > 0", up)
	}

	submit() // a cache hit between the scrapes
	second := scrape()
	for series, v1 := range first.Samples {
		if !strings.HasSuffix(series, "_total") && !strings.Contains(series, "_count") {
			continue
		}
		v2, ok := second.Samples[series]
		if !ok {
			t.Errorf("counter %s vanished between scrapes", series)
		} else if v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if second.Samples["sccserve_http_requests_total"] <= first.Samples["sccserve_http_requests_total"] {
		t.Error("sccserve_http_requests_total did not advance across scrapes")
	}
	// The job counters show the cold run and its cache hit.
	for name, want := range map[string]float64{
		"sccserve_jobs_completed_total": 2,
		"sccserve_cache_hits_total":     1,
		"sccserve_cache_misses_total":   1,
	} {
		if got := second.Samples[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
