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

// TestRunRingWraparound covers the run-phase ring the Retry-After
// estimate reads: bounded, and the mean reflects only recent samples.
func TestRunRingWraparound(t *testing.T) {
	s := newTestServer(t)
	m := &s.met
	// Fill the window with 10s samples, then overwrite it entirely with
	// 1s samples: the mean must forget the old regime.
	for i := 0; i < runWindow; i++ {
		m.observeRun(10 * time.Second)
	}
	for i := 0; i < runWindow; i++ {
		m.observeRun(1 * time.Second)
	}
	if mean := m.meanRunSeconds(); mean != 1 {
		t.Errorf("mean run seconds = %v after full overwrite, want 1", mean)
	}
	m.mu.Lock()
	n := len(m.runSecs)
	m.mu.Unlock()
	if n != runWindow {
		t.Errorf("run ring length = %d, want %d", n, runWindow)
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
