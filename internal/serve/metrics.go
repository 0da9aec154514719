package serve

import (
	"time"

	"sccsim/internal/telemetry"
)

// metrics is the service's instrument set, backed by a per-server
// telemetry.Registry so tests can run many servers without name
// collisions. The registry renders the /metrics.prom Prometheus
// exposition. End-to-end (submit → done) latency goes to a fixed-bucket
// histogram whose buckets carry trace-id exemplars; percentiles are a
// histogram_quantile query away. Retry-After estimates come from the
// run-phase histogram, which only simulated jobs feed, so near-zero
// cache hits cannot skew the queue-drain estimate.
type metrics struct {
	reg   *telemetry.Registry
	start time.Time

	inFlight    *telemetry.Gauge
	submitted   *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	canceled    *telemetry.Counter
	rejected    *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	httpReqs    *telemetry.Counter
	stalls      *telemetry.Counter
	compares    *telemetry.Counter
	latency     *telemetry.Histogram // end-to-end job latency, seconds
	runWall     *telemetry.Histogram // run-phase wall, seconds
}

// initMetrics registers the server's instruments. Called from New after
// the queue exists: the queue/drain gauges read live server state at
// scrape time instead of being written on every transition.
func (s *Server) initMetrics() {
	m := &s.met
	m.reg = telemetry.NewRegistry()
	m.start = time.Now()
	r := m.reg
	m.submitted = r.Counter("sccserve_jobs_submitted_total", "Job submissions accepted for processing (cache hits included).")
	m.completed = r.Counter("sccserve_jobs_completed_total", "Jobs that reached the done state.")
	m.failed = r.Counter("sccserve_jobs_failed_total", "Jobs that reached the failed state.")
	m.canceled = r.Counter("sccserve_jobs_canceled_total", "Jobs canceled before completion.")
	m.rejected = r.Counter("sccserve_jobs_rejected_total", "Submissions rejected with 429 (admission queue full).")
	m.cacheHits = r.Counter("sccserve_cache_hits_total", "Jobs answered from the ConfigHash result cache.")
	m.cacheMisses = r.Counter("sccserve_cache_misses_total", "Completed jobs that simulated (cache enabled, no entry).")
	m.httpReqs = r.Counter("sccserve_http_requests_total", "HTTP requests served (all endpoints).")
	m.stalls = r.Counter("sccserve_queue_stalls_total", "Jobs that waited longer than the stall threshold for a worker.")
	m.compares = r.Counter("sccserve_compare_total", "GET /v1/compare explanations attempted (all outcomes).")
	m.inFlight = r.Gauge("sccserve_jobs_in_flight", "Jobs currently occupying a worker slot.")
	m.latency = r.Histogram("sccserve_job_latency_seconds", "End-to-end job latency (submit to done).", nil)
	m.runWall = r.Histogram("sccserve_run_wall_seconds", "Run-phase wall time of simulated (non-cached) jobs.", nil)
	r.GaugeFunc("sccserve_queue_depth", "Jobs waiting in the admission queue.", func() (float64, bool) {
		return float64(len(s.queue)), true
	})
	r.GaugeFunc("sccserve_queue_capacity", "Admission queue capacity (Config.QueueDepth).", func() (float64, bool) {
		return float64(s.cfg.QueueDepth), true
	})
	r.GaugeFunc("sccserve_workers", "Simulation worker-pool size.", func() (float64, bool) {
		return float64(s.cfg.Workers), true
	})
	r.GaugeFunc("sccserve_uptime_seconds", "Seconds since the server started.", func() (float64, bool) {
		return time.Since(m.start).Seconds(), true
	})
	r.CounterFunc("telemetry_flight_dropped_total", "Flight-recorder events evicted from the ring (recorded minus retained).", func() float64 {
		return float64(s.flight.Dropped())
	})
	r.GaugeFunc("sccserve_draining", "1 while the server is draining, 0 otherwise.", func() (float64, bool) {
		if s.draining.Load() {
			return 1, true
		}
		return 0, true
	})
}

// observeLatency records one end-to-end latency with the job's trace id
// as the bucket's exemplar: a scrape showing a bad p99 bucket links
// straight to a trace that landed in it (GET /v1/jobs/{id}/trace — the
// JobStatus document maps trace ids back to jobs).
func (m *metrics) observeLatency(d time.Duration, traceID string) {
	m.latency.ObserveExemplar(d.Seconds(), traceID)
}

func (m *metrics) observeRun(d time.Duration) {
	m.runWall.Observe(d.Seconds())
}
