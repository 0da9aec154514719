// Package serve implements the HTTP simulation service (ROADMAP item:
// cmd/sccserve): an embeddable Server that accepts (workload,
// configuration) jobs over HTTP, schedules them on a bounded worker
// pool, streams progress over SSE, and serves repeated configurations
// out of the ConfigHash result cache in O(1) without re-simulating.
//
// The service is a thin tier over the existing libraries — scheduling
// goes through internal/harness (and therefore internal/runner), results
// are internal/obs manifests, admission is validated against
// internal/workloads — so a manifest fetched from the service is
// byte-identical (after Normalize) to one produced by harness.RunOne
// with the same inputs. This package's tests pin that invariant, cold,
// cached and under concurrent mixed-config load, along with the rest of
// the HTTP contract.
//
// Scale and overload behaviour:
//
//   - Admission queue is bounded (Config.QueueDepth). A submission that
//     arrives with the queue full is rejected immediately with
//     429 Too Many Requests plus a Retry-After estimate derived from
//     observed run times, instead of queuing unboundedly.
//   - Repeated configurations are served from the result cache at
//     admission time and never occupy a queue slot or a worker.
//   - A synchronous submission (wait=true) ties the job to the HTTP
//     request context: if the client disconnects mid-run the job is
//     cancelled and the worker slot is freed at once (the
//     non-interruptible simulation finishes detached and still warms
//     the cache).
//   - Drain stops admissions (503) while in-flight and queued jobs run
//     to completion, bounded by the caller's context.
//   - At most maxFinishedJobs terminal job records are kept; the
//     oldest-finished is evicted first and its id answers 404.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/stats"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// Defaults for zero-valued Config fields.
const (
	DefaultQueueDepth = 64
	DefaultMaxUopsCap = 5_000_000
)

// maxFinishedJobs bounds the terminal job records a server keeps: past
// it the oldest-finished record is evicted, and its id answers 404 on
// every /v1/jobs/{id} route. Queued and running jobs are never evicted.
const maxFinishedJobs = 1024

// stallThreshold is how long a dequeued job may have waited for a worker
// before the pickup is logged as a pool stall (queue backlog exceeds the
// pool's drain rate) and counted in sccserve_queue_stalls_total.
const stallThreshold = time.Second

// Config tunes the service.
type Config struct {
	// Workers is the simulation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	// Submissions beyond queued+running capacity get 429 + Retry-After.
	QueueDepth int
	// CacheDir enables the ConfigHash result cache: admissions probe it
	// read-through and finished runs write back, so a repeated
	// configuration is O(1). Empty disables caching.
	CacheDir string
	// MaxUopsCap rejects submissions whose effective work budget exceeds
	// this many micro-ops (0 = DefaultMaxUopsCap) so one request cannot
	// monopolize a worker indefinitely.
	MaxUopsCap uint64
	// Logger receives the service's structured events (access log,
	// admissions, 429s, job lifecycle). nil logs nowhere — but the flight
	// recorder below still captures everything at Info and above, so
	// /debug/flight works even on a silent server.
	Logger *slog.Logger
	// FlightCapacity sizes the always-on flight recorder ring
	// (0 = telemetry.DefaultFlightCapacity).
	FlightCapacity int
}

// RunFunc executes one admitted job. The default wraps harness.RunOne;
// tests replace it (SetRunFunc) to inject slow or context-aware
// synthetic workloads for backpressure, cancellation and drain coverage.
type RunFunc func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, opts harness.Options) (*harness.RunResult, error)

// Server is the embeddable simulation service; it implements
// http.Handler. Create with New, shut down with Drain and/or Close.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// baseCtx parents every job context; baseCancel aborts in-flight
	// work on Close or a timed-out Drain.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue   chan *job
	qmu     sync.RWMutex // guards queue sends against Close's close()
	closed  bool         // under qmu
	workers sync.WaitGroup
	pending sync.WaitGroup // queued + running jobs: the drain barrier

	draining atomic.Bool

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // ids of the terminal jobs in jobs, oldest-finished first
	seq      uint64

	met metrics

	// log fans out to the configured logger and the flight recorder; the
	// recorder keeps its own Info threshold, so the ring stays populated
	// even when Config.Logger is nil or filtered to Warn.
	log    *slog.Logger
	flight *telemetry.Recorder

	run RunFunc
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxUopsCap == 0 {
		cfg.MaxUopsCap = DefaultMaxUopsCap
	}
	if cfg.FlightCapacity <= 0 {
		cfg.FlightCapacity = telemetry.DefaultFlightCapacity
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
		flight:     telemetry.NewRecorder(cfg.FlightCapacity),
		run:        defaultRun,
	}
	if cfg.Logger != nil {
		s.log = slog.New(telemetry.Fanout(cfg.Logger.Handler(), s.flight))
	} else {
		s.log = slog.New(s.flight)
	}
	s.initMetrics()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// SetRunFunc replaces the job executor. Test seam only; call before the
// server receives traffic.
func (s *Server) SetRunFunc(fn RunFunc) { s.run = fn }

// Flight exposes the always-on flight recorder (the /debug/flight ring);
// cmd/sccserve dumps it on SIGQUIT.
func (s *Server) Flight() *telemetry.Recorder { return s.flight }

// Registry exposes the server's metric registry, e.g. to render the
// exposition alongside the process-wide registry in one scrape.
func (s *Server) Registry() *telemetry.Registry { return s.met.reg }

// ServeHTTP implements http.Handler. It is also the telemetry admission
// point: every request is counted, assigned a correlation ID (the
// caller's X-Request-Id if present, otherwise freshly minted), and
// access-logged with its status and duration. The ID is echoed in the
// response header and threaded through the job record into the harness
// and scheduler loggers, so one grep over the log stream reconstructs a
// request end to end.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.httpReqs.Inc()
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = telemetry.NewRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	r = r.WithContext(telemetry.WithRequestID(r.Context(), id))
	sw := &statusWriter{ResponseWriter: w}
	t0 := time.Now()
	s.mux.ServeHTTP(sw, r)
	level := slog.LevelInfo
	if quietPath(r.URL.Path) {
		// Scrapes and health probes arrive every few seconds; keep them
		// out of the Info stream (and the flight ring) unless debugging.
		level = slog.LevelDebug
	}
	attrs := []slog.Attr{
		slog.String(telemetry.RequestIDKey, id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status()),
		slog.Float64("duration_ms", time.Since(t0).Seconds()*1e3),
	}
	// Submissions echo their trace in the traceparent response header;
	// lift the trace id into the access log so the very first line of a
	// request already correlates with its span tree.
	if tid, _, ok := tracing.ParseTraceparent(w.Header().Get(tracing.TraceparentHeader)); ok {
		attrs = append(attrs, slog.String("trace_id", tid.String()))
	}
	s.log.LogAttrs(r.Context(), level, "http request", attrs...)
}

// quietPath marks the endpoints polled by machines (scrapers, health
// checks) whose access-log lines are demoted to Debug.
func quietPath(p string) bool {
	switch p {
	case "/healthz", "/metrics.prom", "/debug/flight":
		return true
	}
	return false
}

// statusWriter captures the response status for the access log. It
// forwards Flush so the SSE handler's http.Flusher assertion still
// holds through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Drain stops admissions (new submissions get 503, /healthz reports
// draining) and waits until every queued and in-flight job reaches a
// terminal state or ctx expires. On expiry the remaining jobs are
// aborted (their contexts cancelled, simulations detached) and ctx's
// error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "drain started")
	done := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "drain complete")
		return nil
	case <-ctx.Done():
		s.baseCancel()
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "drain timed out; aborting in-flight jobs")
		return ctx.Err()
	}
}

// Close aborts all in-flight work and stops the worker pool. Jobs still
// queued are finalized as canceled. Safe to call after Drain; the
// server must not receive further requests afterwards.
func (s *Server) Close() {
	s.draining.Store(true)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "server closing")
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		s.baseCancel()
		close(s.queue)
	}
	s.qmu.Unlock()
	s.workers.Wait()
}

// defaultRun executes a job through the harness (and therefore the
// runner scheduler: panic isolation for free). Machine.Run is not
// interruptible mid-simulation, so ctx is honoured by the caller, which
// detaches on cancellation; the detached run's cache write-back still
// lands.
func defaultRun(_ context.Context, w workloads.Workload, cfg pipeline.Config, opts harness.Options) (*harness.RunResult, error) {
	return harness.RunOne(cfg, w, opts)
}

// newJob allocates and registers a job record. requestID is the
// admission correlation ID; it rides on the record so the worker that
// eventually runs the job logs under the same ID the access log used.
// tr/root are the admission trace: the root span ends with the job's
// terminal transition.
func (s *Server) newJob(wl workloads.Workload, cfg pipeline.Config, hash string, sampleEvery uint64, requestID string, tr *tracing.Tracer, root *tracing.Span) *job {
	s.mu.Lock()
	s.seq++
	j := &job{
		id:          fmt.Sprintf("j%06d", s.seq),
		wl:          wl,
		cfg:         cfg,
		hash:        hash,
		sampleEvery: sampleEvery,
		requestID:   requestID,
		tr:          tr,
		root:        root,
		retire:      s.retire,
		submitted:   time.Now(),
		state:       StateQueued,
		update:      make(chan struct{}),
		done:        make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.append(eventState, stateEvent{State: string(StateQueued)})
	return j
}

// retire records a job's terminal transition and evicts the
// oldest-finished record once more than maxFinishedJobs are kept.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// enqueue admits a job into the bounded queue; false means the queue is
// full (or the server closed) and the caller must reject with 429.
func (s *Server) enqueue(j *job) bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob owns one worker slot for the lifetime of a dequeued job. On
// cancellation it frees the slot immediately: the non-interruptible
// simulation is left to finish detached (its result-cache write-back
// still warms the next lookup) while the worker moves on.
func (s *Server) runJob(j *job) {
	defer s.pending.Done()
	jlog := s.jobLogger(j)
	if wait := time.Since(j.submitted); wait > stallThreshold {
		// The job sat in the queue past the stall threshold before a
		// worker freed up — the signal that the pool is saturated.
		s.met.stalls.Inc()
		jlog.LogAttrs(context.Background(), slog.LevelWarn, "worker pool stall",
			slog.Float64("queue_wait_ms", wait.Seconds()*1e3),
			slog.Int("queue_depth", len(s.queue)),
			slog.Int("workers", s.cfg.Workers))
	}
	j.queueSpan.End() // worker pickup: the queue wait is over either way
	if s.baseCtx.Err() != nil || j.cancelRequested() {
		s.finishCanceled(j, jlog)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.begin(cancel) {
		s.finishCanceled(j, jlog)
		return
	}
	jlog.LogAttrs(context.Background(), slog.LevelDebug, "job running")
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	wspan := j.tr.StartSpan("worker.run", j.root.SpanID())
	opts := harness.Options{
		// The harness's span tree (harness.run → prepare/simulate/…) hangs
		// under the worker span. Cancellation is deliberately NOT carried:
		// a detached simulation still finishes and warms the cache, as
		// before tracing existed.
		Ctx:         tracing.NewContext(context.WithoutCancel(ctx), j.tr, wspan),
		MaxUops:     j.cfg.MaxUops,
		Parallel:    1,
		CacheDir:    s.cfg.CacheDir,
		SampleEvery: j.sampleEvery,
		// The harness binds workload + config_hash onto its run events
		// itself, so hand it the logger without the workload attr to
		// keep correlated lines free of duplicate keys.
		Logger: s.runLogger(j),
		Progress: func(e runner.ProgressEvent) {
			j.append(eventProgress, progressEvent{
				Done:      e.Done,
				Total:     e.Total,
				ElapsedMS: e.Elapsed.Seconds() * 1e3,
				Job:       e.Job.Name,
				WallMS:    e.Job.Wall.Seconds() * 1e3,
				Uops:      e.Job.Uops,
			})
		},
	}
	type outcome struct {
		res *harness.RunResult
		err error
	}
	ch := make(chan outcome, 1)
	t0 := time.Now()
	go func() {
		res, err := s.run(ctx, j.wl, j.cfg, opts)
		ch <- outcome{res, err}
	}()
	select {
	case out := <-ch:
		wspan.End()
		s.finishJob(j, out.res, out.err, time.Since(t0))
	case <-ctx.Done():
		go func() { <-ch }()      // reap the detached simulation
		s.finishCanceled(j, jlog) // tracer Finish sweeps the open worker span
	}
}

// jobLogger binds the job's identity onto the service logger — the same
// request_id the access log carried at admission.
func (s *Server) jobLogger(j *job) *slog.Logger {
	return s.runLogger(j).With(slog.String("workload", j.wl.Name))
}

// runLogger is jobLogger minus the workload attr — the shape handed to
// harness.Options.Logger, which binds workload/config_hash on its own.
// It binds the trace id next to the request id, so every slog line of
// the job — access log, scheduler events, harness lifecycle, SCC
// journal — carries the same trace_id the traceparent response header
// and /v1/jobs/{id}/trace expose.
func (s *Server) runLogger(j *job) *slog.Logger {
	l := s.log.With(
		slog.String(telemetry.RequestIDKey, j.requestID),
		slog.String("job", j.id))
	if j.tr != nil {
		l = l.With(slog.String("trace_id", j.tr.TraceID().String()))
	}
	return l
}

// finishCanceled finalizes a cancellation exactly once, with the metric
// and the lifecycle event.
func (s *Server) finishCanceled(j *job, jlog *slog.Logger) {
	if j.finishCanceled(s.met.canceled.Inc) {
		jlog.LogAttrs(context.Background(), slog.LevelInfo, "job canceled")
	}
}

// finishJob packages a completed run: normalized manifest bytes, interval
// events, terminal state, metrics.
func (s *Server) finishJob(j *job, res *harness.RunResult, err error, runWall time.Duration) {
	if err == nil && res == nil {
		err = fmt.Errorf("run returned no result")
	}
	if err != nil {
		if j.fail(err.Error(), s.met.failed.Inc) {
			s.jobLogger(j).LogAttrs(context.Background(), slog.LevelWarn, "job failed",
				slog.String("error", err.Error()))
		}
		return
	}
	fspan := j.tr.StartSpan("serve.finalize", j.root.SpanID())
	man, mErr := encodeManifest(res)
	fspan.End()
	if mErr != nil {
		if j.fail(mErr.Error(), s.met.failed.Inc) {
			s.jobLogger(j).LogAttrs(context.Background(), slog.LevelWarn, "job failed",
				slog.String("error", mErr.Error()))
		}
		return
	}
	var latency time.Duration
	if !j.complete(man, res, func() { latency = s.recordCompleted(j, res, runWall) }) {
		return
	}
	s.jobLogger(j).LogAttrs(context.Background(), slog.LevelInfo, "job done",
		slog.String("config_hash", j.hash[:12]),
		slog.Bool("from_cache", res.FromCache),
		slog.Float64("latency_ms", latency.Seconds()*1e3))
}

// recordCompleted counts a completed job — completion, cache hit or
// miss, run time for a simulated result, latency with the job's trace
// id as exemplar — and returns the latency it recorded.
func (s *Server) recordCompleted(j *job, res *harness.RunResult, runWall time.Duration) time.Duration {
	s.met.completed.Inc()
	if s.cfg.CacheDir != "" {
		if res.FromCache {
			s.met.cacheHits.Inc()
		} else {
			s.met.cacheMisses.Inc()
		}
	}
	if !res.FromCache {
		s.met.observeRun(runWall)
	}
	latency := time.Since(j.submitted)
	s.met.observeLatency(latency, j.traceID())
	return latency
}

// cancelJob requests cancellation: a queued job is finalized on the
// spot, a running one has its context cancelled (runJob finalizes and
// frees the slot). Terminal jobs are untouched.
func (s *Server) cancelJob(j *job) {
	running, cancel := j.requestCancel()
	if running {
		cancel()
		return
	}
	s.finishCanceled(j, s.jobLogger(j))
}

// encodeManifest renders the run's Normalize'd manifest — the exact
// bytes harness.RunOne + Manifest().Normalize().Encode() produce, which
// is what makes the service's responses byte-comparable to local runs.
func encodeManifest(res *harness.RunResult) ([]byte, error) {
	var buf jsonBuffer
	man := res.Manifest()
	man.Normalize()
	if err := man.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type jsonBuffer struct{ b []byte }

func (w *jsonBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// probeCache is the admission-time read-through: a repeated
// configuration completes without touching the queue.
func (s *Server) probeCache(j *job) bool {
	if s.cfg.CacheDir == "" {
		return false
	}
	res := harness.Probe(s.cfg.CacheDir, j.wl, j.cfg, harness.Options{
		MaxUops:     j.cfg.MaxUops,
		SampleEvery: j.sampleEvery,
	})
	if res == nil {
		return false
	}
	man, err := encodeManifest(res)
	if err != nil {
		return false
	}
	if j.complete(man, res, func() { s.recordCompleted(j, res, 0) }) {
		s.jobLogger(j).LogAttrs(context.Background(), slog.LevelInfo, "job done",
			slog.String("config_hash", j.hash[:12]),
			slog.Bool("from_cache", true))
	}
	return true
}

// retryAfter estimates, in whole seconds, how long until a queue slot
// frees: queued work divided by the pool's drain rate, using the mean
// run time of every simulated job so far. Clamped to [1, 60].
func (s *Server) retryAfter() int {
	mean := stats.Ratio(s.met.runWall.Sum(), float64(s.met.runWall.Count()))
	if mean <= 0 {
		return 1
	}
	queued := len(s.queue) + 1
	est := mean * float64(queued) / float64(s.cfg.Workers)
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// marshal is a tiny helper for event payloads that cannot fail on the
// plain structs used here.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return b
}
