package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"sccsim/internal/explain"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/telemetry"
	"sccsim/internal/workloads"
)

// JobRequest is the POST /v1/jobs body. Exactly one of Preset and
// Config selects the machine configuration; with both absent the full
// SCC preset is used. MaxUops overrides the work budget (0 keeps the
// workload's default interval length). Wait makes the submission
// synchronous: the response carries the finished status (including the
// manifest) and a client disconnect cancels the job.
type JobRequest struct {
	Workload    string           `json:"workload"`
	Preset      string           `json:"preset,omitempty"` // "baseline" | "scc" (default)
	Config      *pipeline.Config `json:"config,omitempty"`
	MaxUops     uint64           `json:"max_uops,omitempty"`
	SampleEvery uint64           `json:"sample_every,omitempty"`
	Wait        bool             `json:"wait,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} document (and the body of a
// synchronous submission's response). Manifest is present once the job
// is done; it is the Normalize'd run manifest.
type JobStatus struct {
	ID         string          `json:"id"`
	Workload   string          `json:"workload"`
	ConfigHash string          `json:"config_hash"`
	TraceID    string          `json:"trace_id,omitempty"`
	State      string          `json:"state"`
	FromCache  bool            `json:"from_cache,omitempty"`
	Error      string          `json:"error,omitempty"`
	Manifest   json.RawMessage `json:"manifest,omitempty"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/manifest", s.handleJobManifest)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.handleCacheProbe)
	s.mux.HandleFunc("GET /v1/compare", s.handleCompare)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveConfig turns a request into the effective machine
// configuration — the same MaxUops resolution harness.Prepare applies,
// so the admission-time ConfigHash matches the manifest the run
// produces. A configuration the pipeline cannot simulate is rejected
// here, before it can take a job record or a worker.
func (s *Server) resolveConfig(req JobRequest, wl workloads.Workload) (pipeline.Config, error) {
	var cfg pipeline.Config
	switch {
	case req.Config != nil && req.Preset != "":
		return cfg, fmt.Errorf("config and preset are mutually exclusive")
	case req.Config != nil:
		cfg = *req.Config
	case req.Preset == "" || req.Preset == "scc":
		cfg = pipeline.IcelakeSCC(scc.LevelFull)
	case req.Preset == "baseline":
		cfg = pipeline.Icelake()
	default:
		return cfg, fmt.Errorf("unknown preset %q (want \"baseline\" or \"scc\")", req.Preset)
	}
	switch {
	case req.MaxUops > 0:
		cfg.MaxUops = req.MaxUops
	case req.Config != nil && req.Config.MaxUops > 0:
		// keep the raw config's budget
	default:
		cfg.MaxUops = wl.DefaultMaxUops
	}
	if cfg.MaxUops > s.cfg.MaxUopsCap {
		return cfg, fmt.Errorf("max_uops %d exceeds the service cap %d", cfg.MaxUops, s.cfg.MaxUopsCap)
	}
	return cfg, cfg.Validate()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining; not accepting new jobs")
		return
	}
	tr, root := admitTrace(w, r)
	vspan := tr.StartSpan("admission.validate", root.SpanID())
	reject := func(msg string) {
		vspan.SetError(msg)
		vspan.End()
		root.SetError(msg)
		root.End()
		writeErr(w, http.StatusBadRequest, "%s", msg)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		reject(fmt.Sprintf("bad request body: %v", err))
		return
	}
	wl, ok := workloads.ByName(req.Workload)
	if !ok {
		reject(fmt.Sprintf("unknown workload %q (GET /v1/workloads lists them)", req.Workload))
		return
	}
	cfg, err := s.resolveConfig(req, wl)
	if err != nil {
		reject(err.Error())
		return
	}
	vspan.End()
	hash := obs.ConfigHash(wl.Name, cfg)
	// Only deterministic attributes go on spans (workload, config hash —
	// not the request id, which is random per submission), so normalized
	// traces of identical submissions stay byte-identical.
	root.SetAttr("workload", wl.Name)
	root.SetAttr("config_hash", hash[:12])
	j := s.newJob(wl, cfg, hash, req.SampleEvery, telemetry.RequestIDFrom(r.Context()), tr, root)
	s.met.submitted.Inc()
	s.jobLogger(j).LogAttrs(r.Context(), slog.LevelInfo, "job submitted",
		slog.String("config_hash", hash[:12]),
		slog.Uint64("max_uops", cfg.MaxUops),
		slog.Bool("wait", req.Wait))

	// Read-through: a repeated configuration is O(1) — answered from the
	// manifest cache without consuming a queue slot or a worker.
	pspan := tr.StartSpan("cache.probe", root.SpanID())
	hit := s.probeCache(j)
	pspan.SetAttr("hit", hit)
	pspan.End()
	if hit {
		s.writeJobStatus(w, http.StatusOK, j, true)
		return
	}

	j.queueSpan = tr.StartSpan("queue.wait", root.SpanID())
	s.pending.Add(1)
	if !s.enqueue(j) {
		s.pending.Done()
		s.met.rejected.Inc()
		s.dropJob(j)
		j.queueSpan.SetError("queue full")
		j.queueSpan.End()
		root.SetError("queue full")
		root.End()
		retry := s.retryAfter()
		s.jobLogger(j).LogAttrs(r.Context(), slog.LevelWarn, "job rejected: queue full",
			slog.Int("queue_cap", s.cfg.QueueDepth),
			slog.Int("retry_after_s", retry))
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeErr(w, http.StatusTooManyRequests,
			"admission queue full (%d queued, %d workers); retry after the indicated delay",
			s.cfg.QueueDepth, s.cfg.Workers)
		return
	}

	if !req.Wait {
		s.writeJobStatus(w, http.StatusAccepted, j, false)
		return
	}
	select {
	case <-j.done:
		s.writeJobStatus(w, http.StatusOK, j, true)
	case <-r.Context().Done():
		// The submitter hung up on a synchronous job: the job is request-
		// scoped, so cancel it and free the worker slot. There is nobody
		// left to write a response to.
		s.cancelJob(j)
	}
}

// dropJob removes a rejected submission's record so 429s do not leak
// job IDs.
func (s *Server) dropJob(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
}

func (s *Server) writeJobStatus(w http.ResponseWriter, code int, j *job, includeManifest bool) {
	st, errMsg, fromCache, manifest := j.snapshot()
	out := JobStatus{
		ID:         j.id,
		Workload:   j.wl.Name,
		ConfigHash: j.hash,
		State:      string(st),
		FromCache:  fromCache,
		Error:      errMsg,
	}
	if j.tr != nil {
		out.TraceID = j.tr.TraceID().String()
	}
	if includeManifest && st == StateDone {
		out.Manifest = json.RawMessage(manifest)
	}
	writeJSON(w, code, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJobStatus(w, http.StatusOK, j, true)
}

// handleJobManifest serves the finished job's manifest verbatim — the
// exact bytes Manifest.Encode produced, so clients can byte-compare
// against locally generated manifests without re-encoding.
func (s *Server) handleJobManifest(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	st, _, _, manifest := j.snapshot()
	if st != StateDone {
		writeErr(w, http.StatusConflict, "job is %s, not done", st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(manifest)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJob(j)
	s.writeJobStatus(w, http.StatusOK, j, false)
}

// handleCacheProbe answers GET /v1/cache/{hash}: the Normalize'd
// manifest for a config-hash (≥12 hex chars) straight from the result
// cache, or 404.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) < 12 {
		writeErr(w, http.StatusBadRequest, "hash must be at least 12 hex characters")
		return
	}
	man := harness.LookupHash(s.cfg.CacheDir, hash)
	if man == nil {
		writeErr(w, http.StatusNotFound, "no cache entry for %s", hash)
		return
	}
	man.Normalize()
	var buf jsonBuffer
	if err := man.Encode(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.b)
}

// handleCompare answers GET /v1/compare?base=<hash>&cur=<hash>: both
// sides resolve through the content-addressed result cache and the
// regression-attribution engine explains the movement between them. The
// Explanation is a pure function of the two cached manifests, so
// repeated requests for the same pair return byte-identical JSON.
// 404 = unknown hash (naming the side); 409 = the cached runs are not
// comparable (different workloads).
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.met.compares.Inc()
	tr, root := admitTrace(w, r)
	defer root.End()
	fail := func(code int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		root.SetError(msg)
		writeErr(w, code, "%s", msg)
	}
	q := r.URL.Query()
	baseHash, curHash := q.Get("base"), q.Get("cur")
	if len(baseHash) < 12 || len(curHash) < 12 {
		fail(http.StatusBadRequest, "base and cur must be config hashes of at least 12 hex characters")
		return
	}
	resolve := func(side, hash string) *obs.Manifest {
		sp := tr.StartSpan("compare.resolve."+side, root.SpanID())
		defer sp.End()
		m := harness.LookupHash(s.cfg.CacheDir, hash)
		sp.SetAttr("hit", m != nil)
		return m
	}
	base := resolve("base", baseHash)
	if base == nil {
		fail(http.StatusNotFound, "no cache entry for base %s", baseHash)
		return
	}
	cur := resolve("cur", curHash)
	if cur == nil {
		fail(http.StatusNotFound, "no cache entry for cur %s", curHash)
		return
	}
	esp := tr.StartSpan("compare.explain", root.SpanID())
	ex, err := explain.Explain(base, cur)
	if err != nil {
		esp.SetError(err.Error())
		esp.End()
		var inc *explain.IncomparableError
		if errors.As(err, &inc) {
			fail(http.StatusConflict, "%s", err)
			return
		}
		fail(http.StatusInternalServerError, "%v", err)
		return
	}
	esp.End()
	root.SetAttr("workload", ex.Workload)
	var buf jsonBuffer
	if err := ex.Encode(&buf); err != nil {
		fail(http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.b)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": workloads.Names()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetricsProm renders the Prometheus text exposition: the
// server's registry plus the process-wide default registry (runner job
// counters, process uptime), so one scrape covers both tiers.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	telemetry.WritePrometheus(w, s.met.reg, telemetry.Default())
}

// handleFlight dumps the flight recorder ring — the last N structured
// events at Info and above, regardless of the console log level.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w)
}
