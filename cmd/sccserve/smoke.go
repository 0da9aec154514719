package main

// The -smoke mode is the CI entry point (make serve-smoke): it brings
// the real service up on a random port, exercises the core contract
// over actual HTTP — submit, cache-backed repeat, health, metrics —
// and drains cleanly, exiting nonzero on the first violation.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sccsim/internal/serve"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
)

// smokeMaxUops keeps the smoke jobs reduced-scale so CI stays fast.
const smokeMaxUops = 20_000

func runSmoke(workers, queue int) int {
	if err := smoke(workers, queue); err != nil {
		fmt.Fprintf(os.Stderr, "sccserve -smoke: FAIL: %v\n", err)
		return 1
	}
	fmt.Println("sccserve -smoke: ok")
	return 0
}

func smoke(workers, queue int) error {
	cache, err := os.MkdirTemp("", "sccserve-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cache)

	srv := serve.New(serve.Config{Workers: workers, QueueDepth: queue, CacheDir: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: serving on %s (cache %s)\n", base, cache)
	client := &http.Client{Timeout: 2 * time.Minute}

	// Liveness first.
	if err := expectStatus(client, base+"/healthz", http.StatusOK); err != nil {
		return err
	}

	// Cold submission must simulate; the identical repeat must be a
	// cache hit; both manifests must be byte-identical.
	body := fmt.Sprintf(`{"workload":"xalancbmk","max_uops":%d,"wait":true}`, smokeMaxUops)
	cold, err := submit(client, base, body)
	if err != nil {
		return fmt.Errorf("cold submit: %w", err)
	}
	if cold.State != "done" {
		return fmt.Errorf("cold job state = %q (error %q), want done", cold.State, cold.Error)
	}
	if cold.FromCache {
		return fmt.Errorf("cold job claims a cache hit")
	}
	warm, err := submit(client, base, body)
	if err != nil {
		return fmt.Errorf("warm submit: %w", err)
	}
	if warm.State != "done" || !warm.FromCache {
		return fmt.Errorf("warm job state=%q from_cache=%v, want a done cache hit", warm.State, warm.FromCache)
	}
	coldMan, err := fetch(client, base+"/v1/jobs/"+cold.ID+"/manifest")
	if err != nil {
		return err
	}
	warmMan, err := fetch(client, base+"/v1/jobs/"+warm.ID+"/manifest")
	if err != nil {
		return err
	}
	if !bytes.Equal(coldMan, warmMan) {
		return fmt.Errorf("cold and cached manifests differ (%d vs %d bytes)", len(coldMan), len(warmMan))
	}
	fmt.Printf("smoke: cold run + cache hit agree (%d manifest bytes, hash %.12s)\n", len(coldMan), cold.ConfigHash)

	// Direct cache probe by hash must agree too.
	probe, err := fetch(client, base+"/v1/cache/"+cold.ConfigHash)
	if err != nil {
		return fmt.Errorf("cache probe: %w", err)
	}
	if !bytes.Equal(probe, coldMan) {
		return fmt.Errorf("cache probe manifest differs from the job manifest")
	}

	// Regression attribution between two warm cache entries.
	if err := smokeCompare(client, base, cold.ConfigHash); err != nil {
		return fmt.Errorf("v1/compare: %w", err)
	}

	// Prometheus exposition: the counters must reflect what just
	// happened, the document must parse under the scraper's structural
	// rules (sample syntax, TYPE coverage, no duplicates) and cover every
	// required series, and its counters must be monotonic across two
	// scrapes with traffic in between.
	if err := smokeProm(client, base, body); err != nil {
		return fmt.Errorf("metrics.prom: %w", err)
	}

	// The flight recorder must have captured the life of the jobs above.
	if err := smokeFlight(client, base); err != nil {
		return fmt.Errorf("debug/flight: %w", err)
	}

	// End-to-end tracing: traceparent echo, a well-formed span tree, the
	// latency exemplar resolving to a retrievable trace, and byte-stable
	// normalized exports across identical runs.
	if err := smokeTrace(client, base); err != nil {
		return fmt.Errorf("tracing: %w", err)
	}

	// Clean shutdown: drain refuses new work, then the pool stops.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := expectStatus(client, base+"/healthz", http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("healthz during drain: %w", err)
	}
	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close()
	fmt.Println("smoke: drained and shut down cleanly")
	return nil
}

// smokeProm validates the Prometheus endpoint: the job counters after
// the cold run and cache hit, format, series coverage, and counter
// monotonicity across two scrapes.
func smokeProm(client *http.Client, base, jobBody string) error {
	scrape := func() (*telemetry.Exposition, error) {
		resp, err := client.Get(base + "/metrics.prom")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
			return nil, fmt.Errorf("content type %q, want %q", ct, telemetry.PrometheusContentType)
		}
		return telemetry.ParseExposition(raw)
	}
	first, err := scrape()
	if err != nil {
		return err
	}
	// The cold run, its cache hit and the compare baseline have completed.
	met := first.Samples
	completed, hits, misses := met["sccserve_jobs_completed_total"], met["sccserve_cache_hits_total"], met["sccserve_cache_misses_total"]
	if completed < 2 || hits < 1 || misses < 1 {
		return fmt.Errorf("completed=%v hits=%v misses=%v, want >=2/>=1/>=1", completed, hits, misses)
	}
	p99, ok := met["sccserve_job_latency_p99_milliseconds"]
	if !ok {
		return fmt.Errorf("sccserve_job_latency_p99_milliseconds absent after %v completed jobs", completed)
	}
	if up := met["sccserve_uptime_seconds"]; up <= 0 {
		return fmt.Errorf("sccserve_uptime_seconds = %v, want > 0", up)
	}
	fmt.Printf("smoke: metrics ok (completed %v, cache %v/%v, p99 %.1fms)\n", completed, hits, hits+misses, p99)

	// Every job counter and pool gauge must have a series.
	required := []string{
		"sccserve_jobs_submitted_total", "sccserve_jobs_completed_total",
		"sccserve_jobs_failed_total", "sccserve_jobs_canceled_total",
		"sccserve_jobs_rejected_total", "sccserve_cache_hits_total",
		"sccserve_cache_misses_total", "sccserve_http_requests_total",
		"sccserve_jobs_in_flight", "sccserve_queue_depth",
		"sccserve_queue_capacity", "sccserve_workers",
		"sccserve_uptime_seconds", "sccserve_draining",
		"sccserve_job_latency_p50_milliseconds", "sccserve_job_latency_p99_milliseconds",
		"sccserve_job_latency_seconds_count", "sccserve_run_wall_seconds_count",
		"sccserve_compare_total", "telemetry_flight_dropped_total",
		"runner_jobs_completed_total", "process_uptime_seconds",
		"snapshot_hits_total", "snapshot_misses_total",
		"snapshot_bytes_written_total", "snapshot_evictions_total",
	}
	for _, name := range required {
		if _, ok := first.Samples[name]; !ok {
			return fmt.Errorf("series %s missing from the exposition", name)
		}
	}
	// Traffic between the scrapes, then every *_total must not decrease.
	if _, err := submit(client, base, jobBody); err != nil {
		return fmt.Errorf("between-scrape submit: %w", err)
	}
	second, err := scrape()
	if err != nil {
		return err
	}
	for series, v1 := range first.Samples {
		if !strings.HasSuffix(series, "_total") && !strings.Contains(series, "_count") {
			continue
		}
		v2, ok := second.Samples[series]
		if !ok {
			return fmt.Errorf("counter %s vanished between scrapes", series)
		}
		if v2 < v1 {
			return fmt.Errorf("counter %s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if second.Samples["sccserve_http_requests_total"] <= first.Samples["sccserve_http_requests_total"] {
		return fmt.Errorf("http request counter did not advance across scrapes")
	}
	fmt.Printf("smoke: exposition ok (%d series, %d TYPE headers, counters monotonic)\n",
		len(first.Samples), len(first.Types))
	return nil
}

// smokeCompare warms a second cache entry (the baseline preset of the
// same workload) and exercises GET /v1/compare on the pair: the
// Explanation must name the workload and a dominant CPI slot, and a
// repeated request must return byte-identical JSON — the explanation is
// a pure function of the two cached manifests.
func smokeCompare(client *http.Client, base, sccHash string) error {
	body := fmt.Sprintf(`{"workload":"xalancbmk","preset":"baseline","max_uops":%d,"wait":true}`, smokeMaxUops)
	baseline, err := submit(client, base, body)
	if err != nil {
		return fmt.Errorf("baseline submit: %w", err)
	}
	url := base + "/v1/compare?base=" + baseline.ConfigHash + "&cur=" + sccHash
	first, err := fetch(client, url)
	if err != nil {
		return err
	}
	var ex struct {
		Workload string `json:"workload"`
		CPIStack *struct {
			Dominant string     `json:"dominant_slot"`
			Slots    []struct{} `json:"slots"`
		} `json:"cpi_stack_delta"`
	}
	if err := json.Unmarshal(first, &ex); err != nil {
		return fmt.Errorf("explanation decode: %w", err)
	}
	if ex.Workload != "xalancbmk" {
		return fmt.Errorf("explanation workload = %q, want xalancbmk", ex.Workload)
	}
	if ex.CPIStack == nil || len(ex.CPIStack.Slots) != 9 || ex.CPIStack.Dominant == "" {
		return fmt.Errorf("explanation carries no nine-slot CPI stack delta: %s", first)
	}
	repeat, err := fetch(client, url)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, repeat) {
		return fmt.Errorf("repeated compare not byte-identical (%d vs %d bytes)", len(first), len(repeat))
	}
	// Unknown hashes and short hashes must fail loudly, not explain junk.
	if err := expectStatusGet(client, base+"/v1/compare?base="+strings.Repeat("0", 64)+"&cur="+sccHash, http.StatusNotFound); err != nil {
		return err
	}
	if err := expectStatusGet(client, base+"/v1/compare?base=abc&cur=def", http.StatusBadRequest); err != nil {
		return err
	}
	fmt.Printf("smoke: compare ok (dominant slot %s, %d explanation bytes stable)\n",
		ex.CPIStack.Dominant, len(first))
	return nil
}

func expectStatusGet(client *http.Client, url string, want int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// smokeFlight asserts the always-on flight ring captured the admissions
// and completions of the jobs the smoke run submitted.
func smokeFlight(client *http.Client, base string) error {
	raw, err := fetch(client, base+"/debug/flight")
	if err != nil {
		return err
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		return fmt.Errorf("flight ring is empty after smoke traffic")
	}
	seen := map[string]bool{}
	for _, ev := range dump.Events {
		seen[ev.Msg] = true
	}
	for _, want := range []string{"job submitted", "job done"} {
		if !seen[want] {
			return fmt.Errorf("flight ring has no %q event", want)
		}
	}
	fmt.Printf("smoke: flight recorder ok (%d events captured)\n", dump.Total)
	return nil
}

// smokeTrace exercises the tracing contract over real HTTP. The job
// body is distinct from the rest of the smoke traffic so the run is
// cold and walks the full request path: queue wait, worker pickup,
// harness, finalize.
func smokeTrace(client *http.Client, base string) error {
	const (
		inbound    = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
		inboundTID = "4bf92f3577b34da6a3ce929d0e0e4736"
		inboundSID = "00f067aa0ba902b7"
		traceBody  = `{"workload":"mcf","max_uops":20000,"sample_every":8000,"wait":true}`
	)

	// Inbound traceparent: the service joins the caller's trace and
	// echoes the trace id with its own root span id.
	st, echo, err := submitTraced(client, base, traceBody, inbound)
	if err != nil {
		return fmt.Errorf("traced submit: %w", err)
	}
	tid, sid, ok := tracing.ParseTraceparent(echo)
	if !ok {
		return fmt.Errorf("response traceparent %q does not parse", echo)
	}
	if tid.String() != inboundTID {
		return fmt.Errorf("echoed trace id %s, want the inbound %s", tid, inboundTID)
	}
	if sid.String() == inboundSID {
		return fmt.Errorf("echoed span id is the caller's parent, want the service root span")
	}
	if st.TraceID != inboundTID {
		return fmt.Errorf("job status trace_id = %q, want %s", st.TraceID, inboundTID)
	}

	// The span tree behind the trace endpoint must be well-formed —
	// exactly one root, no orphan parents, children nested within their
	// parents — and cover every request-path stage.
	raw, err := fetch(client, base+"/v1/jobs/"+st.ID+"/trace")
	if err != nil {
		return err
	}
	spans, err := decodeOTLPSpans(raw)
	if err != nil {
		return err
	}
	if err := tracing.ValidateTree(spans); err != nil {
		return fmt.Errorf("span tree: %w", err)
	}
	have := map[string]bool{}
	for _, sp := range spans {
		have[sp.Name] = true
	}
	for _, want := range []string{
		"request", "admission.validate", "cache.probe", "queue.wait",
		"worker.run", "harness.run", "harness.simulate", "serve.finalize",
	} {
		if !have[want] {
			return fmt.Errorf("span %q missing from the request trace", want)
		}
	}

	// Tail-latency attribution: each latency bucket keeps its most recent
	// exemplar, so the traced job's id must appear among them — the link
	// an operator follows from a histogram bucket to the trace (just
	// proven retrievable above).
	promRaw, err := fetch(client, base+"/metrics.prom")
	if err != nil {
		return err
	}
	exp, err := telemetry.ParseExposition(promRaw)
	if err != nil {
		return err
	}
	exemplars := 0
	linked := false
	for series, ex := range exp.Exemplars {
		if !strings.HasPrefix(series, "sccserve_job_latency_seconds_bucket") {
			continue
		}
		exemplars++
		if ex.Labels["trace_id"] == st.TraceID {
			linked = true
		}
	}
	if exemplars == 0 {
		return fmt.Errorf("no trace_id exemplar on the latency histogram")
	}
	if !linked {
		return fmt.Errorf("no latency exemplar names the traced job's id %q", st.TraceID)
	}

	// Determinism: identical cold submissions under the same inbound
	// traceparent export byte-identical normalized trace documents —
	// each run on a fresh service with its own empty cache.
	a, err := normalizedTraceRun(client, traceBody, inbound)
	if err != nil {
		return err
	}
	b, err := normalizedTraceRun(client, traceBody, inbound)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("normalized traces differ across identical runs (%d vs %d bytes)", len(a), len(b))
	}
	fmt.Printf("smoke: tracing ok (%d spans, %d latency exemplars, normalized export %d bytes stable)\n",
		len(spans), exemplars, len(a))
	return nil
}

// normalizedTraceRun boots a fresh single-worker service with an empty
// cache, runs one traced job, and returns its normalized trace export.
func normalizedTraceRun(client *http.Client, body, traceparent string) ([]byte, error) {
	cache, err := os.MkdirTemp("", "sccserve-smoke-trace-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache)
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 8, CacheDir: cache})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	b := "http://" + ln.Addr().String()
	st, _, err := submitTraced(client, b, body, traceparent)
	if err != nil {
		return nil, err
	}
	return fetch(client, b+"/v1/jobs/"+st.ID+"/trace?normalize=1")
}

// decodeOTLPSpans parses a trace-endpoint OTLP JSON document back into
// SpanData so ValidateTree can check it — the same structural contract
// any external OTLP consumer relies on.
func decodeOTLPSpans(raw []byte) ([]tracing.SpanData, error) {
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("trace document does not parse: %w", err)
	}
	var out []tracing.SpanData
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				var sd tracing.SpanData
				sd.Name = sp.Name
				if _, err := hex.Decode(sd.TraceID[:], []byte(sp.TraceID)); err != nil {
					return nil, fmt.Errorf("span %q trace id %q: %w", sp.Name, sp.TraceID, err)
				}
				if _, err := hex.Decode(sd.SpanID[:], []byte(sp.SpanID)); err != nil {
					return nil, fmt.Errorf("span %q span id %q: %w", sp.Name, sp.SpanID, err)
				}
				if sp.ParentSpanID != "" {
					if _, err := hex.Decode(sd.ParentID[:], []byte(sp.ParentSpanID)); err != nil {
						return nil, fmt.Errorf("span %q parent id %q: %w", sp.Name, sp.ParentSpanID, err)
					}
				}
				for _, f := range []struct {
					nanos string
					dst   *time.Time
				}{{sp.Start, &sd.Start}, {sp.End, &sd.End}} {
					ns, err := strconv.ParseInt(f.nanos, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("span %q timestamp %q: %w", sp.Name, f.nanos, err)
					}
					*f.dst = time.Unix(0, ns)
				}
				out = append(out, sd)
			}
		}
	}
	return out, nil
}

// submitTraced is submit plus an inbound traceparent header; it returns
// the job status and the echoed traceparent.
func submitTraced(client *http.Client, base, body, traceparent string) (*serve.JobStatus, string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tracing.TraceparentHeader, traceparent)
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, "", err
	}
	return &st, resp.Header.Get(tracing.TraceparentHeader), nil
}

func submit(client *http.Client, base, body string) (*serve.JobStatus, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	return raw, nil
}

func expectStatus(client *http.Client, url string, want int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}
