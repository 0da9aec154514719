package serve

// Tracing-tier coverage: traceparent echo and minting at admission, the
// span tree a served job produces, byte-stable normalized trace export,
// and the exemplar link from the latency histogram back to a trace.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// postJobHdr is postJob plus request headers.
func postJobHdr(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (*JobStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, resp
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return &st, resp
}

func TestTraceparentEchoedAndSpanTreeWellFormed(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inbound := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	st, resp := postJobHdr(t, ts,
		`{"workload":"mcf","max_uops":10000,"sample_every":4000,"wait":true}`,
		map[string]string{tracing.TraceparentHeader: inbound})
	if st == nil {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Echo: same trace id, a fresh span id (the service's root span).
	echo := resp.Header.Get(tracing.TraceparentHeader)
	tid, sid, ok := tracing.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("echoed trace id = %s, want the inbound one", tid)
	}
	if sid.String() == "00f067aa0ba902b7" {
		t.Error("echoed span id is the inbound parent, want the service root span")
	}
	if st.TraceID != tid.String() {
		t.Errorf("JobStatus.TraceID = %q, want %q", st.TraceID, tid)
	}

	// The span tree: single root stitched under the remote parent, all
	// request-path stages present, children nested.
	j := srv.lookup(st.ID)
	if j == nil {
		t.Fatal("job record vanished")
	}
	spans := j.tr.Spans()
	if err := tracing.ValidateTree(spans); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	names := map[string]tracing.SpanData{}
	for _, sp := range spans {
		names[sp.Name] = sp
	}
	for _, want := range []string{
		"request", "admission.validate", "cache.probe", "queue.wait",
		"worker.run", "harness.run", "harness.prepare", "harness.simulate",
		"sample.interval", "harness.finalize", "serve.finalize",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing from the request trace", want)
		}
	}
	if got := names["request"].ParentID.String(); got != "00f067aa0ba902b7" {
		t.Errorf("root span parent = %s, want the inbound traceparent span id", got)
	}
	if names["harness.run"].ParentID != names["worker.run"].SpanID {
		t.Error("harness.run is not a child of worker.run")
	}

	// The trace endpoint serves the same tree as OTLP JSON.
	code, raw := get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", code, raw)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID  string `json:"traceId"`
					SpanID   string `json:"spanId"`
					ParentID string `json:"parentSpanId"`
					Name     string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	otlpSpans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(otlpSpans) != len(spans) {
		t.Errorf("trace endpoint has %d spans, tracer has %d", len(otlpSpans), len(spans))
	}
	// Same ids and parent links as the validated tree: the served
	// document is that tree.
	parentOf := map[string]string{}
	for _, sp := range spans {
		p := ""
		if !sp.ParentID.IsZero() {
			p = sp.ParentID.String()
		}
		parentOf[sp.SpanID.String()] = p
	}
	for _, sp := range otlpSpans {
		if sp.TraceID != st.TraceID {
			t.Errorf("span %s has trace id %s, want %s", sp.Name, sp.TraceID, st.TraceID)
		}
		if want, ok := parentOf[sp.SpanID]; !ok || sp.ParentID != want {
			t.Errorf("served span %s (%s) has parent %q, tracer has %q (known %v)", sp.Name, sp.SpanID, sp.ParentID, want, ok)
		}
	}
}

func TestTraceMintedWhenHeaderAbsent(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, resp := postJobHdr(t, ts, `{"workload":"mcf","max_uops":5000,"wait":true}`, nil)
	if st == nil {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	tid, _, ok := tracing.ParseTraceparent(resp.Header.Get(tracing.TraceparentHeader))
	if !ok {
		t.Fatalf("minted traceparent %q does not parse", resp.Header.Get(tracing.TraceparentHeader))
	}
	if tid.IsZero() {
		t.Error("minted trace id is zero")
	}
	if st.TraceID != tid.String() {
		t.Errorf("JobStatus.TraceID = %q, want minted %q", st.TraceID, tid)
	}

	// A garbage inbound header is treated as absent, not an error.
	st2, resp2 := postJobHdr(t, ts, `{"workload":"mcf","max_uops":5000,"wait":true}`,
		map[string]string{tracing.TraceparentHeader: "zz-not-a-traceparent"})
	if st2 == nil {
		t.Fatalf("submit with bad traceparent status %d", resp2.StatusCode)
	}
	if _, _, ok := tracing.ParseTraceparent(resp2.Header.Get(tracing.TraceparentHeader)); !ok {
		t.Error("bad inbound traceparent did not get a freshly minted echo")
	}
	if st2.TraceID == st.TraceID {
		t.Error("two minted traces share a trace id")
	}
}

// TestTraceNormalizedByteStable pins the determinism contract at the
// service boundary: two servers, identical submissions under the same
// inbound traceparent, byte-identical normalized trace documents.
func TestTraceNormalizedByteStable(t *testing.T) {
	inbound := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	body := `{"workload":"mcf","max_uops":10000,"sample_every":4000,"wait":true}`

	fetch := func() []byte {
		t.Helper()
		srv := New(Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		st, resp := postJobHdr(t, ts, body, map[string]string{tracing.TraceparentHeader: inbound})
		if st == nil {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		code, raw := get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace?normalize=1")
		if code != http.StatusOK {
			t.Fatalf("trace fetch status %d", code)
		}
		return raw
	}

	a, b := fetch(), fetch()
	if !bytes.Equal(a, b) {
		t.Errorf("normalized traces differ across identical submissions:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestLatencyExemplarResolvesToTrace closes the tail-latency loop: the
// Prometheus exposition's latency buckets carry a trace_id exemplar, and
// that id resolves to a retrievable trace. The server records a job's
// metrics before it publishes the job's terminal state, so a scrape made
// right after each of many sequential jobs is seen done — alternately by
// a wait:true response and by a status poll — already counts that job
// and carries its trace id as the exemplar of its latency bucket.
func TestLatencyExemplarResolvesToTrace(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const jobs = 50
	var st *JobStatus
	for i := 1; i <= jobs; i++ {
		body := `{"workload":"mcf","max_uops":2000,"wait":true}`
		if i%2 == 0 {
			body = `{"workload":"mcf","max_uops":2000}`
		}
		var resp *http.Response
		st, resp = postJobHdr(t, ts, body, nil)
		if st == nil {
			t.Fatalf("job %d: submit status %d", i, resp.StatusCode)
		}
		if i%2 == 0 {
			st = waitState(t, ts, st.ID, StateDone)
		}
		code, raw := get(t, ts.URL+"/metrics.prom")
		if code != http.StatusOK {
			t.Fatalf("job %d: scrape status %d", i, code)
		}
		exp, err := telemetry.ParseExposition(raw)
		if err != nil {
			t.Fatalf("job %d: exposition does not validate: %v", i, err)
		}
		if got := exp.Samples["sccserve_jobs_completed_total"]; got != float64(i) {
			t.Fatalf("job %d: scrape after it was seen done counts %v completed jobs", i, got)
		}
		found := false
		for series, ex := range exp.Exemplars {
			if strings.HasPrefix(series, "sccserve_job_latency_seconds_bucket") && ex.Labels["trace_id"] == st.TraceID {
				found = true
			}
		}
		if !found {
			t.Fatalf("job %d: no latency exemplar carries its trace id %q:\n%s", i, st.TraceID, raw)
		}
	}
	code, traceRaw := get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("exemplar's trace is not retrievable: status %d", code)
	}
	if !bytes.Contains(traceRaw, []byte(st.TraceID)) {
		t.Error("retrieved trace does not carry the exemplar's trace id")
	}
}

// TestTraceEndpointConflictWhileRunning pins the 409 on a job whose
// trace is still growing.
func TestTraceEndpointConflictWhileRunning(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	block := make(chan struct{})
	defer close(block)
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return stubResult(w, cfg), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, resp := postJobHdr(t, ts, `{"workload":"mcf","max_uops":5000}`, nil)
	if st == nil {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	code, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusConflict {
		t.Errorf("trace fetch on a non-terminal job = %d, want 409", code)
	}
}
