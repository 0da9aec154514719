package serve

// Backpressure, cancellation, SSE termination, drain, job retention and
// validation coverage. Most of these tests replace the executor
// (SetRunFunc) with slow or context-aware synthetic workloads so
// overload and disconnect timing is deterministic; the real-simulation
// path is covered by determinism_test.go.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// stubResult is a minimal well-formed run result for stubbed executors.
func stubResult(w workloads.Workload, cfg pipeline.Config) *harness.RunResult {
	return &harness.RunResult{Workload: w.Name, Config: cfg, Stats: &pipeline.Stats{}}
}

func waitState(t *testing.T, ts *httptest.Server, id string, want jobState) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status fetch for %s = %d", id, code)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == string(want) {
			return &st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return nil
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	started := make(chan string, 8)
	block := make(chan struct{})
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		started <- w.Name
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(w, cfg), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Job 1 occupies the single worker...
	j1, code := postJob(t, ts, `{"workload":"xalancbmk"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	<-started
	// ...job 2 occupies the single queue slot...
	j2, code := postJob(t, ts, `{"workload":"mcf"}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", code)
	}
	// ...and job 3 must be rejected, not queued unboundedly.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"lbm"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	if n := srv.met.rejected.Value(); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}
	// The rejected submission must not leak a job record.
	if code, _ := get(t, ts.URL+"/v1/jobs/"+j2.ID); code != http.StatusOK {
		t.Errorf("queued job lookup = %d", code)
	}

	// Unblock: both admitted jobs run to completion.
	close(block)
	waitState(t, ts, j1.ID, StateDone)
	waitState(t, ts, j2.ID, StateDone)
	if n := srv.met.completed.Value(); n != 2 {
		t.Errorf("completed = %d, want 2", n)
	}
}

func TestClientDisconnectCancelsJobAndFreesWorker(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	started := make(chan struct{}, 1)
	canceled := make(chan struct{})
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		if w.Name == "xalancbmk" { // the job whose client hangs up
			started <- struct{}{}
			<-ctx.Done()
			close(canceled)
			return nil, ctx.Err()
		}
		return stubResult(w, cfg), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Synchronous submission whose client disconnects mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs",
		strings.NewReader(`{"workload":"xalancbmk","wait":true}`))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-started
	cancel() // client hangs up mid-job
	if err := <-errCh; err == nil {
		t.Fatal("expected the canceled request to error")
	}
	select {
	case <-canceled:
		// the request-scoped job context was cancelled
	case <-time.After(5 * time.Second):
		t.Fatal("job context was never cancelled after client disconnect")
	}

	// The worker slot must be free again: a fresh synchronous job
	// completes rather than queueing behind an abandoned simulation.
	st, code := postJob(t, ts, `{"workload":"mcf","wait":true}`)
	if code != http.StatusOK || st.State != string(StateDone) {
		t.Fatalf("post-cancel submit: code %d state %+v", code, st)
	}

	// The abandoned job is recorded as canceled.
	srv.mu.Lock()
	var abandonedID string
	for id, j := range srv.jobs {
		if j.wl.Name == "xalancbmk" {
			abandonedID = id
		}
	}
	srv.mu.Unlock()
	if abandonedID == "" {
		t.Fatal("abandoned job record not found")
	}
	waitState(t, ts, abandonedID, StateCanceled)
	if n := srv.met.canceled.Value(); n != 1 {
		t.Errorf("canceled = %d, want 1", n)
	}
}

// readSSE consumes an event stream to EOF and returns the event types
// in order plus the data payload of the final "done" event.
func readSSE(t *testing.T, url string) (types []string, doneData string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = strings.TrimPrefix(line, "event: ")
			types = append(types, cur)
		case strings.HasPrefix(line, "data: ") && cur == eventDone:
			doneData = strings.TrimPrefix(line, "data: ")
		}
	}
	return types, doneData
}

func TestSSEStreamsLifecycleAndTerminates(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A real (reduced) simulation with interval sampling on.
	st, code := postJob(t, ts, `{"workload":"xalancbmk","max_uops":20000,"sample_every":5000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	types, doneData := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")

	count := map[string]int{}
	for _, typ := range types {
		count[typ]++
	}
	if count[eventState] < 2 { // queued + running
		t.Errorf("state events = %d, want >= 2 (got %v)", count[eventState], types)
	}
	if count[eventProgress] < 1 {
		t.Errorf("no progress events in %v", types)
	}
	if count[eventInterval] < 2 {
		t.Errorf("interval events = %d, want >= 2 for 20k uops @ 5k sampling", count[eventInterval])
	}
	if count[eventDone] != 1 || types[len(types)-1] != eventDone {
		t.Errorf("stream must end with exactly one done event, got %v", types)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(doneData), &done); err != nil {
		t.Fatalf("done payload %q: %v", doneData, err)
	}
	if done.State != string(StateDone) || done.ConfigHash == "" {
		t.Errorf("done event = %+v", done)
	}
}

// TestSSEWaitsForDoneEvent: a job turns terminal just before its done
// event is appended (finish ends the job's trace in between). A stream
// that reads the log in that gap must wait for the done event and end
// with it; it used to close without one, which
// TestSSEStreamsLifecycleAndTerminates hit once under the race
// detector.
func TestSSEWaitsForDoneEvent(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w, _ := workloads.ByName("mcf")
	j := srv.newJob(w, pipeline.Icelake(), "hash", 0, "", nil, nil)
	j.mu.Lock()
	j.state = StateDone // the gap: terminal, done event not yet appended
	j.mu.Unlock()

	// Get returns once the handler has drained the log and flushed.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	j.append(eventDone, doneEvent{State: string(StateDone), ConfigHash: "hash"})
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(body)), `data: {"state":"done","config_hash":"hash","from_cache":false}`) {
		t.Errorf("stream does not end with the done event:\n%s", body)
	}
}

func TestSSETerminatesOnCancellation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	started := make(chan struct{}, 1)
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, _ := postJob(t, ts, `{"workload":"xalancbmk"}`)
	<-started
	type sse struct {
		types []string
		done  string
	}
	out := make(chan sse, 1)
	go func() {
		types, doneData := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
		out <- sse{types, doneData}
	}()
	// Give the subscriber a beat to attach, then cancel the job.
	time.Sleep(50 * time.Millisecond)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	select {
	case got := <-out:
		var done doneEvent
		if err := json.Unmarshal([]byte(got.done), &done); err != nil {
			t.Fatalf("done payload %q: %v", got.done, err)
		}
		if done.State != string(StateCanceled) {
			t.Errorf("final event state = %s, want canceled (events %v)", done.State, got.types)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate after job cancellation")
	}
	waitState(t, ts, st.ID, StateCanceled)
}

func TestDrainRefusesNewAndFinishesInFlight(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		started <- struct{}{}
		select {
		case <-block: // a slow synthetic workload
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(w, cfg), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", code)
	}
	st, _ := postJob(t, ts, `{"workload":"xalancbmk"}`)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Drain flips the service read-only: health reports draining and
	// submissions bounce with 503 while the in-flight job keeps running.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if code, _ := get(t, ts.URL+"/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := postJob(t, ts, `{"workload":"mcf"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}

	// Release the slow job: drain must complete and the job must have
	// finished, not been aborted.
	close(block)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after in-flight job finished")
	}
	waitState(t, ts, st.ID, StateDone)
}

func TestDrainDeadlineAbortsInFlight(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	started := make(chan struct{}, 1)
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		started <- struct{}{}
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, _ := postJob(t, ts, `{"workload":"xalancbmk"}`)
	<-started
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); err == nil {
		t.Fatal("drain of a wedged job must report the deadline error")
	}
	waitState(t, ts, st.ID, StateCanceled)
}

// TestFinishedJobsEvictedOldestFirst pins the bound on job records: a
// server keeps at most maxFinishedJobs terminal jobs, the newest stays
// fully served, and an evicted id answers 404 on every job route.
func TestFinishedJobsEvictedOldestFirst(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One cold run fills the cache; every later submission is a hit.
	const body = `{"workload":"mcf","max_uops":5000,"wait":true}`
	var first, last *JobStatus
	for i := 0; i < maxFinishedJobs+8; i++ {
		st, code := postJob(t, ts, body)
		if code != http.StatusOK || st.State != string(StateDone) {
			t.Fatalf("submit %d: code %d state %+v", i, code, st)
		}
		if i == 0 {
			first = st
		}
		last = st
	}
	if !last.FromCache {
		t.Fatal("repeat submission was not a cache hit")
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n > maxFinishedJobs {
		t.Errorf("server keeps %d job records, want at most %d", n, maxFinishedJobs)
	}
	for _, route := range []string{"", "/manifest", "/trace"} {
		if code, raw := get(t, ts.URL+"/v1/jobs/"+last.ID+route); code != http.StatusOK {
			t.Errorf("newest job GET %s = %d (%s), want 200", route, code, raw)
		}
	}
	for _, route := range []string{"", "/manifest", "/trace", "/events"} {
		if code, _ := get(t, ts.URL+"/v1/jobs/"+first.ID+route); code != http.StatusNotFound {
			t.Errorf("evicted job GET %s = %d, want 404", route, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job DELETE = %d, want 404", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, MaxUopsCap: 50_000})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"unknown workload", `{"workload":"nope"}`},
		{"unknown preset", `{"workload":"mcf","preset":"turbo"}`},
		{"config and preset", `{"workload":"mcf","preset":"baseline","config":{}}`},
		{"unknown field", `{"workload":"mcf","frobnicate":1}`},
		{"over budget cap", `{"workload":"mcf","max_uops":60000}`},
		{"empty body", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d (%s), want 400", resp.StatusCode, body)
			}
		})
	}

	if code, _ := get(t, ts.URL+"/v1/jobs/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/cache/000000000000ffff"); code != http.StatusNotFound {
		t.Errorf("cache probe without a cache = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/cache/beef"); code != http.StatusBadRequest {
		t.Errorf("short cache hash = %d, want 400", code)
	}
	code, raw := get(t, ts.URL+"/v1/workloads")
	if code != http.StatusOK || !strings.Contains(string(raw), "xalancbmk") {
		t.Errorf("workloads listing = %d %s", code, raw)
	}
}

// TestSubmitRejectsUnsimulatableConfigs: a raw config that
// pipeline.Config.Validate rejects (a zero count or geometry, a
// negative latency) answers 400 at admission, naming the field, without
// a job record or a worker. Before the check, a config with no integer
// ALUs was admitted and hung the only worker, so the valid job posted
// after the bad ones never ran.
func TestSubmitRejectsUnsimulatableConfigs(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	bad := map[string]int{}
	for _, field := range []string{
		"IntALUs", "MulUnits", "DivUnits", "FPUnits", "MemPorts",
		"Hier.L1I.Sets", "Hier.L1I.Ways", "Hier.L1D.Sets", "Hier.L1D.Ways",
		"Hier.L2.Sets", "Hier.L2.Ways", "Hier.L3.Sets", "Hier.L3.Ways",
		"UC.UnoptSets", "SCC.ConstWidthBits", "UC.OptSets", "UC.OptWays",
	} {
		bad[field] = 0
	}
	for _, field := range []string{
		"DecodeLatency", "UopCacheLatency", "IntLatency", "MulLatency",
		"DivLatency", "FPLatency", "RedirectLatency", "Hier.L1I.Latency",
		"Hier.L1D.Latency", "Hier.L2.Latency", "Hier.L3.Latency", "Hier.DRAMLatency",
	} {
		bad[field] = -1
	}
	for field, v := range bad {
		raw, err := json.Marshal(pipeline.IcelakeSCC(scc.LevelFull))
		if err != nil {
			t.Fatal(err)
		}
		var cfg map[string]any
		if err := json.Unmarshal(raw, &cfg); err != nil {
			t.Fatal(err)
		}
		path := strings.Split(field, ".")
		obj := cfg
		for _, k := range path[:len(path)-1] {
			obj = obj[k].(map[string]any)
		}
		obj[path[len(path)-1]] = v
		raw, _ = json.Marshal(cfg)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"workload":"xalancbmk","max_uops":3000,"config":`+string(raw)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := field + " = " + strconv.Itoa(v); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d (%s), want 400 naming the field", want, resp.StatusCode, body)
		}
	}
	if n := srv.met.submitted.Value(); n != 0 {
		t.Errorf("submitted = %d after rejected configs, want 0", n)
	}
	st, code := postJob(t, ts, `{"workload":"mcf","max_uops":2000}`)
	if code != http.StatusAccepted {
		t.Fatalf("valid submit = %d, want 202", code)
	}
	waitState(t, ts, st.ID, StateDone)
}
