package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/serve"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// serveConns bounds the generator's connections (and senders) to the
// machine's two cores, as the server's worker pool is.
const serveConns = 2

// serveMixed drives an in-process serve.Server over loopback HTTP with
// the seeded open-loop schedule. Every request is a synchronous
// POST /v1/jobs; repeats are answered from the result cache at
// admission, fresh configs simulate and write back.
type serveMixed struct {
	work   string
	sched  []serveReq
	next   int // first request of the schedule not yet sent
	byName map[string]workloads.Workload

	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	ref map[string][]byte // Normalize'd manifest per kernel/budget
}

func newServe(seed int64, work string, dur time.Duration) *serveMixed {
	s := &serveMixed{work: work, byName: map[string]workloads.Workload{}}
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
		s.byName[w.Name] = w
	}
	s.sched = schedule(seed, dur, serveRate, names)
	return s
}

func serveKey(kernel string, maxUops uint64) string {
	return "serve/" + kernel + "/" + strconv.FormatUint(maxUops, 10)
}

// setUp starts a server on a fresh cache directory and runs the warm-up:
// every hot config once (misses that fill the cache), then once more
// (hits).
func (s *serveMixed) setUp() error {
	dir, err := os.MkdirTemp(s.work, "cache-*")
	if err != nil {
		return err
	}
	s.dir = dir
	s.srv = serve.New(serve.Config{Workers: serveConns, CacheDir: dir})
	s.ts = httptest.NewServer(s.srv)
	s.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
	}
	for pass := 0; pass < 2; pass++ {
		for _, w := range workloads.All() {
			if _, _, err := s.submit(w.Name, serveHotUops, ""); err != nil {
				return fmt.Errorf("warm-up %s: %w", w.Name, err)
			}
		}
	}
	return nil
}

func (s *serveMixed) tearDown() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
		s.srv.Close()
		os.RemoveAll(s.dir)
		s.ts = nil
	}
}

// reference runs every config the schedule submits through the serial
// path, harness.RunOne.
func (s *serveMixed) reference() error {
	s.ref = map[string][]byte{}
	for _, w := range workloads.All() {
		if err := s.refOne(w.Name, serveHotUops); err != nil {
			return err
		}
	}
	for _, r := range s.sched {
		if err := s.refOne(r.kernel, r.maxUops); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveMixed) refOne(kernel string, maxUops uint64) error {
	key := serveKey(kernel, maxUops)
	if s.ref[key] != nil {
		return nil
	}
	res, err := harness.RunOne(pipeline.IcelakeSCC(scc.LevelFull), s.byName[kernel],
		harness.Options{MaxUops: maxUops, Parallel: 1})
	if err != nil {
		return err
	}
	b, err := manifestBytes(res)
	if err != nil {
		return err
	}
	s.ref[key] = b
	return nil
}

func (s *serveMixed) digests() digestSet {
	d := digestSet{}
	for k, b := range s.ref {
		d.add(k, b)
	}
	return d
}

// submit posts one synchronous job and returns its status. A non-empty
// traceparent continues the benchmark's trace into the server.
func (s *serveMixed) submit(kernel string, maxUops uint64, traceparent string) (*serve.JobStatus, int, error) {
	body := fmt.Sprintf(`{"workload":%q,"max_uops":%d,"wait":true}`, kernel, maxUops)
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/jobs", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(tracing.TraceparentHeader, traceparent)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("POST /v1/jobs = %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, resp.StatusCode, err
	}
	if st.State != "done" {
		return nil, resp.StatusCode, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	return &st, resp.StatusCode, nil
}

// outcome is what one sent request produced.
type outcome struct {
	req      serveReq
	latency  time.Duration // response time minus due time
	late     time.Duration // send time minus due time
	err      error
	status   int
	hit      bool
	uops     uint64
	manifest []byte
	spans    []spanRec
}

// measure sends the schedule's requests that fall due before deadline,
// timed from the moment each was due. Two senders take requests in due
// order, so a request waits when both connections are busy, as an open
// loop with a bounded connection pool does.
func (s *serveMixed) measure(deadline time.Time, traced bool, rec *recorder) {
	start := time.Now()
	if s.next >= len(s.sched) {
		return
	}
	offset := s.sched[s.next].due
	end := s.next
	for end < len(s.sched) && start.Add(s.sched[end].due-offset).Before(deadline) {
		end++
	}
	reqs := s.sched[s.next:end]
	s.next = end

	outs := make([]outcome, len(reqs))
	var mu sync.Mutex
	nextReq := 0
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := nextReq
				nextReq++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due - offset)
				waitUntil(due)
				outs[i] = s.send(reqs[i], due, traced)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var fresh, hits, freshHits int
	for _, o := range outs {
		rec.attempted++
		if !o.req.repeat {
			fresh++
		}
		if o.err != nil {
			if o.status == http.StatusTooManyRequests {
				rec.counters["serve.rejected"]++
			}
			rec.fail("serve %s/%d: %v", o.req.kernel, o.req.maxUops, o.err)
			continue
		}
		if !bytes.Equal(o.manifest, s.ref[serveKey(o.req.kernel, o.req.maxUops)]) {
			rec.fail("serve %s/%d: manifest differs from the serial reference", o.req.kernel, o.req.maxUops)
			continue
		}
		if o.hit {
			hits++
			if !o.req.repeat {
				freshHits++
			}
		}
		rec.latencies = append(rec.latencies, o.latency.Seconds()*1e3)
		rec.uops += o.uops
		rec.counters["serve.gen_late_ms"] += o.late.Seconds() * 1e3
		rec.spans = append(rec.spans, o.spans...)
	}
	rec.busy += wall
	rec.counters["serve.requests"] += float64(len(reqs))
	rec.counters["serve.hits"] += float64(hits)
	rec.detail = append(rec.detail, fmt.Sprintf(
		"serve-mixed: open loop at %.0f req/s over %d connections, %d requests (%d fresh, %d cache hits, %d fresh hits)",
		serveRate, serveConns, len(reqs), fresh, hits, freshHits))
}

// waitUntil sleeps until shortly before t and spins the rest. A sender
// sleeping to the due time woke 1-3 ms late on a shared virtual machine,
// and the latency from the due time counted that lateness as the
// service's.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - spinAhead)
	for time.Now().Before(t) {
	}
}

// spinAhead is how long before a due time a sender stops sleeping.
const spinAhead = 2 * time.Millisecond

// send submits one request and checks its manifest's shape; the bytes
// are compared against the reference by the caller.
func (s *serveMixed) send(r serveReq, due time.Time, traced bool) outcome {
	o := outcome{req: r, late: time.Since(due)}
	var tr *tracing.Tracer
	var root *tracing.Span
	tp := ""
	if traced {
		tr = tracing.New(tracing.MintTraceID())
		root = tr.StartSpan("bench.request", tracing.SpanID{})
		tp = tracing.FormatTraceparent(tr.TraceID(), root.SpanID())
	}
	st, status, err := s.submit(r.kernel, r.maxUops, tp)
	o.latency = time.Since(due)
	root.End()
	o.status = status
	if err != nil {
		o.err = err
		return o
	}
	o.hit = st.FromCache
	var man obs.Manifest
	if err := json.Unmarshal(st.Manifest, &man); err != nil || man.Stats == nil {
		o.err = fmt.Errorf("manifest decode: %v", err)
		return o
	}
	var buf bytes.Buffer
	if err := man.Normalize().Encode(&buf); err != nil {
		o.err = err
		return o
	}
	o.manifest = buf.Bytes()
	o.uops = man.Stats.CommittedUops
	if traced {
		spans, err := s.jobTrace(st.ID)
		if err != nil {
			o.err = err
			return o
		}
		o.spans = append(fromTracing(tr.Spans()), spans...)
	}
	return o
}

// jobTrace fetches the server's span tree of one job.
func (s *serveMixed) jobTrace(id string) ([]spanRec, error) {
	resp, err := s.client.Get(s.ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace of %s = %d", id, resp.StatusCode)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					SpanID, ParentSpanID string
					Name                 string
					StartTimeUnixNano    string
					EndTimeUnixNano      string
				}
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace of %s: %w", id, err)
	}
	var out []spanRec
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				a, err1 := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64)
				b, err2 := strconv.ParseInt(sp.EndTimeUnixNano, 10, 64)
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("trace of %s: bad span time", id)
				}
				out = append(out, spanRec{
					id: sp.SpanID, parent: sp.ParentSpanID, name: sp.Name,
					start: time.Unix(0, a), end: time.Unix(0, b),
				})
			}
		}
	}
	return out, nil
}

func (s *serveMixed) kernels() []replayTarget {
	var out []replayTarget
	for _, w := range workloads.All() {
		out = append(out, replayTarget{w: w, cfgs: []pipeline.Config{pipeline.IcelakeSCC(scc.LevelFull)}})
	}
	return out
}

// probeSeconds is the length of the serving-tier probe.
const probeSeconds = 4

// serveProbe measures the serving tier's layers in a traced run of any
// workload: a short traced serve-mixed session whose span self times and
// counters go into the detail lines. serve-mixed is not a workload of
// BENCHMARK.json (its latencies tripled between runs minutes apart on a
// shared machine), so its layers are measured here.
func serveProbe(res *benchResult, work string, seed int64) error {
	s := newServe(seed, work, probeSeconds*time.Second)
	if err := s.setUp(); err != nil {
		return err
	}
	defer s.tearDown()
	if err := s.reference(); err != nil {
		return err
	}
	rec := newRecorder()
	s.measure(time.Now().Add(probeSeconds*time.Second), true, rec)
	res.out.Attempted += rec.attempted
	res.out.Failed += rec.failed
	res.note("serving-tier probe (%d s of serve-mixed, traced):", probeSeconds)
	reportSpans(res, rec)
	return nil
}
