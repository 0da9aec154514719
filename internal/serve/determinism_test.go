package serve

// End-to-end service determinism: a manifest fetched from the HTTP
// service — cold, warm from the result cache, and under concurrent
// mixed-config load with 429 backpressure — is byte-identical after
// Normalize to one produced by harness.RunOne with the same (workload,
// configuration).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/telemetry"
	"sccsim/internal/workloads"
)

const detMaxUops = 20_000

func localManifest(t *testing.T, cfg pipeline.Config, w workloads.Workload, opts harness.Options) []byte {
	t.Helper()
	res, err := harness.RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	man := res.Manifest()
	man.Normalize()
	var buf bytes.Buffer
	if err := man.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, resp.StatusCode
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return &st, resp.StatusCode
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func TestServiceManifestMatchesLocalRun(t *testing.T) {
	wl, _ := workloads.ByName("xalancbmk")
	srv := New(Config{Workers: 2, QueueDepth: 8, CacheDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The service's default preset is the full-SCC Icelake config.
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	want := localManifest(t, cfg, wl, harness.Options{MaxUops: detMaxUops})

	// Cold: simulated on the pool.
	cold, code := postJob(t, ts, `{"workload":"xalancbmk","max_uops":20000,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("cold submit status %d", code)
	}
	if cold.State != string(StateDone) || cold.FromCache {
		t.Fatalf("cold job state=%s from_cache=%v, want fresh done (error %q)",
			cold.State, cold.FromCache, cold.Error)
	}
	code, coldMan := get(t, ts.URL+"/v1/jobs/"+cold.ID+"/manifest")
	if code != http.StatusOK {
		t.Fatalf("manifest fetch status %d", code)
	}
	if !bytes.Equal(coldMan, want) {
		t.Errorf("cold service manifest differs from local harness.RunOne manifest (%d vs %d bytes)",
			len(coldMan), len(want))
	}

	// Warm: the identical config must be answered from the cache and
	// still produce the same bytes.
	warm, _ := postJob(t, ts, `{"workload":"xalancbmk","max_uops":20000,"wait":true}`)
	if warm.State != string(StateDone) || !warm.FromCache {
		t.Fatalf("warm job state=%s from_cache=%v, want cached done", warm.State, warm.FromCache)
	}
	code, warmMan := get(t, ts.URL+"/v1/jobs/"+warm.ID+"/manifest")
	if code != http.StatusOK {
		t.Fatalf("warm manifest fetch status %d", code)
	}
	if !bytes.Equal(warmMan, want) {
		t.Error("cached service manifest differs from local manifest")
	}

	// The embedded manifest in the status document round-trips to the
	// same bytes (it is compacted in transit; Encode restores it).
	var emb obs.Manifest
	if err := json.Unmarshal(warm.Manifest, &emb); err != nil {
		t.Fatalf("embedded manifest: %v", err)
	}
	var buf bytes.Buffer
	if err := emb.Normalize().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("embedded status manifest does not round-trip to the local manifest bytes")
	}

	// Direct cache probe by config hash serves the same manifest.
	if cold.ConfigHash != obs.ConfigHash(wl.Name, effCfg(cfg, detMaxUops)) {
		t.Errorf("service config hash %s does not match the local hash", cold.ConfigHash)
	}
	code, probe := get(t, ts.URL+"/v1/cache/"+cold.ConfigHash)
	if code != http.StatusOK {
		t.Fatalf("cache probe status %d", code)
	}
	if !bytes.Equal(probe, want) {
		t.Error("cache-probe manifest differs from local manifest")
	}

	// Metrics reflect one miss + one hit, and both end-to-end latencies.
	m := &srv.met
	if c, h, mi := m.completed.Value(), m.cacheHits.Value(), m.cacheMisses.Value(); c != 2 || h != 1 || mi != 1 {
		t.Errorf("metrics completed=%d hits=%d misses=%d, want 2/1/1", c, h, mi)
	}
	if n := m.latency.Count(); n != 2 {
		t.Errorf("sccserve_job_latency_seconds count = %d, want 2", n)
	}

	// The flight recorder captured both jobs' admission and completion.
	code, raw := get(t, ts.URL+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight fetch status %d", code)
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range dump.Events {
		seen[ev.Msg] = true
	}
	for _, want := range []string{"job submitted", "job done"} {
		if !seen[want] {
			t.Errorf("flight ring (%d events) has no %q event", dump.Total, want)
		}
	}
}

// TestServiceManifestsMatchLocalRunsUnderLoad posts three workloads ×
// {baseline, full SCC} as raw configs from many goroutines against one
// worker and a two-slot queue. Repeats contend for the queue and the
// cache, rejected submissions are retried after their Retry-After, and
// every manifest must equal the harness.RunOne oracle byte for byte.
func TestServiceManifestsMatchLocalRunsUnderLoad(t *testing.T) {
	const maxUops, goroutines, perGoroutine = 10_000, 8, 3
	type pair struct {
		body string
		want []byte
	}
	var pairs []pair
	for _, name := range []string{"xalancbmk", "mcf", "lbm"} {
		wl, _ := workloads.ByName(name)
		for _, cfg := range []pipeline.Config{pipeline.Icelake(), pipeline.IcelakeSCC(scc.LevelFull)} {
			cfgJSON, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{
				body: fmt.Sprintf(`{"workload":%q,"config":%s,"max_uops":%d,"wait":true}`, name, cfgJSON, maxUops),
				want: localManifest(t, cfg, wl, harness.Options{MaxUops: maxUops}),
			})
		}
	}

	srv := New(Config{Workers: 1, QueueDepth: 2, CacheDir: t.TempDir()})
	defer srv.Close()
	// The worker holds its first job until some submission has been
	// rejected, so the 429 → Retry-After → resubmit path runs every time.
	overflowed := make(chan struct{})
	var overflow sync.Once
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, opts harness.Options) (*harness.RunResult, error) {
		select {
		case <-overflowed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return defaultRun(ctx, w, cfg, opts)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submit := func(body string) (*JobStatus, error) {
		for attempt := 0; attempt < 30; attempt++ {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				return nil, err
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			switch resp.StatusCode {
			case http.StatusOK:
				var st JobStatus
				return &st, json.Unmarshal(raw, &st)
			case http.StatusTooManyRequests:
				overflow.Do(func() { close(overflowed) })
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					return nil, fmt.Errorf("429 with Retry-After %q", resp.Header.Get("Retry-After"))
				}
				time.Sleep(time.Duration(ra) * time.Second)
			default:
				return nil, fmt.Errorf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
			}
		}
		return nil, fmt.Errorf("still rejected after 30 attempts")
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perGoroutine; k++ {
				i := (g + k) % len(pairs)
				st, err := submit(pairs[i].body)
				if err != nil {
					t.Errorf("pair %d: %v", i, err)
					continue
				}
				if st.State != string(StateDone) {
					t.Errorf("pair %d: job %s finished %s (error %q)", i, st.ID, st.State, st.Error)
					continue
				}
				var man obs.Manifest
				if err := json.Unmarshal(st.Manifest, &man); err != nil {
					t.Errorf("pair %d: manifest: %v", i, err)
					continue
				}
				var buf bytes.Buffer
				if err := man.Normalize().Encode(&buf); err != nil {
					t.Errorf("pair %d: encode: %v", i, err)
					continue
				}
				if !bytes.Equal(buf.Bytes(), pairs[i].want) {
					t.Errorf("pair %d: served manifest differs from the local oracle (%d vs %d bytes)",
						i, buf.Len(), len(pairs[i].want))
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.met.rejected.Value() == 0 {
		t.Error("no submission was rejected; the retry path did not run")
	}
}

func effCfg(cfg pipeline.Config, maxUops uint64) pipeline.Config {
	cfg.MaxUops = maxUops
	return cfg
}

func TestServiceBaselinePresetAndRawConfigAgree(t *testing.T) {
	wl, _ := workloads.ByName("mcf")
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	want := localManifest(t, pipeline.Icelake(), wl, harness.Options{MaxUops: detMaxUops})

	// Named preset.
	st, code := postJob(t, ts, `{"workload":"mcf","preset":"baseline","max_uops":20000,"wait":true}`)
	if code != http.StatusOK || st.State != string(StateDone) {
		t.Fatalf("preset submit: code %d state %+v", code, st)
	}
	_, man := get(t, ts.URL+"/v1/jobs/"+st.ID+"/manifest")
	if !bytes.Equal(man, want) {
		t.Error("preset-submitted manifest differs from local baseline run")
	}

	// The same configuration posted raw must hash and measure identically.
	cfgJSON, err := json.Marshal(pipeline.Icelake())
	if err != nil {
		t.Fatal(err)
	}
	raw, code := postJob(t, ts,
		`{"workload":"mcf","config":`+string(cfgJSON)+`,"max_uops":20000,"wait":true}`)
	if code != http.StatusOK || raw.State != string(StateDone) {
		t.Fatalf("raw-config submit: code %d state %+v", code, raw)
	}
	if raw.ConfigHash != st.ConfigHash {
		t.Errorf("raw config hash %s != preset hash %s", raw.ConfigHash, st.ConfigHash)
	}
	_, man2 := get(t, ts.URL+"/v1/jobs/"+raw.ID+"/manifest")
	if !bytes.Equal(man2, want) {
		t.Error("raw-config manifest differs from local baseline run")
	}
}
