package serve

// End-to-end service determinism (acceptance criterion): a manifest
// fetched from the HTTP service — cold, and warm from the result cache —
// is byte-identical after Normalize to one produced by harness.RunOne
// with the same (workload, configuration). The concurrent-load variant
// of the same assertion lives in sccbench -experiment loadgen.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
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

	// Metrics reflect one miss + one hit.
	m := &srv.met
	if c, h, mi := m.completed.Value(), m.cacheHits.Value(), m.cacheMisses.Value(); c != 2 || h != 1 || mi != 1 {
		t.Errorf("metrics completed=%d hits=%d misses=%d, want 2/1/1", c, h, mi)
	}
	p50, ok50 := m.latencyPercentile(50)
	p99, ok99 := m.latencyPercentile(99)
	if !ok50 || !ok99 {
		t.Fatal("latency percentiles absent after completed jobs")
	}
	if p99 < p50 {
		t.Errorf("latency percentiles inverted: p50 %.3f > p99 %.3f", p50, p99)
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
