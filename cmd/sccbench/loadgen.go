package main

// -experiment loadgen: the determinism suite promoted to a service-level
// SLO. It hammers a sccserve instance (spawned in-process by default,
// or a remote one via -serve-url) with concurrent mixed-config
// submissions — repeats included, so the cache path is exercised under
// contention — asserts every returned manifest is byte-identical to a
// locally computed Normalize'd manifest of the same (workload, config),
// and reports achieved RPS, cache hit rate, and 429 backpressure
// events.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/serve"
	"sccsim/internal/telemetry"
	"sccsim/internal/workloads"
)

// loadgenDefaultMaxUops keeps the per-request simulations reduced-scale
// so hundreds of requests finish in seconds.
const loadgenDefaultMaxUops = 20_000

// loadgenPair is one distinct (workload, config) the generator mixes.
type loadgenPair struct {
	wl       workloads.Workload
	cfg      pipeline.Config
	expected []byte // local Normalize'd manifest bytes — the SLO oracle
}

func runLoadgen(opts harness.Options, serveURL string, requests, concurrency int) error {
	if requests < 1 || concurrency < 1 {
		return fmt.Errorf("loadgen needs -loadgen-requests >= 1 and -loadgen-concurrency >= 1")
	}
	wls := opts.Workloads
	if wls == nil {
		// A representative trio (predictable / memory-bound / fp) keeps
		// the default run fast; -workloads overrides.
		for _, name := range []string{"xalancbmk", "mcf", "lbm"} {
			w, _ := workloads.ByName(name)
			wls = append(wls, w)
		}
	}
	maxUops := opts.MaxUops
	if maxUops == 0 {
		maxUops = loadgenDefaultMaxUops
	}

	// The local oracle: one manifest per distinct (workload, config),
	// computed through harness.RunOne exactly as a CLI user would.
	var pairs []loadgenPair
	for _, w := range wls {
		for _, cfg := range []pipeline.Config{pipeline.Icelake(), pipeline.IcelakeSCC(scc.LevelFull)} {
			res, err := harness.RunOne(cfg, w, harness.Options{MaxUops: maxUops, Parallel: opts.Parallel})
			if err != nil {
				return fmt.Errorf("loadgen oracle %s: %w", w.Name, err)
			}
			man := res.Manifest()
			man.Normalize()
			var buf bytes.Buffer
			if err := man.Encode(&buf); err != nil {
				return err
			}
			pairs = append(pairs, loadgenPair{wl: w, cfg: cfg, expected: buf.Bytes()})
		}
	}

	// Target service: in-process by default, remote via -serve-url.
	base := serveURL
	if base == "" {
		cache, err := os.MkdirTemp("", "sccserve-loadgen-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(cache)
		srv := serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), CacheDir: cache})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		base = ts.URL
		fmt.Printf("loadgen: spawned in-process sccserve at %s (cache %s)\n", base, cache)
	}
	client := &http.Client{Timeout: 5 * time.Minute}

	var (
		next       atomic.Int64
		okCount    atomic.Int64
		hitCount   atomic.Int64
		rejections atomic.Int64
		mismatches atomic.Int64
		failures   atomic.Int64
		firstErr   sync.Once
		errSample  error
	)
	record := func(err error) {
		failures.Add(1)
		firstErr.Do(func() { errSample = err })
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				p := pairs[i%len(pairs)]
				st, retried, err := loadgenSubmit(client, base, p, maxUops)
				rejections.Add(retried)
				if err != nil {
					record(fmt.Errorf("request %d (%s): %w", i, p.wl.Name, err))
					continue
				}
				if st.FromCache {
					hitCount.Add(1)
				}
				man, err := loadgenManifestBytes(st)
				if err != nil {
					record(fmt.Errorf("request %d (%s): %w", i, p.wl.Name, err))
					continue
				}
				if !bytes.Equal(man, p.expected) {
					mismatches.Add(1)
					record(fmt.Errorf("request %d (%s): manifest differs from local oracle (%d vs %d bytes)",
						i, p.wl.Name, len(man), len(p.expected)))
					continue
				}
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	ok, hits := okCount.Load(), hitCount.Load()
	rps := float64(requests) / wall.Seconds()
	hitRate := 0.0
	if ok > 0 {
		hitRate = float64(hits) / float64(ok)
	}
	fmt.Printf("loadgen: %d requests over %d configs, %d in flight: %v wall, %.1f req/s\n",
		requests, len(pairs), concurrency, wall.Round(time.Millisecond), rps)
	fmt.Printf("loadgen: %d ok (%d served from cache, hit rate %.1f%%), %d retries after 429, %d manifest mismatches, %d failures\n",
		ok, hits, hitRate*100, rejections.Load(), mismatches.Load(), failures.Load())
	if raw, err := loadgenFetchMetrics(client, base); err == nil {
		fmt.Printf("loadgen: server metrics: %s\n", raw)
	}
	if failures.Load() > 0 {
		return fmt.Errorf("loadgen SLO violated: %d/%d requests failed (first: %v)",
			failures.Load(), requests, errSample)
	}
	fmt.Printf("loadgen: SLO held — every manifest byte-identical to the local oracle\n")
	return nil
}

// loadgenSubmit posts one synchronous job, honouring 429 Retry-After
// backpressure with bounded retries. Returns the terminal status and
// how many times the request was pushed back.
func loadgenSubmit(client *http.Client, base string, p loadgenPair, maxUops uint64) (*serve.JobStatus, int64, error) {
	cfgJSON, err := json.Marshal(p.cfg)
	if err != nil {
		return nil, 0, err
	}
	body := fmt.Sprintf(`{"workload":%q,"config":%s,"max_uops":%d,"wait":true}`,
		p.wl.Name, cfgJSON, maxUops)
	var retried int64
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return nil, retried, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, retried, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retried++
			delay := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra >= 1 {
				delay = time.Duration(ra) * time.Second
			}
			if delay > 2*time.Second {
				delay = 2 * time.Second // keep the generator aggressive
			}
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, retried, fmt.Errorf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, retried, err
		}
		if st.State != "done" {
			return nil, retried, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		}
		return &st, retried, nil
	}
	return nil, retried, fmt.Errorf("still backpressured after 50 attempts")
}

// loadgenManifestBytes re-renders the embedded (transit-compacted)
// manifest through the same Normalize+Encode path as the local oracle,
// so the comparison is byte-exact end to end.
func loadgenManifestBytes(st *serve.JobStatus) ([]byte, error) {
	if len(st.Manifest) == 0 {
		return nil, fmt.Errorf("job %s returned no manifest", st.ID)
	}
	var man obs.Manifest
	if err := json.Unmarshal(st.Manifest, &man); err != nil {
		return nil, fmt.Errorf("manifest decode: %w", err)
	}
	var buf bytes.Buffer
	if err := man.Normalize().Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadgenFetchMetrics scrapes the server's /metrics.prom exposition and
// summarizes the job counters and latency percentiles in one line.
func loadgenFetchMetrics(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + "/metrics.prom")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	exp, err := telemetry.ParseExposition(raw)
	if err != nil {
		return "", err
	}
	m := exp.Samples
	return fmt.Sprintf("completed %v, failed %v, rejected %v, cache hits %v, misses %v, p50 %.1fms, p99 %.1fms",
		m["sccserve_jobs_completed_total"], m["sccserve_jobs_failed_total"], m["sccserve_jobs_rejected_total"],
		m["sccserve_cache_hits_total"], m["sccserve_cache_misses_total"],
		m["sccserve_job_latency_p50_milliseconds"], m["sccserve_job_latency_p99_milliseconds"]), nil
}
