package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

func TestResultCacheHitReproducesRun(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	opts := Options{MaxUops: 20_000, CacheDir: dir, SampleEvery: 5_000}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)

	cold, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first run claims a cache hit")
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) != 1 {
		t.Fatalf("want 1 cache entry after cold run, got %v", entries)
	}

	warm, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("second identical run missed the cache")
	}
	if !reflect.DeepEqual(cold.Stats, warm.Stats) {
		t.Error("cached stats differ from the simulated run")
	}
	if !reflect.DeepEqual(cold.Samples, warm.Samples) {
		t.Error("cached interval series differs from the simulated run")
	}
	if cold.EnergyJ() != warm.EnergyJ() {
		t.Errorf("energy mismatch: cold %g warm %g", cold.EnergyJ(), warm.EnergyJ())
	}
}

func TestResultCacheMisses(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)

	// Populate without sampling.
	if _, err := RunOne(cfg, w, Options{MaxUops: 20_000, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}

	// A different work budget is a different ConfigHash: miss.
	other, err := RunOne(cfg, w, Options{MaxUops: 10_000, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if other.FromCache {
		t.Error("different MaxUops must not hit the cache")
	}

	// Asking for samples when the cached manifest has none: miss.
	sampled, err := RunOne(cfg, w, Options{MaxUops: 20_000, CacheDir: dir, SampleEvery: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.FromCache {
		t.Error("sampling request must miss a sample-less cache entry")
	}
	if len(sampled.Samples) == 0 {
		t.Error("re-run did not produce samples")
	}
}

func TestResultCacheRejectsStaleVersion(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	opts := Options{MaxUops: 20_000, CacheDir: dir}

	cold, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: rewrite the entry claiming an older simulator version. The
	// hash check must reject it (hash folds the version in), forcing a
	// fresh simulation rather than serving stale numbers.
	path := filepath.Join(dir, CacheName(cold.Workload, obs.ConfigHash(cold.Workload, cold.Config)))
	man, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	man.SimVersion = "sccsim-0.0"
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	again, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.FromCache {
		t.Error("stale-version entry served from cache")
	}

	// A corrupt entry must degrade to a miss, not an error.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err = RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.FromCache {
		t.Error("corrupt entry served from cache")
	}
}

func TestResultCacheDeletesCorruptEntry(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	opts := Options{MaxUops: 20_000, CacheDir: dir}

	cold, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CacheName(cold.Workload, obs.ConfigHash(cold.Workload, cold.Config)))

	// Corrupt the entry, then probe without running: the probe must
	// miss AND delete the file, so one torn write cannot poison every
	// later lookup of this (workload, config).
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res := Probe(dir, w, cold.Config, Options{MaxUops: 20_000}); res != nil {
		t.Fatal("corrupt entry served from cache")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still present after probe: %v", err)
	}

	// The slot self-heals: the next run re-simulates and rewrites it.
	again, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.FromCache {
		t.Error("deleted slot claimed a cache hit")
	}
	if res := Probe(dir, w, cold.Config, Options{MaxUops: 20_000}); res == nil || !res.FromCache {
		t.Error("rewritten slot did not serve the repeat")
	}
}

func TestCacheProbeAndHashLookup(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)

	if res := Probe(dir, w, cfg, Options{MaxUops: 20_000}); res != nil {
		t.Fatal("probe of an empty cache hit")
	}
	cold, err := RunOne(cfg, w, Options{MaxUops: 20_000, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hash := obs.ConfigHash(cold.Workload, cold.Config)

	// Probe resolves the effective config exactly like a run would:
	// opts.MaxUops participates in the key.
	hit := Probe(dir, w, cfg, Options{MaxUops: 20_000})
	if hit == nil || !hit.FromCache {
		t.Fatal("warm probe missed")
	}
	if !reflect.DeepEqual(hit.Stats, cold.Stats) {
		t.Error("probed stats differ from the simulated run")
	}
	if Probe(dir, w, cfg, Options{MaxUops: 10_000}) != nil {
		t.Error("probe with a different work budget must miss")
	}

	// Hash lookup: full hash and 12-char prefix both resolve; an
	// unknown hash and a too-short prefix do not.
	if man := LookupHash(dir, hash); man == nil || man.ConfigHash != hash {
		t.Error("full-hash lookup failed")
	}
	if man := LookupHash(dir, hash[:12]); man == nil {
		t.Error("12-char prefix lookup failed")
	}
	if LookupHash(dir, "deadbeefdeadbeef") != nil {
		t.Error("unknown hash resolved")
	}
	if LookupHash(dir, hash[:8]) != nil {
		t.Error("too-short prefix must not resolve")
	}
}

// TestResultCacheKeepsSCCReport: a journaled run misses a cached
// manifest that has no scc_report block and writes one back with it;
// the journaled repeat hits, and its manifest keeps the cached block.
func TestResultCacheKeepsSCCReport(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	dir := t.TempDir()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	if _, err := RunOne(cfg, w, Options{MaxUops: 20_000, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}

	opts := Options{MaxUops: 20_000, CacheDir: dir, Journal: true}
	cold, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Error("journaled run hit a manifest without scc_report")
	}
	want := cold.Manifest().SCCReport
	if want == nil || len(want.Transforms) == 0 {
		t.Fatalf("journaled run's manifest scc_report = %+v, want transform tallies", want)
	}

	warm, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("journaled repeat missed the manifest its predecessor wrote")
	}
	if got := warm.Manifest().SCCReport; !reflect.DeepEqual(got, want) {
		t.Errorf("cache hit's scc_report = %+v, want the cached %+v", got, want)
	}
}
