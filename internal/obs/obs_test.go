// External test package: these tests drive the sampler and manifest
// through internal/harness, which imports obs — an internal test package
// would create an import cycle.
package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runSampled(t *testing.T, name string, maxUops, every uint64) *harness.RunResult {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	res, err := harness.RunOne(pipeline.IcelakeSCC(scc.LevelFull), w,
		harness.Options{MaxUops: maxUops, SampleEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSamplerSeriesCoherence pins the sampler's core invariant: the
// interval series is an exact partition of the run. Summing any delta
// column reproduces the final counter, cumulative counters are
// monotone, and the tail interval is flushed so no committed work goes
// unaccounted.
func TestSamplerSeriesCoherence(t *testing.T) {
	res := runSampled(t, "xalancbmk", 30_000, 5_000)
	ivs := res.Samples
	if len(ivs) < 3 {
		t.Fatalf("got %d intervals for a 30k-uop run at interval 5k", len(ivs))
	}

	var committed, eliminated, cycles, squashed, fetched uint64
	prevUops, prevCycle := uint64(0), uint64(0)
	for i, iv := range ivs {
		if iv.Index != i {
			t.Errorf("interval %d has index %d", i, iv.Index)
		}
		if iv.EndUops <= prevUops || iv.EndCycle <= prevCycle {
			t.Errorf("interval %d not monotone: end_uops %d (prev %d), end_cycle %d (prev %d)",
				i, iv.EndUops, prevUops, iv.EndCycle, prevCycle)
		}
		if iv.Committed != iv.EndUops-prevUops {
			t.Errorf("interval %d delta mismatch: committed %d, end_uops step %d",
				i, iv.Committed, iv.EndUops-prevUops)
		}
		prevUops, prevCycle = iv.EndUops, iv.EndCycle
		committed += iv.Committed
		eliminated += iv.Eliminated
		cycles += iv.Cycles
		squashed += iv.SquashedUops
		fetched += iv.FetchDecodeSlots + iv.FetchUnoptSlots + iv.FetchOptSlots
	}

	st := res.Stats
	if committed != st.CommittedUops {
		t.Errorf("interval committed sum %d != final %d", committed, st.CommittedUops)
	}
	if eliminated != st.EliminatedUops() {
		t.Errorf("interval eliminated sum %d != final %d", eliminated, st.EliminatedUops())
	}
	if cycles != st.Cycles {
		t.Errorf("interval cycle sum %d != final %d", cycles, st.Cycles)
	}
	if squashed != st.SquashedUops {
		t.Errorf("interval squash sum %d != final %d", squashed, st.SquashedUops)
	}
	if fetched != st.TotalFetchedSlots() {
		t.Errorf("interval fetch-slot sum %d != final %d", fetched, st.TotalFetchedSlots())
	}
	if last := ivs[len(ivs)-1]; last.EndUops != st.CommittedUops {
		t.Errorf("tail interval not flushed: ends at %d uops, run committed %d",
			last.EndUops, st.CommittedUops)
	}
}

// TestSamplingDisabledByDefault: the default Options carry no sampling,
// and a run without sampling must carry no series (and pay no hook).
func TestSamplingDisabledByDefault(t *testing.T) {
	w, _ := workloads.ByName("mcf")
	res, err := harness.RunOne(pipeline.IcelakeSCC(scc.LevelFull), w,
		harness.Options{MaxUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != nil {
		t.Errorf("sampling off, got %d intervals", len(res.Samples))
	}
}

// TestSamplerFinalizeNilStats: a failed run finalizes against nil and
// returns whatever was collected, without panicking.
func TestSamplerFinalizeNilStats(t *testing.T) {
	var s obs.Sampler
	if got := s.Finalize(nil); got != nil {
		t.Errorf("empty sampler finalized to %d intervals", len(got))
	}
}

// TestManifestDeterministic: two identical runs produce byte-identical
// normalized manifests — the property that makes the content-addressed
// manifest a safe result-cache entry.
func TestManifestDeterministic(t *testing.T) {
	encode := func() []byte {
		res := runSampled(t, "lbm", 20_000, 5_000)
		var buf bytes.Buffer
		if err := res.Manifest().Normalize().Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different manifests")
	}
}

// TestManifestGolden pins the manifest schema: a fixed-seed run's
// normalized manifest must match the checked-in golden byte for byte.
// Schema changes are deliberate acts: regenerate with
//
//	go test ./internal/obs -run Golden -update
//
// and bump obs.SchemaVersion when the change is incompatible.
func TestManifestGolden(t *testing.T) {
	res := runSampled(t, "xalancbmk", 20_000, 5_000)
	var buf bytes.Buffer
	if err := res.Manifest().Normalize().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest_xalancbmk.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("manifest diverged from golden %s (regenerate with -update if intended)\n--- got ---\n%s",
			golden, buf.Bytes())
	}
}

// TestManifestReadBack: WriteFile then ReadManifest reproduces the
// manifest (the consumer side of the artifact).
func TestManifestReadBack(t *testing.T) {
	res := runSampled(t, "mcf", 15_000, 5_000)
	man := res.Manifest()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != obs.SchemaVersion || back.SimVersion != obs.Version {
		t.Errorf("read back schema %d version %q", back.Schema, back.SimVersion)
	}
	if back.Workload != man.Workload || back.ConfigHash != man.ConfigHash {
		t.Errorf("read back %s/%s, wrote %s/%s",
			back.Workload, back.ConfigHash, man.Workload, man.ConfigHash)
	}
	if len(back.Samples) != len(man.Samples) {
		t.Errorf("read back %d samples, wrote %d", len(back.Samples), len(man.Samples))
	}
	if back.Derived != man.Derived {
		t.Errorf("derived metrics diverged: %+v vs %+v", back.Derived, man.Derived)
	}
}

// TestConfigHashSensitivity: the hash must separate every axis of the
// cache key (workload, any config field, simulator version is covered by
// construction) and be stable for equal inputs.
func TestConfigHashSensitivity(t *testing.T) {
	base := pipeline.IcelakeSCC(scc.LevelFull)
	if obs.ConfigHash("mcf", base) != obs.ConfigHash("mcf", base) {
		t.Error("equal inputs hash differently")
	}
	if obs.ConfigHash("mcf", base) == obs.ConfigHash("lbm", base) {
		t.Error("workload not part of the hash")
	}
	tweaked := base
	tweaked.MaxUops = base.MaxUops + 1
	if obs.ConfigHash("mcf", base) == obs.ConfigHash("mcf", tweaked) {
		t.Error("MaxUops not part of the hash")
	}
	baseline := pipeline.Icelake()
	if obs.ConfigHash("mcf", base) == obs.ConfigHash("mcf", baseline) {
		t.Error("SCC config hashes like the baseline")
	}
}

// TestIndexAggregates: the index mirrors each added manifest's headline
// numbers.
func TestIndexAggregates(t *testing.T) {
	res := runSampled(t, "lbm", 15_000, 5_000)
	man := res.Manifest()
	ix := obs.NewIndex()
	ix.Add("a.json", "fig6", man)
	if len(ix.Entries) != 1 {
		t.Fatalf("got %d entries", len(ix.Entries))
	}
	e := ix.Entries[0]
	if e.Workload != "lbm" || e.Experiment != "fig6" || e.File != "a.json" {
		t.Errorf("entry identity wrong: %+v", e)
	}
	if e.IPC != man.Derived.IPC || e.EnergyJ != man.Derived.EnergyJ {
		t.Errorf("entry metrics diverge from manifest: %+v", e)
	}
	if e.SampleIntervals != len(man.Samples) {
		t.Errorf("entry telemetry wrong: %+v", e)
	}
	path := filepath.Join(t.TempDir(), "index.json")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Contains(data, []byte(`"entries"`)) {
		t.Errorf("index file unreadable or missing entries: %v", err)
	}
}
