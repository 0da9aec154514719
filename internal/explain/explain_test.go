// Tests are an external package: they drive internal/harness to
// simulate the manifest pairs they explain.
package explain_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sccsim/internal/explain"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

const (
	pairWorkload = "xalancbmk"
	pairMaxUops  = 30_000
	pairSample   = 5_000
)

// runManifest produces one journaled, sampled manifest.
func runManifest(t *testing.T, cfg pipeline.Config) *obs.Manifest {
	t.Helper()
	w, ok := workloads.ByName(pairWorkload)
	if !ok {
		t.Fatalf("unknown workload %q", pairWorkload)
	}
	res, err := harness.RunOne(cfg, w, harness.Options{
		MaxUops: pairMaxUops, Journal: true, SampleEvery: pairSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Manifest()
}

// ablationPair is the synthetic regression every test explains: the full
// SCC preset against the same machine with the speculation safety rails
// removed — confidence floors dropped to the minimum and the squash gate
// disabled, so low-confidence invariants get planted and squash-prone
// streams are never phased out. On xalancbmk this turns the SCC win into
// a squash storm (IPC collapses, every transform's dyn-losses spike),
// which is exactly the movement the attribution must explain.
var pairOnce = sync.OnceValues(func() (base, cur pipeline.Config) {
	base = pipeline.IcelakeSCC(scc.LevelFull)
	cur = pipeline.IcelakeSCC(scc.LevelFull)
	cur.SCC.VPConfThreshold = 1
	cur.SCC.BPConfThreshold = 1
	cur.UC.StreamConfThreshold = 0
	cur.UC.SquashGate = 0
	return
})

func ablationPair(t *testing.T) (*obs.Manifest, *obs.Manifest) {
	t.Helper()
	baseCfg, curCfg := pairOnce()
	return runManifest(t, baseCfg), runManifest(t, curCfg)
}

// TestExplainExactSum pins the CPI-stack delta invariant at the diff
// level, mirroring TestCPIStackPartitionsCycles: the nine slot
// numerators sum exactly (integer arithmetic, no float tolerance) to the
// total cycles-per-uop delta numerator.
func TestExplainExactSum(t *testing.T) {
	base, cur := ablationPair(t)
	ex, err := explain.Explain(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	sd := ex.CPIStack
	if sd == nil {
		t.Fatal("no CPI stack delta for a pair with committed uops")
	}
	if len(sd.Slots) != 9 {
		t.Fatalf("got %d slots, want 9", len(sd.Slots))
	}
	var sum int64
	for _, s := range sd.Slots {
		sum += s.DeltaNum
	}
	if sum != sd.DeltaNum {
		t.Fatalf("slot numerators sum to %d, total delta numerator is %d", sum, sd.DeltaNum)
	}
	db, dc := base.Stats.CommittedUops, cur.Stats.CommittedUops
	want := int64(cur.Stats.Cycles*db) - int64(base.Stats.Cycles*dc)
	if sd.DeltaNum != want {
		t.Fatalf("delta numerator %d != cycles-based witness %d", sd.DeltaNum, want)
	}
	if sd.Denom != db*dc {
		t.Fatalf("denom %d != committed product %d", sd.Denom, db*dc)
	}
	// Shares of the movement must sum to 1 when there is any movement.
	if sd.DeltaNum != 0 {
		var shares float64
		for _, s := range sd.Slots {
			shares += s.Share
		}
		if shares < 0.999999 || shares > 1.000001 {
			t.Fatalf("slot shares sum to %v, want 1", shares)
		}
	}
}

// TestExplainAblationAttribution: the SquashGate ablation must be
// attributed, not just detected — a named CPI slot and a ranked
// transform list (the acceptance criterion behind sccdiff -explain).
func TestExplainAblationAttribution(t *testing.T) {
	base, cur := ablationPair(t)
	ex, err := explain.Explain(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if ex.IPC.Delta >= 0 {
		t.Fatalf("disabling the squash gate should cost IPC; got %+v", ex.IPC)
	}
	if ex.CPIStack.Dominant == "none" || ex.CPIStack.Dominant == "" {
		t.Fatalf("no dominant CPI slot named: %+v", ex.CPIStack)
	}
	if len(ex.Transforms) == 0 {
		t.Fatal("no transform attribution for a journaled pair")
	}
	if ex.Transforms[0].Shift == 0 {
		t.Fatalf("top-ranked transform has zero shift: %+v", ex.Transforms[0])
	}
	for i := 1; i < len(ex.Transforms); i++ {
		a, b := ex.Transforms[i-1].Shift, ex.Transforms[i].Shift
		if abs64(a) < abs64(b) {
			t.Fatalf("transforms not ranked by |shift|: %d before %d", a, b)
		}
	}
	if ex.SquashPenaltyCycles == nil {
		t.Fatal("journaled pair should carry squash penalty movement")
	}
	if ex.SquashPenaltyCycles.Delta <= 0 {
		t.Fatalf("disabling the squash gate should raise the squash penalty; got %+v",
			*ex.SquashPenaltyCycles)
	}
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// TestExplainDeterminism: two independently simulated instances of the
// same pair must explain to byte-identical JSON — the property that lets
// sccserve serve explanations straight from the cache.
func TestExplainDeterminism(t *testing.T) {
	encode := func() []byte {
		base, cur := ablationPair(t)
		ex, err := explain.Explain(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ex.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("explanations differ across identical runs:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// TestExplainGolden pins all three renderings of the ablation pair's
// explanation, like the opt-report goldens. Regenerate with -update.
func TestExplainGolden(t *testing.T) {
	base, cur := ablationPair(t)
	ex, err := explain.Explain(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	renderings := map[string]func() []byte{
		"explain_squashgate.json": func() []byte {
			var buf bytes.Buffer
			ex.Encode(&buf)
			return buf.Bytes()
		},
		"explain_squashgate.txt": func() []byte {
			var buf bytes.Buffer
			ex.WriteText(&buf)
			return buf.Bytes()
		},
		"explain_squashgate.md": func() []byte {
			var buf bytes.Buffer
			ex.WriteMarkdown(&buf)
			return buf.Bytes()
		},
	}
	for name, render := range renderings {
		t.Run(name, func(t *testing.T) {
			got := render()
			path := filepath.Join("testdata", name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from golden (regenerate with -update if intended)\n--- got\n%s\n--- want\n%s",
					name, got, want)
			}
		})
	}
}

// TestExplainSelf: a manifest explained against itself has zero movement
// everywhere and no divergent window.
func TestExplainSelf(t *testing.T) {
	base, _ := ablationPair(t)
	ex, err := explain.Explain(base, base)
	if err != nil {
		t.Fatal(err)
	}
	if ex.IPC.Delta != 0 || ex.CPIStack.DeltaNum != 0 {
		t.Fatalf("self-explanation moved: ipc %+v, stack %+v", ex.IPC, ex.CPIStack)
	}
	if ex.CPIStack.Dominant != "none" {
		t.Fatalf("self-explanation has dominant slot %q, want none", ex.CPIStack.Dominant)
	}
	if ex.Divergence != nil {
		t.Fatalf("self-explanation diverged: %+v", ex.Divergence)
	}
	if len(ex.Transforms) != 0 && ex.Transforms[0].Shift != 0 {
		t.Fatalf("self-explanation shifted a transform: %+v", ex.Transforms[0])
	}
}

// TestExplainIncomparable: different workloads must refuse with the
// typed error sccserve maps to 409.
func TestExplainIncomparable(t *testing.T) {
	base, _ := ablationPair(t)
	other := runOtherWorkload(t)
	_, err := explain.Explain(base, other)
	if err == nil {
		t.Fatal("expected an incomparable error across workloads")
	}
	if _, ok := err.(*explain.IncomparableError); !ok {
		t.Fatalf("got %T (%v), want *explain.IncomparableError", err, err)
	}
}

func runOtherWorkload(t *testing.T) *obs.Manifest {
	t.Helper()
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("unknown workload mcf")
	}
	res, err := harness.RunOne(pipeline.IcelakeSCC(scc.LevelFull), w,
		harness.Options{MaxUops: pairMaxUops})
	if err != nil {
		t.Fatal(err)
	}
	return res.Manifest()
}

// TestExplainDegradesToNotes: manifests lacking scc_report or samples
// (journal-off runs, serve-produced cache entries) must still explain,
// recording each skipped analysis as a note.
func TestExplainDegradesToNotes(t *testing.T) {
	base, cur := ablationPair(t)
	base.SCCReport, cur.SCCReport = nil, nil
	base.Samples, cur.Samples = nil, nil
	ex, err := explain.Explain(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Transforms) != 0 || ex.Divergence != nil || ex.SquashPenaltyCycles != nil {
		t.Fatalf("stripped manifests still produced attribution: %+v", ex)
	}
	if ex.CPIStack == nil {
		t.Fatal("CPI stack should survive stripped observability blocks")
	}
	if len(ex.Notes) < 2 {
		t.Fatalf("expected notes for both skipped analyses, got %q", ex.Notes)
	}
}
