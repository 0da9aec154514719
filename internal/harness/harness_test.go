package harness

import (
	"bytes"
	"strings"
	"testing"

	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/stats"
	"sccsim/internal/workloads"
)

// smallOpts keeps harness tests fast: a few representative workloads at a
// reduced interval length.
func smallOpts(t *testing.T, names ...string) Options {
	t.Helper()
	var ws []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return Options{MaxUops: 40_000, Workloads: ws}
}

func TestRunOneProducesAllMetrics(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	res, err := RunOne(pipeline.IcelakeSCC(scc.LevelFull), w, Options{MaxUops: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CommittedUops == 0 || res.Stats.Cycles == 0 {
		t.Error("missing pipeline stats")
	}
	if res.EnergyJ() <= 0 {
		t.Error("missing energy")
	}
	if res.Mem.L1D == 0 {
		t.Error("missing cache counts")
	}
	if res.Unit == nil {
		t.Error("missing SCC unit stats")
	}
}

func TestRunOneBaselineHasNoUnit(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	res, err := RunOne(pipeline.Icelake(), w, Options{MaxUops: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unit != nil {
		t.Error("baseline run must not carry SCC unit stats")
	}
}

func TestFig6Shapes(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "lbm", "mcf")
	f, err := Fig6Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range f.Names {
		idx[n] = i
	}
	full := f.FullIdx()
	// Baseline row is all-ones by construction.
	for _, v := range f.NormUops[0] {
		if v != 1 {
			t.Errorf("baseline normalized uops = %v", v)
		}
	}
	// xalancbmk (predictable) must compact substantially; lbm (FP) barely.
	if f.NormUops[full][idx["xalancbmk"]] > 0.9 {
		t.Errorf("xalancbmk uops only dropped to %.3f", f.NormUops[full][idx["xalancbmk"]])
	}
	if f.NormUops[full][idx["lbm"]] < f.NormUops[full][idx["xalancbmk"]] {
		t.Error("FP workload compacted more than the predictable one")
	}
	// xalancbmk must speed up; mcf must stay near 1.0 despite compaction.
	if f.NormTime[full][idx["xalancbmk"]] > 0.98 {
		t.Errorf("xalancbmk time = %.3f, expected a speedup", f.NormTime[full][idx["xalancbmk"]])
	}
	if mcf := f.NormTime[full][idx["mcf"]]; mcf < 0.90 || mcf > 1.10 {
		t.Errorf("memory-bound mcf time = %.3f, expected ~1.0", mcf)
	}
	// Output renders.
	var buf bytes.Buffer
	f.Write(&buf)
	for _, frag := range []string{"Figure 6 (top)", "Figure 6 (middle)", "Figure 6 (bottom)", "xalancbmk"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "exchange2")
	f, err := NewSession().Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range f.Names {
		// Fractions sum to ~1 per configuration.
		if s := f.BaseDecode[i] + f.BaseUnopt[i]; s < 0.99 || s > 1.01 {
			t.Errorf("%s baseline fractions sum to %v", name, s)
		}
		if s := f.SCCDecode[i] + f.SCCUnopt[i] + f.SCCOpt[i]; s < 0.99 || s > 1.01 {
			t.Errorf("%s SCC fractions sum to %v", name, s)
		}
		// Hot predictable loops: the optimized partition dominates (§VII-A).
		if f.SCCOpt[i] < 0.5 {
			t.Errorf("%s optimized share = %.2f, want dominant", name, f.SCCOpt[i])
		}
	}
	var buf bytes.Buffer
	f.Write(&buf)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("missing header")
	}
}

func TestFig8Shapes(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "freqmine")
	f, err := NewSession().Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range f.Names {
		if f.NormEnergy[i] >= 1.0 {
			t.Errorf("%s: SCC energy %.3f >= baseline — no saving", name, f.NormEnergy[i])
		}
		if f.NormEnergy[i] < 0.3 {
			t.Errorf("%s: implausibly large saving %.3f", name, f.NormEnergy[i])
		}
	}
	if f.AvgSavings() <= 0 {
		t.Error("average saving must be positive on predictable workloads")
	}
}

func TestFig9RunsBothPredictors(t *testing.T) {
	opts := smallOpts(t, "xalancbmk")
	f, err := NewSession().Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Predictors) != 2 || f.Predictors[0] != "h3vp" || f.Predictors[1] != "eves" {
		t.Fatalf("predictors = %v", f.Predictors)
	}
	for pi := range f.Predictors {
		if f.Reduction[pi][0] <= 0 {
			t.Errorf("%s: no reduction", f.Predictors[pi])
		}
		if f.NormTime[pi][0] >= 1.05 {
			t.Errorf("%s: slower than baseline on the showcase kernel", f.Predictors[pi])
		}
	}
}

func TestFig10SweepsSplits(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "perlbench")
	f, err := NewSession().Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.OptSets) != 3 {
		t.Fatalf("splits = %v", f.OptSets)
	}
	best := f.BestSplit()
	if best != 12 && best != 24 && best != 36 {
		t.Errorf("best split = %d", best)
	}
	for si := range f.OptSets {
		if m := stats.Mean(f.NormTime[si]); m <= 0 || m > 1.5 {
			t.Errorf("split %d mean time = %v", f.OptSets[si], m)
		}
	}
}

func TestFig11WidthMonotonicity(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "exchange2")
	f, err := NewSession().Fig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Reduction must not increase as widths shrink (64 -> 8).
	for wi := range f.Names {
		for widx := 1; widx < len(f.Widths); widx++ {
			if f.Reduction[widx][wi] > f.Reduction[widx-1][wi]+0.02 {
				t.Errorf("%s: reduction grew when width shrank %d->%d (%.3f -> %.3f)",
					f.Names[wi], f.Widths[widx-1], f.Widths[widx],
					f.Reduction[widx-1][wi], f.Reduction[widx][wi])
			}
		}
	}
	var buf bytes.Buffer
	f.Write(&buf)
	if !strings.Contains(buf.String(), "live-out census") {
		t.Error("missing live-out census")
	}
}

func TestTable1AndOverheadRender(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	out := buf.String()
	for _, frag := range []string{"2.4 GHz", "2304 uops", "352", "Random"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I missing %q", frag)
		}
	}
	buf.Reset()
	WriteOverhead(&buf)
	if !strings.Contains(buf.String(), "Area overhead") {
		t.Error("overhead output incomplete")
	}
}

func TestExtensionShapes(t *testing.T) {
	opts := smallOpts(t, "swaptions", "leela")
	f, err := NewSession().Ext(opts)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range f.Names {
		idx[n] = i
	}
	// The FP extension must unlock extra reduction on the FP-recurrence
	// kernel and never reduce what the paper config already achieves.
	if f.ExtRed[idx["swaptions"]] <= f.PaperRed[idx["swaptions"]] {
		t.Errorf("extension did not help swaptions: %.3f vs %.3f",
			f.ExtRed[idx["swaptions"]], f.PaperRed[idx["swaptions"]])
	}
	for i, n := range f.Names {
		if f.ExtRed[i] < f.PaperRed[i]-0.02 {
			t.Errorf("%s: extension reduced compaction (%.3f -> %.3f)",
				n, f.PaperRed[i], f.ExtRed[i])
		}
	}
	var buf bytes.Buffer
	f.Write(&buf)
	if !strings.Contains(buf.String(), "Extension") {
		t.Error("missing header")
	}
}
