package obs_test

import (
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/obs"
)

func diffIndex(entries ...obs.IndexEntry) *obs.Index {
	ix := obs.NewIndex()
	ix.Entries = entries
	return ix
}

func entry(exp, wl string, ipc, elim, energy float64) obs.IndexEntry {
	return obs.IndexEntry{
		Experiment:          exp,
		Workload:            wl,
		MaxUops:             30000,
		IPC:                 ipc,
		DynamicUopReduction: elim,
		EnergyJ:             energy,
	}
}

func TestDiffCleanRun(t *testing.T) {
	base := diffIndex(
		entry("fig6", "mcf", 1.5, 0.10, 2e-5),
		entry("fig6", "lbm", 2.0, 0.20, 3e-5),
	)
	// Small improvements and noise within thresholds.
	cur := diffIndex(
		entry("fig6", "mcf", 1.52, 0.11, 1.9e-5),
		entry("fig6", "lbm", 1.98, 0.195, 3.01e-5),
	)
	rep := obs.DiffIndexes(base, cur, obs.DefaultThresholds())
	if rep.Regressions != 0 {
		t.Fatalf("clean run reported %d regressions: %+v", rep.Regressions, rep.Entries)
	}
	if len(rep.Entries) != 2 || len(rep.OnlyBase) != 0 || len(rep.OnlyNew) != 0 {
		t.Fatalf("matching broke: %d matched, onlyBase=%v onlyNew=%v",
			len(rep.Entries), rep.OnlyBase, rep.OnlyNew)
	}
}

func TestDiffFlagsSyntheticRegressions(t *testing.T) {
	base := diffIndex(
		entry("fig6", "mcf", 1.5, 0.10, 2e-5),
		entry("fig6", "lbm", 2.0, 0.20, 3e-5),
		entry("fig6", "xal", 1.0, 0.15, 4e-5),
	)
	cur := diffIndex(
		entry("fig6", "mcf", 1.2, 0.10, 2e-5),   // IPC -20%: regression
		entry("fig6", "lbm", 2.0, 0.12, 3e-5),   // elim -0.08 absolute: regression
		entry("fig6", "xal", 1.0, 0.15, 4.8e-5), // energy +20%: regression
	)
	rep := obs.DiffIndexes(base, cur, obs.DefaultThresholds())
	if rep.Regressions != 3 {
		t.Fatalf("want 3 regressions, got %d: %+v", rep.Regressions, rep.Entries)
	}
	wantMetric := map[string]string{
		"fig6/mcf/mu30000#0": "ipc",
		"fig6/lbm/mu30000#0": "dynamic_uop_reduction",
		"fig6/xal/mu30000#0": "energy_j",
	}
	for _, e := range rep.Entries {
		want := wantMetric[e.Key]
		for _, d := range e.Deltas {
			if d.Regressed != (d.Name == want) {
				t.Errorf("%s: metric %s regressed=%v, want flagged only %q",
					e.Key, d.Name, d.Regressed, want)
			}
		}
	}
	var sb strings.Builder
	rep.Write(&sb, false)
	out := sb.String()
	for _, frag := range []string{"3 regression(s)", "REGRESSED", "<-- regression"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report output missing %q:\n%s", frag, out)
		}
	}
}

// Ordinal matching: two entries of the same (experiment, workload,
// max_uops) group — distinct sweep levels — must pair positionally.
func TestDiffOrdinalMatching(t *testing.T) {
	base := diffIndex(
		entry("fig6", "mcf", 1.0, 0, 2e-5),    // level baseline
		entry("fig6", "mcf", 1.4, 0.25, 2e-5), // level full
	)
	cur := diffIndex(
		entry("fig6", "mcf", 1.0, 0, 2e-5),
		entry("fig6", "mcf", 1.0, 0.25, 2e-5), // full level lost its speedup
	)
	rep := obs.DiffIndexes(base, cur, obs.DefaultThresholds())
	if rep.Regressions != 1 {
		t.Fatalf("want 1 regression, got %d", rep.Regressions)
	}
	if rep.Entries[1].Key != "fig6/mcf/mu30000#1" || !rep.Entries[1].Regressed {
		t.Fatalf("wrong entry flagged: %+v", rep.Entries)
	}
}

func TestDiffUnmatchedKeys(t *testing.T) {
	base := diffIndex(entry("fig6", "mcf", 1.0, 0, 2e-5), entry("fig7", "lbm", 1.0, 0, 2e-5))
	cur := diffIndex(entry("fig6", "mcf", 1.0, 0, 2e-5), entry("fig9", "lbm", 1.0, 0, 2e-5))
	rep := obs.DiffIndexes(base, cur, obs.DefaultThresholds())
	if len(rep.OnlyBase) != 1 || rep.OnlyBase[0] != "fig7/lbm/mu30000#0" {
		t.Errorf("OnlyBase = %v", rep.OnlyBase)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "fig9/lbm/mu30000#0" {
		t.Errorf("OnlyNew = %v", rep.OnlyNew)
	}
}

func TestLoadIndexFileAndDir(t *testing.T) {
	dir := t.TempDir()
	ix := diffIndex(entry("fig6", "mcf", 1.0, 0, 2e-5))
	path := filepath.Join(dir, "index.json")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, dir} {
		got, err := obs.LoadIndex(p)
		if err != nil {
			t.Fatalf("LoadIndex(%s): %v", p, err)
		}
		if len(got.Entries) != 1 || got.Entries[0].Workload != "mcf" {
			t.Fatalf("LoadIndex(%s) = %+v", p, got)
		}
	}
	if _, err := obs.LoadIndex(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadIndex on missing file should error")
	}
}

// TestDiffWriteMarkdown: the -format markdown rendering (the CI job
// summary) carries the verdict line, the unmatched keys, and one table
// row per matched entry with regressions bolded.
func TestDiffWriteMarkdown(t *testing.T) {
	base := diffIndex(
		entry("fig6", "mcf", 1.5, 0.10, 2e-5),
		entry("fig6", "lbm", 2.0, 0.20, 3e-5),
		entry("fig7", "xal", 1.0, 0.15, 4e-5),
	)
	cur := diffIndex(
		entry("fig6", "mcf", 1.2, 0.10, 2e-5), // IPC -20%: regression
		entry("fig6", "lbm", 2.1, 0.21, 2.9e-5),
		entry("fig9", "xal", 1.0, 0.15, 4e-5),
	)
	rep := obs.DiffIndexes(base, cur, obs.DefaultThresholds())
	var sb strings.Builder
	rep.WriteMarkdown(&sb)
	out := sb.String()
	for _, frag := range []string{
		"## sccdiff", "**REGRESSED**",
		"| entry | metric |", "fig6/mcf/mu30000#0",
		"fig7/xal/mu30000#0", // only-in-base key must be listed
		"fig9/xal/mu30000#0", // only-in-new key must be listed
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("markdown output missing %q:\n%s", frag, out)
		}
	}
	// A clean diff renders without the regression marker.
	clean := obs.DiffIndexes(base, base, obs.DefaultThresholds())
	sb.Reset()
	clean.WriteMarkdown(&sb)
	if strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("clean diff flagged a regression:\n%s", sb.String())
	}
}
