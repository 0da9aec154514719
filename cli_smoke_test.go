package sccsim

// CLI smoke tests: every command must answer -version with the shared
// banner without running a simulation. Each invocation goes through
// `go run`, so this doubles as a build check for the commands themselves.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
)

func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	// sccbench, the one tool that carries the snapshot-store flags,
	// parses them alongside -version, so the matrix doubles as a
	// flag-registration check.
	extra := map[string][]string{
		"sccbench": {"-snapshot-dir", "snapcache", "-snapshot-max-bytes", "1048576"},
	}
	for _, tool := range []string{"sccsim", "sccbench", "sccdiff", "sccserve"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", "./cmd/" + tool}, extra[tool]...)
			out, err := exec.Command("go", append(args, "-version")...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s -version: %v\n%s", tool, err, out)
			}
			got := strings.TrimSpace(string(out))
			for _, frag := range []string{tool, obs.Version, "schema"} {
				if !strings.Contains(got, frag) {
					t.Errorf("%s -version = %q, missing %q", tool, got, frag)
				}
			}
			if strings.Count(got, "\n") != 0 {
				t.Errorf("%s -version printed more than the banner:\n%s", tool, got)
			}
		})
	}
}

// TestCLIMetricsDump runs a real (tiny) simulation through the
// single-run command with -metrics-dump - and validates the emitted
// Prometheus exposition: it must parse under the scraper's structural
// rules and carry the runner's job counters for the run that just
// happened — sccsim schedules its run through the runner.
func TestCLIMetricsDump(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tool := range []string{"sccsim"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/"+tool,
				"-workload", "mcf", "-max-uops", "2000", "-metrics-dump", "-").Output()
			if err != nil {
				t.Fatalf("%s -metrics-dump: %v", tool, err)
			}
			// The exposition is everything after the run report; locate its
			// first header line and parse from there.
			idx := strings.Index(string(out), "# HELP")
			if idx < 0 {
				t.Fatalf("no exposition in stdout:\n%s", out)
			}
			exp, err := telemetry.ParseExposition(out[idx:])
			if err != nil {
				t.Fatalf("exposition does not validate: %v\n%s", err, out[idx:])
			}
			if exp.Samples["runner_jobs_completed_total"] != 1 {
				t.Errorf("runner_jobs_completed_total = %v, want 1 (one run executed)",
					exp.Samples["runner_jobs_completed_total"])
			}
			if exp.Samples["runner_sweeps_total"] != 1 {
				t.Errorf("runner_sweeps_total = %v, want 1", exp.Samples["runner_sweeps_total"])
			}
			if _, ok := exp.Samples["process_uptime_seconds"]; !ok {
				t.Error("process_uptime_seconds missing from the dump")
			}
			if typ := exp.Types["runner_job_wall_seconds"]; typ != "histogram" {
				t.Errorf("runner_job_wall_seconds TYPE = %q, want histogram", typ)
			}
			cycles, okC := exp.Samples["pipeline_cycles_total"]
			skipped, okS := exp.Samples["pipeline_skipped_cycles_total"]
			if !okC || !okS {
				t.Errorf("cycle counters missing: pipeline_cycles_total %v, pipeline_skipped_cycles_total %v", okC, okS)
			} else if !(0 < skipped && skipped < cycles) {
				t.Errorf("pipeline_skipped_cycles_total = %v, pipeline_cycles_total = %v; want 0 < skipped < cycles", skipped, cycles)
			}
		})
	}
}

// TestCLIBenchArtifacts runs a one-kernel fig6 sweep through sccbench
// with -json and -trace: every manifest it writes carries the
// opt-report's per-transform tallies (sccdiff -explain reads them), and
// the Chrome trace renders the sweep's span tree, one process named
// after the sweep holding one harness.run slice per run.
func TestCLIBenchArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fig6.trace")
	out, err := exec.Command("go", "run", "./cmd/sccbench", "-experiment", "fig6",
		"-workloads", "xalancbmk", "-max-uops", "3000", "-json", dir, "-trace", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("sccbench: %v\n%s", err, out)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "xalancbmk-*.json"))
	if len(files) != 6 {
		t.Fatalf("%d manifests, want one per fig6 level (6)", len(files))
	}
	for _, f := range files {
		man, err := obs.ReadManifest(f)
		if err != nil {
			t.Fatal(err)
		}
		if man.SCCReport == nil || len(man.SCCReport.Transforms) == 0 {
			t.Errorf("%s carries no scc_report.transforms", filepath.Base(f))
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	procs := map[int]any{}
	runs := 0
	for _, e := range trace.TraceEvents {
		switch {
		case e.Name == "process_name":
			procs[e.PID] = e.Args["name"]
		case e.Ph == "X" && e.Name == "harness.run":
			runs++
		}
	}
	if len(procs) != 1 || procs[1] != "sweep:fig6" || runs != 6 {
		t.Errorf("trace processes %v with %d harness.run slices, want sweep:fig6 alone with 6", procs, runs)
	}
}

// TestCLIBenchSharesRuns runs fig6, fig7 and fig8 in one sccbench
// invocation: fig7 and fig8 reuse fig6's baseline and full-SCC runs, so
// it simulates fig6's six runs of the kernel and no more, prints the
// tables of three separate invocations, and with -json still indexes
// every cell of every figure.
func TestCLIBenchSharesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sccbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sccbench").CombinedOutput(); err != nil {
		t.Fatalf("build sccbench: %v\n%s", err, out)
	}
	run := func(args ...string) []byte {
		t.Helper()
		args = append([]string{"-workloads", "mcf", "-max-uops", "2000"}, args...)
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("sccbench %v: %v", args, err)
		}
		return out
	}
	// tables drops the timing lines, which differ from run to run.
	tables := func(out []byte) string {
		var keep []string
		for _, line := range strings.Split(string(out), "\n") {
			if !strings.Contains(line, "sweep:") && !strings.Contains(line, "completed in") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}

	out := run("-experiment", "fig6,fig7,fig8", "-metrics-dump", "-")
	idx := strings.Index(string(out), "# HELP")
	if idx < 0 {
		t.Fatalf("no exposition in stdout:\n%s", out)
	}
	exp, err := telemetry.ParseExposition(out[idx:])
	if err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	if got := exp.Samples["runner_jobs_completed_total"]; got != 6 {
		t.Errorf("runner_jobs_completed_total = %v, want 6 (fig6's levels; fig7 and fig8 reuse them)", got)
	}
	var separate string
	for _, e := range []string{"fig6", "fig7", "fig8"} {
		separate += tables(run("-experiment", e))
	}
	if got := tables(out[:idx]); got != separate {
		t.Errorf("shared-run tables differ from separate invocations:\n%s\n--- separate ---\n%s", got, separate)
	}

	jsonDir := filepath.Join(dir, "manifests")
	run("-experiment", "fig6,fig7,fig8", "-json", jsonDir)
	ix, err := obs.LoadIndex(jsonDir)
	if err != nil {
		t.Fatal(err)
	}
	// One entry per cell: fig6's six levels, fig7's and fig8's two
	// configurations each.
	if len(ix.Entries) != 10 {
		t.Errorf("index.json holds %d entries, want 10", len(ix.Entries))
	}
}
