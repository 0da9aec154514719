package sccsim

// CLI smoke tests: every command must answer -version with the shared
// banner without running a simulation. Each invocation goes through
// `go run`, so this doubles as a build check for the commands themselves.

import (
	"os/exec"
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
	for _, tool := range []string{"sccsim", "sccbench", "scctrace", "sccdiff", "sccserve"} {
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

// TestCLIMetricsDump runs a real (tiny) simulation through each
// single-run command with -metrics-dump - and validates the emitted
// Prometheus exposition: it must parse under the scraper's structural
// rules and carry the runner's job counters for the run that just
// happened — both commands schedule their run through the runner.
func TestCLIMetricsDump(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tool := range []string{"sccsim", "scctrace"} {
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
