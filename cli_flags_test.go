package sccsim

// CLI flag-validation tests: bad flag values must be rejected up front
// with a usage error (exit 2) and a pointed stderr message instead of
// silently coercing (the runner treats negative Parallel as GOMAXPROCS,
// which would mask a scripting typo like `-parallel -8`).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLIRejectsNegativeParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		tool string
		args []string
	}{
		// Each invocation would be a real (if tiny) run when valid, so a
		// pass proves validation fires before any simulation starts.
		{"sccbench", []string{"-parallel", "-1", "-experiment", "table1"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", append([]string{"run", "./cmd/" + tc.tool}, tc.args...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s accepted -parallel -1:\n%s", tc.tool, out)
			}
			// go run relays the child's status as "exit status N" on
			// stderr while exiting 1 itself, so assert on the relayed code.
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("%s did not exit with usage error 2:\n%s", tc.tool, out)
			}
			if !strings.Contains(string(out), "-parallel must be >= 0") {
				t.Errorf("%s stderr missing the -parallel message:\n%s", tc.tool, out)
			}
		})
	}
}

// TestCLIRejectsInvalidLogLevel pins the -log-level vocabulary on every
// command: an unknown level is a usage error (exit 2) naming the valid
// set, fired before any work starts.
func TestCLIRejectsInvalidLogLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tool := range []string{"sccsim", "sccbench", "sccdiff", "sccserve"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/"+tool, "-log-level", "loud").CombinedOutput()
			if err == nil {
				t.Fatalf("%s accepted -log-level loud:\n%s", tool, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("%s did not exit with usage error 2:\n%s", tool, out)
			}
			if !strings.Contains(string(out), "unknown log level") ||
				!strings.Contains(string(out), "debug|info|warn|error") {
				t.Errorf("%s stderr does not name the valid log levels:\n%s", tool, out)
			}
		})
	}
}

// TestCLIRejectsBadSimFlags pins sccsim's usage errors (exit 2) for
// values it cannot run: -top without the SCC unit it dumps or with a
// negative count, an -scc-level off the 0..5 ladder (9 used to run
// silently as full SCC), and flags that build a configuration
// pipeline.Config.Validate rejects (they used to panic mid-run, or, for
// an SCC unit with no optimized partition, run it for nothing). Each
// invocation would be a real run when valid, so a pass proves
// validation fires before any simulation starts.
func TestCLIRejectsBadSimFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		name string
		args []string
		msg  string
	}{
		{"top-negative", []string{"-enable-superoptimization", "-top", "-1"}, "-top must be >= 0"},
		{"top-without-scc", []string{"-top", "3"}, "-top needs -enable-superoptimization"},
		{"top-level-1", []string{"-enable-superoptimization", "-scc-level", "1", "-top", "3"}, "-top needs -scc-level >= 2"},
		{"level-9", []string{"-enable-superoptimization", "-scc-level", "9"}, "-scc-level must be 0..5"},
		{"level-negative", []string{"-enable-superoptimization", "-scc-level", "-1"}, "-scc-level must be 0..5"},
		{"const-width-0", []string{"-enable-superoptimization", "-const-width", "0"}, "SCC.ConstWidthBits = 0"},
		{"opt-sets-48", []string{"-enable-superoptimization", "-specCacheNumSets", "48"}, "UC.UnoptSets = 0"},
		{"opt-sets-0", []string{"-enable-superoptimization", "-specCacheNumSets", "0"}, "UC.OptSets = 0"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", "./cmd/sccsim", "-workload", "xalancbmk", "-max-uops", "3000"}, tc.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err == nil {
				t.Fatalf("sccsim accepted %v:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("sccsim %v did not exit with usage error 2:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.msg) {
				t.Errorf("sccsim %v stderr missing %q:\n%s", tc.args, tc.msg, out)
			}
		})
	}
}

// TestCLIRejectsNonPositiveFlightCapacity: a zero or negative flight
// recorder ring would drop every event silently (the SIGQUIT dump and
// /debug/flight would always be empty), so sccserve rejects it up front
// as a usage error instead of serving with a dead recorder.
func TestCLIRejectsNonPositiveFlightCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, bad := range []string{"0", "-4"} {
		bad := bad
		t.Run(bad, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/sccserve",
				"-flight-capacity", bad, "-addr", "127.0.0.1:0").CombinedOutput()
			if err == nil {
				t.Fatalf("sccserve accepted -flight-capacity %s:\n%s", bad, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("sccserve did not exit with usage error 2:\n%s", out)
			}
			if !strings.Contains(string(out), "-flight-capacity must be >= 1") {
				t.Errorf("sccserve stderr missing the -flight-capacity message:\n%s", out)
			}
		})
	}
}

// TestCLIRejectsBadSnapshotFlags pins the snapshot-store flag
// validation on every command that carries it: a negative size cap and
// a -snapshot-dir that collides with an existing regular file are both
// usage errors (exit 2) fired before any simulation or serving starts —
// the store would otherwise fail on first save, deep inside a sweep.
func TestCLIRejectsBadSnapshotFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	notADir := filepath.Join(t.TempDir(), "slotfile")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tool string
		args []string
		msg  string
	}{
		{"sccbench/negative-cap", "sccbench",
			[]string{"-snapshot-max-bytes", "-1", "-experiment", "simpoint-snapshot"},
			"-snapshot-max-bytes must be >= 0"},
		{"sccbench/dir-is-file", "sccbench",
			[]string{"-snapshot-dir", notADir, "-experiment", "simpoint-snapshot"},
			"-snapshot-dir " + notADir + " exists and is not a directory"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", append([]string{"run", "./cmd/" + tc.tool}, tc.args...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s accepted bad snapshot flags:\n%s", tc.tool, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("%s did not exit with usage error 2:\n%s", tc.tool, out)
			}
			if !strings.Contains(string(out), tc.msg) {
				t.Errorf("%s stderr missing %q:\n%s", tc.tool, tc.msg, out)
			}
		})
	}
}

// TestCLIRejectsInvalidLogFormat does the same for -log-format.
func TestCLIRejectsInvalidLogFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "run", "./cmd/sccsim", "-log-format", "xml").CombinedOutput()
	if err == nil {
		t.Fatalf("sccsim accepted -log-format xml:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown log format") ||
		!strings.Contains(string(out), "text|json") {
		t.Errorf("sccsim stderr does not name the valid log formats:\n%s", out)
	}
}
