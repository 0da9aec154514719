// Package obs is the simulator's observability layer: interval-sampled
// telemetry over pipeline.Stats, machine-readable JSON run manifests,
// Chrome trace-event (catapult) rendering of span trees, live sweep
// progress reporting, and pprof plumbing for the CLIs.
//
// Everything here is strictly an observer: sampling taps read Stats
// snapshots the pipeline pushes, manifests serialize finished
// measurements, and traces render finished span trees. None of it
// feeds back into simulation results, so enabling observability never
// perturbs determinism — the manifests themselves are byte-stable across
// runs and across -parallel settings once Manifest.Normalize strips the
// VCS stamp and the journal summary.
package obs

import (
	"fmt"
	"runtime/debug"
)

// Version identifies the simulator release a manifest was produced by.
// Bumping it invalidates content hashes (ConfigHash folds it in), which
// is exactly the invalidation rule the result cache keyed on manifests
// wants (ROADMAP: invalidate on simulator-version bump).
const Version = "sccsim-0.4"

// SchemaVersion is the manifest JSON schema revision, bumped whenever a
// field changes meaning or is removed (additions are backwards
// compatible and do not bump it).
const SchemaVersion = 1

// gitRevision reports the VCS revision baked into the binary ("+dirty"
// appended when the working tree had uncommitted changes), or "" when
// the build carries no VCS stamp (go test, go run from a tarball).
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// VersionString renders the shared -version banner for the CLIs: the
// simulator release, the manifest schema revision, and the VCS revision
// stamped into the binary (or "unknown" without a stamp).
func VersionString(tool string) string {
	rev := gitRevision()
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("%s %s (schema %d, rev %s)", tool, Version, SchemaVersion, rev)
}
