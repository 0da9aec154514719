package harness

import (
	"bytes"
	"testing"

	"sccsim/internal/telemetry"
)

// TestTelemetryLoggerOffByDefault pins that a nil logger costs nothing
// visible: no journal hooks attach, and results match the instrumented
// path (covered by TestPureTaps transitively, but the explicit
// nil-Logger check also guards the gate in debugEnabled).
func TestTelemetryLoggerOffByDefault(t *testing.T) {
	if debugEnabled(nil) {
		t.Fatal("debugEnabled(nil) = true")
	}
	log, err := telemetry.NewLogger(&bytes.Buffer{}, "info", "text")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	if debugEnabled(log) {
		t.Fatal("debugEnabled(info-level logger) = true; journal tap would attach at default level")
	}
}
