// Package telemetry is the process-wide observability substrate: a
// metrics registry with a zero-allocation hot path and Prometheus text
// exposition, structured-logging helpers on log/slog with end-to-end
// request correlation IDs, and an always-on bounded flight recorder of
// recent structured events for post-hoc incident debugging.
//
// The package deliberately depends on nothing else in the repository so
// every layer (runner, harness, serve, the CLIs) can instrument itself
// without import cycles. Like the SCC journal and the per-uop tracer,
// the whole layer is a pure tap: instruments never feed back into the
// simulation, so normalized run manifests are byte-identical with
// telemetry enabled or disabled (pinned by TestPureTaps in the
// harness).
//
// Three pieces:
//
//   - Registry (registry.go): atomic counters, gauges, and fixed-bucket
//     histograms. Counter.Add / Histogram.Observe are lock-free and
//     allocation-free, so instruments can sit on hot paths. A registry
//     renders as Prometheus text exposition (WritePrometheus), and
//     ParseExposition reads one back (the internal/serve tests read
//     sccserve's counters that way).
//   - Logging (log.go): NewLogger builds a leveled slog.Logger with a
//     JSON or text handler; NewRequestID mints the correlation ID the
//     serving tier threads from HTTP admission through runner jobs,
//     harness runs, and SCC journal entries; Fanout tees one logger
//     into several handlers.
//   - Recorder (flight.go): a bounded ring of recent structured events
//     that doubles as a slog.Handler, so it can ride every logger via
//     Fanout and keep recording even when the console level filters
//     events out — dumpable over /debug/flight and on SIGQUIT.
package telemetry

import (
	"sync"
	"time"
)

// processStart anchors the default registry's uptime gauge.
var processStart = time.Now()

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared process-wide registry. Library layers
// (runner, harness) register their instruments here so every CLI's
// -metrics-dump and sccserve's /metrics.prom see them without plumbing.
// It always carries process_uptime_seconds.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		defaultReg.GaugeFunc("process_uptime_seconds",
			"Seconds since the process-wide telemetry registry was initialized.",
			func() (float64, bool) { return time.Since(processStart).Seconds(), true })
	})
	return defaultReg
}
