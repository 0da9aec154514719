// Command sccserve runs the HTTP simulation service: it accepts
// (workload, configuration) jobs, schedules them on a bounded worker
// pool over the shared harness, streams progress via SSE, and serves
// repeated configurations from the ConfigHash result cache in O(1).
//
//	sccserve -addr 127.0.0.1:8344 -cache manifests/
//	sccserve -workers 8 -queue 128 -drain-timeout 30s
//
// Endpoints (see README's Serving section for the full table):
//
//	POST /v1/jobs                  submit a job (429 + Retry-After when full)
//	GET  /v1/jobs/{id}             status + result manifest
//	GET  /v1/jobs/{id}/manifest    raw manifest bytes
//	GET  /v1/jobs/{id}/events      SSE progress + interval samples
//	GET  /v1/cache/{config_hash}   direct cache probe
//	GET  /healthz                  liveness
//	GET  /metrics.prom             Prometheus counters, gauges, histograms
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503 while
// in-flight and queued jobs finish, bounded by -drain-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sccsim/internal/obs"
	"sccsim/internal/serve"
	"sccsim/internal/telemetry"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr = flag.String("addr", "127.0.0.1:8344",
			"listen address (host:port; port 0 picks a free port)")
		cacheDir = flag.String("cache", "",
			"result-cache directory: repeated configs are served without re-simulating (any sccbench -json directory works)")
		workers = flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", serve.DefaultQueueDepth,
			"admission queue depth; submissions beyond it get 429 + Retry-After")
		maxUopsCap = flag.Uint64("max-uops-cap", serve.DefaultMaxUopsCap,
			"reject jobs whose effective work budget exceeds this many micro-ops")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"how long SIGINT/SIGTERM waits for in-flight jobs before aborting them")
		addrFile = flag.String("addr-file", "",
			"write the bound listen address to this file once serving (for scripts using port 0)")
		version    = flag.Bool("version", false, "print the simulator version and exit")
		debugPprof = flag.Bool("debug-pprof", false,
			"expose net/http/pprof profiling handlers under /debug/pprof/ (off by default; enables live CPU/heap/goroutine profiling)")

		logLevel  = flag.String("log-level", "info", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
		flightCap = flag.Int("flight-capacity", telemetry.DefaultFlightCapacity,
			"flight-recorder ring size (recent events served at /debug/flight and dumped on SIGQUIT)")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("sccserve"))
		return 0
	}
	if *queue < 1 {
		fmt.Fprintf(os.Stderr, "sccserve: -queue must be >= 1, got %d\n", *queue)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "sccserve: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		return 2
	}
	if *flightCap <= 0 {
		fmt.Fprintf(os.Stderr, "sccserve: -flight-capacity must be >= 1, got %d\n", *flightCap)
		return 2
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccserve: %v\n", err)
		return 2
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheDir:       *cacheDir,
		MaxUopsCap:     *maxUopsCap,
		Logger:         logger,
		FlightCapacity: *flightCap,
	})

	// SIGQUIT dumps the flight recorder — the last N structured events —
	// without stopping the server, the classic "what was it just doing"
	// escape hatch.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			fmt.Fprintln(os.Stderr, "sccserve: SIGQUIT — flight recorder dump:")
			srv.Flight().WriteText(os.Stderr)
		}
	}()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccserve: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "sccserve: listening on http://%s\n", bound)
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "sccserve: result cache at %s\n", *cacheDir)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sccserve: %v\n", err)
			return 1
		}
	}

	// pprof is opt-in: the service listener doubles as a profiling port
	// only when asked, so a production deployment never exposes profile
	// handlers by accident.
	var handler http.Handler = srv
	if *debugPprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		fmt.Fprintf(os.Stderr, "sccserve: pprof handlers enabled at http://%s/debug/pprof/\n", bound)
	}

	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "sccserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: stop admissions (503), let queued + running jobs
	// finish under the deadline, then close the listener and pool.
	fmt.Fprintf(os.Stderr, "sccserve: signal received, draining (timeout %v)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sccserve: drain timed out, aborting in-flight jobs\n")
		code = 1
	}
	sctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	hs.Shutdown(sctx)
	srv.Close()
	fmt.Fprintln(os.Stderr, "sccserve: shut down cleanly")
	return code
}
