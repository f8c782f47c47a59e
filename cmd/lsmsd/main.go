// Command lsmsd serves modulo-scheduling compilations over HTTP: the
// governed pipeline (core.CompileContext + sched.Budget) behind a
// bounded worker pool with admission control, a content-addressed
// result cache, singleflight deduplication, and graceful shutdown.
//
// Usage:
//
//	lsmsd [-addr :8577] [-workers N] [-queue 64] [-cache 1024]
//	      [-store-dir DIR] [-store-max-bytes N] [-warm-start corpus.json]
//	      [-default-deadline 30s] [-max-deadline 2m] [-retry-after 1s]
//	      [-debug-addr :8578] [-flight 64] [-log json|none]
//	      [-machines spec.json,spec2.json]
//	      [-refine] [-refine-workers 1] [-refine-deadline 5s]
//	      [-refine-nodes N]
//	      [-trace-dir DIR | -trace-collector URL] [-trace-sample N]
//	      [-slo-objective 0.99] [-slo-latency 500ms] [-slo-burn 10]
//
// -machines registers extra targets from declarative machine.Spec
// documents at startup, alongside the built-in family; clients then
// select them by name like any registered machine.
//
// -refine turns on the background exact-refinement tier (README
// "Refining in the background"): cold compiles are re-searched by the
// exact branch-and-bound backend under -refine-deadline /
// -refine-nodes, and a strict improvement — lower II, or equal II with
// lower MaxLive — upgrades the stored record in place, so later hits
// serve the better schedule under the X-Lsmsd-Refined header. Note
// that with refinement on, the bytes served for a key can improve
// between hits; clients relying on byte-identity across a key's whole
// lifetime should leave it off.
//
// -trace-dir (or -trace-collector) turns on distributed tracing (README
// "Tracing a request across the service"): POST /v1/compile honors an
// incoming W3C traceparent header (minting a fresh trace when absent),
// answers with the server's own traceparent and a per-stage
// Server-Timing header, and ships sampled traces — request root span
// plus one child span per pipeline phase, with span links tying refine
// and warm-start work back to the requests that caused it — as
// lsms-trace/1 (OTLP/JSON) documents to the spool directory or
// collector endpoint. -trace-sample=N head-samples 1-in-N
// deterministically by trace ID; requests whose caller already sampled
// are always exported.
//
// The SLO tracker is always on: every compile response lands in rolling
// 5-minute and 1-hour windows scored against -slo-objective (success
// rate) and -slo-latency. When the error-budget burn rate exceeds
// -slo-burn in BOTH windows, /readyz degrades to 503 while /healthz
// stays 200 — load balancers route away before anything restarts the
// process. /debug/slo (debug listener) serves the full tracker state.
//
// -store-dir adds a persistent tier behind the in-memory result cache:
// an append-only, checksummed log (README "Surviving restarts") that
// answers repeat requests byte-identically across process restarts.
// Corrupt records found on load are skipped and counted, never served.
// -store-max-bytes bounds the log (0 = unbounded); -warm-start
// precompiles a corpus through the normal worker pool at boot, so the
// store is hot before the first real request arrives.
//
// Endpoints (see README "Running the service"):
//
//	POST /v1/compile    — wire.Request (mini-FORTRAN source or IR form)
//	GET  /v1/schedulers — registered scheduling policies
//	GET  /v1/machines   — registered targets and their unit mixes
//	GET  /healthz       — liveness and pool occupancy
//	GET  /readyz        — readiness (degrades on SLO burn before
//	                      /healthz fails)
//	GET  /metrics       — Prometheus text exposition
//
// With -debug-addr a second listener serves the introspection surface,
// kept off the compile port so it is never publicly reachable:
//
//	GET  /debug/pprof/...       — the standard net/http/pprof handlers
//	GET  /debug/flightrecorder  — the last -flight compile traces as
//	                              lsms-trace/1 documents
//	                              (?trace=<id> filters to one W3C trace)
//	GET  /debug/slo             — SLO window counts, burn rates, verdict
//
// SIGQUIT dumps the flight recorder to stderr and keeps serving — the
// "what was this process just doing" question, answerable without
// stopping it. SIGINT/SIGTERM trigger a graceful shutdown: the listener
// closes, new compiles get 503, and in-flight compiles drain (up to
// -drain-timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8577", "listen address")
	workers := flag.Int("workers", 0, "concurrent compile workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the workers (-1 = none)")
	cache := flag.Int("cache", 1024, "in-memory result-store entries (-1 disables the memory tier)")
	storeDir := flag.String("store-dir", "", "directory for the persistent result store (empty = memory only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "bound on the persistent store's log size (0 = unbounded)")
	warmStart := flag.String("warm-start", "", "corpus file to precompile at boot (JSON; see cmd/lsmsd/warm.go)")
	defDeadline := flag.Duration("default-deadline", 30*time.Second, "deadline applied to requests that carry none (-1ns = unbudgeted)")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "cap on any requested deadline")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint returned with 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight compiles")
	debugAddr := flag.String("debug-addr", "", "separate listener for /debug/pprof and /debug/flightrecorder (empty = disabled)")
	flight := flag.Int("flight", 0, "flight-recorder entries (0 = default 64)")
	logMode := flag.String("log", "json", `request logging: "json" (structured, stderr) or "none"`)
	machineFiles := flag.String("machines", "", "comma-separated machine spec files (JSON) to register at startup")
	refine := flag.Bool("refine", false, "background exact refinement: upgrade stored results in place when the exact backend beats them")
	refineWorkers := flag.Int("refine-workers", 0, "concurrent background refinements (0 = default 1)")
	refineDeadline := flag.Duration("refine-deadline", 0, "wall-clock budget of one refinement (0 = default 5s)")
	refineNodes := flag.Int64("refine-nodes", 0, "search-node budget of one refinement (0 = default 1<<20)")
	traceDir := flag.String("trace-dir", "", "spool sampled request traces as lsms-trace/1 JSON files into this directory")
	traceCollector := flag.String("trace-collector", "", "POST sampled traces to this HTTP collector endpoint (-trace-dir wins when both are set)")
	traceSample := flag.Int("trace-sample", 1, "head-sample 1-in-N traces deterministically by trace ID (1 = all, negative = none)")
	traceQueue := flag.Int("trace-queue", 0, "trace export queue depth; a full queue drops (0 = default 256)")
	sloObjective := flag.Float64("slo-objective", 0, "success-rate objective in (0,1) (0 = default 0.99)")
	sloLatency := flag.Duration("slo-latency", 0, "per-request latency objective (0 = default 500ms)")
	sloBurn := flag.Float64("slo-burn", 0, "burn rate above which /readyz degrades, both windows (0 = default 10, negative disables)")
	flag.Parse()

	if *machineFiles != "" {
		for _, path := range strings.Split(*machineFiles, ",") {
			d, err := machine.LoadFile(path)
			if err != nil {
				fatalf("%v", err)
			}
			machine.Register(d)
			fmt.Printf("lsmsd: registered machine %q from %s\n", d.Name, path)
		}
	}

	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "none":
	default:
		fatalf("unknown -log mode %q (supported: json, none)", *logMode)
	}

	// Load and expand the warm-start corpus before serving, so a broken
	// corpus file fails the boot instead of a background goroutine.
	var warmReqs []*wire.Request
	if *warmStart != "" {
		var err error
		warmReqs, err = loadWarmCorpus(*warmStart)
		if err != nil {
			fatalf("%v", err)
		}
	}

	srv, err := server.New(server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cache,
		StoreDir:         *storeDir,
		StoreMaxBytes:    *storeMaxBytes,
		DefaultDeadline:  *defDeadline,
		MaxDeadline:      *maxDeadline,
		RetryAfter:       *retryAfter,
		FlightEntries:    *flight,
		Refine:           *refine,
		RefineWorkers:    *refineWorkers,
		RefineDeadline:   *refineDeadline,
		RefineNodes:      *refineNodes,
		TraceDir:         *traceDir,
		TraceCollector:   *traceCollector,
		TraceSample:      *traceSample,
		TraceQueue:       *traceQueue,
		SLOObjective:     *sloObjective,
		SLOLatency:       *sloLatency,
		SLOBurnThreshold: *sloBurn,
		Logger:           logger,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if loaded, rejected, ok := srv.StoreLoadReport(); ok {
		fmt.Printf("lsmsd: store %s: %d record(s) loaded, %d rejected by verification\n",
			*storeDir, loaded, rejected)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 2)
	go func() {
		fmt.Printf("lsmsd: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	if len(warmReqs) > 0 {
		go func() {
			t0 := time.Now()
			stats, err := srv.WarmStart(context.Background(), warmReqs)
			fmt.Printf("lsmsd: warm-start %s in %v\n", stats, time.Since(t0).Round(time.Millisecond))
			if err != nil {
				fmt.Fprintf(os.Stderr, "lsmsd: warm-start: %v\n", err)
			}
		}()
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Printf("lsmsd: debug listener on %s\n", *debugAddr)
			errc <- debugSrv.ListenAndServe()
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
loop:
	for {
		select {
		case err := <-errc:
			fatalf("serve: %v", err)
		case sig := <-sigc:
			if sig == syscall.SIGQUIT {
				// Dump and keep serving: SIGQUIT is the in-production
				// "show me the last N compiles" lever.
				fmt.Fprintf(os.Stderr, "lsmsd: SIGQUIT — flight recorder dump\n")
				if err := srv.FlightRecorder().WriteJSON(os.Stderr); err != nil {
					fmt.Fprintf(os.Stderr, "lsmsd: flight dump: %v\n", err)
				}
				continue
			}
			fmt.Printf("lsmsd: %v — draining\n", sig)
			break loop
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Close the listeners and let active handlers finish, then wait for
	// the app-level drain (compiles started before the signal).
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "lsmsd: http shutdown: %v\n", err)
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "lsmsd: debug shutdown: %v\n", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		fatalf("drain: %v", err)
	}
	fmt.Println("lsmsd: drained cleanly")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lsmsd: "+format+"\n", args...)
	os.Exit(1)
}
