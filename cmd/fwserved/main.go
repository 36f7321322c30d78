// Command fwserved serves the firewall analyses over HTTP with JSON
// bodies — policy diffing, change impact, auditing, and queries — so
// CI pipelines and dashboards can call the comparison machinery without
// shelling out.
//
// Usage:
//
//	fwserved [-addr :8080] [-request-timeout 60s] [-drain-timeout 15s]
//	         [-compile-cache-mb 128] [-report-cache-mb 32]
//	         [-max-fdd-nodes 2000000] [-max-inflight 4*cores]
//	         [-admission-queue 64] [-queue-deadline 5s]
//	         [-max-per-client 16]
//	         [-jobs-workers 4] [-jobs-retention 15m]
//	         [-log-format json|text] [-log-level info]
//	         [-trace-capacity 128] [-slow-trace-threshold 250ms]
//
// Resource governance (docs/ROBUSTNESS.md): every request runs under a
// work budget (-max-fdd-nodes caps the pipeline's materialized FDD
// nodes and edge splits; over-budget analyses return 422
// policy_too_complex), and every /v1/* request passes admission control
// (-max-inflight concurrent slots with a bounded queue; overflow and
// queue timeouts return 503 server_overloaded with Retry-After, a
// per-client cap returns 429 client_over_limit). /healthz reports
// status ok|degraded|draining.
//
// Endpoints (see docs/API.md and docs/OBSERVABILITY.md for the full
// reference):
//
//	POST /v1/diff         {"schema":"five","a":"...","b":"..."}
//	POST /v1/crosscompare {"schema":"five","policies":[{"name":"a","policy":"..."},...]}
//	POST /v1/impact       {"schema":"five","before":"...","after":"..."}
//	POST /v1/resolve      {"schema":"five","a":"...","b":"...","decisions":{"1":"discard"}}
//	POST /v1/audit        {"schema":"five","policy":"...","complete":true}
//	POST /v1/query        {"schema":"five","policy":"...","query":"select ..."}
//	POST /v1/jobs         submit an async crosscompare/batchdiff job -> 202 + job ID
//	GET  /v1/jobs         list jobs; GET /v1/jobs/{id} polls status, progress,
//	                      and partial results; DELETE /v1/jobs/{id} cancels
//	GET  /v1/version   build info, schema names, limits, cache stats
//	GET  /healthz      liveness + cache readiness + SLO summary
//	                   ("slo": ok|warn|burning)
//	GET  /metrics      Prometheus text format: per-endpoint request
//	                   counts/latency/status, in-flight gauge,
//	                   construct/compare phase timings, span
//	                   durations, engine cache counters, fwslo_* burn
//	                   rates, and fwproc_* runtime gauges; scraping with
//	                   Accept: application/openmetrics-text adds
//	                   trace-ID exemplars on latency histogram buckets
//	GET  /debug/slo    live SLO report: per-objective fast/slow window
//	                   burn rates, budget remaining, status
//	GET  /debug/traces recent + slowest request traces as span trees
//	                   (?format=chrome for about:tracing / Perfetto;
//	                   ?endpoint= and ?min_ms= narrow the listing)
//	GET  /debug/pprof  runtime profiles (CPU, heap, goroutines, ...)
//
// Every /v1/* request is traced end to end: the response carries
// X-Trace-ID and a Server-Timing header with per-phase durations, and
// the trace (construct and diff-walk spans annotated with FDD node
// counts and discrepancy counts) is retained in a bounded
// ring — the slowest are pinned past ring eviction. -trace-capacity
// sizes the ring; -slow-trace-threshold sets what counts as slow.
//
// All analysis requests run through a content-addressed compilation
// cache (internal/engine): repeated policies are parsed and constructed
// once, repeated pairs are compared once, and concurrent identical
// requests are deduplicated. -compile-cache-mb and -report-cache-mb
// bound the two caches' resident memory.
//
// Every request is access-logged (structured, one line per request) and
// runs under panic recovery (a bug yields a 500, not a dropped
// connection). -request-timeout bounds each request's pipeline work: the
// deadline propagates through construction and the diff walk, which
// abort mid-walk, and the client gets 503. A client that
// disconnects early cancels its pipeline the same way.
//
// On SIGINT or SIGTERM the server stops accepting connections and
// drains in-flight requests for up to -drain-timeout before exiting
// (exit code 0 on a clean drain, 1 if connections had to be cut).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/api"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/jobs"
	"diversefw/internal/metrics"
	"diversefw/internal/slo"
	"diversefw/internal/trace"
)

// Resource-governance defaults (see docs/ROBUSTNESS.md for tuning).
const (
	// DefaultMaxFDDNodes caps one request's pipeline at ~2M materialized
	// FDD nodes (~256 MiB at the guard's 128-byte node estimate) —
	// orders of magnitude above any well-formed policy, well below what
	// an adversarial blowup needs.
	DefaultMaxFDDNodes = 2_000_000
	// DefaultAdmissionQueue bounds waiting analysis requests.
	DefaultAdmissionQueue = 64
	// DefaultQueueDeadline bounds one request's wait for a slot.
	DefaultQueueDeadline = 5 * time.Second
	// DefaultMaxPerClient caps one client's concurrent analyses.
	DefaultMaxPerClient = 16
)

// DefaultMaxInflight is the admission concurrency cap default: the
// pipeline is CPU-bound, so a small multiple of the core count keeps
// the queue (not the scheduler) absorbing bursts.
var DefaultMaxInflight = 4 * runtime.GOMAXPROCS(0)

func main() {
	os.Exit(run(os.Args[1:]))
}

// buildLogger constructs the process logger from the -log-format and
// -log-level flags. JSON is the default so log lines land in collectors
// ready to index on requestId/traceId without a parsing stage.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: use debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q: use json or text", format)
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("fwserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	requestTimeout := fs.Duration("request-timeout", 60*time.Second,
		"per-request pipeline deadline (0 disables); timed-out requests get 503")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second,
		"how long graceful shutdown waits for in-flight requests")
	compileCacheMB := fs.Int64("compile-cache-mb", engine.DefaultCompileCacheBytes>>20,
		"compiled-policy (FDD) cache budget in MiB")
	reportCacheMB := fs.Int64("report-cache-mb", engine.DefaultReportCacheBytes>>20,
		"pairwise comparison-report cache budget in MiB")
	logFormat := fs.String("log-format", "json", "log output format: json or text")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	traceCapacity := fs.Int("trace-capacity", api.DefaultTraceCapacity,
		"how many recent request traces /debug/traces retains")
	slowTraceThreshold := fs.Duration("slow-trace-threshold", api.DefaultSlowTraceThreshold,
		"requests at least this slow are pinned in the slow-trace list (0 disables)")
	maxFDDNodes := fs.Int64("max-fdd-nodes", DefaultMaxFDDNodes,
		"per-request pipeline work budget in FDD nodes (and edge splits); over-budget requests get 422 policy_too_complex (0 disables)")
	maxInflight := fs.Int("max-inflight", DefaultMaxInflight,
		"admission control: max concurrently running analysis requests (0 disables admission control)")
	admissionQueue := fs.Int("admission-queue", DefaultAdmissionQueue,
		"admission control: max analysis requests waiting for a slot; arrivals beyond a full queue get 503 server_overloaded")
	queueDeadline := fs.Duration("queue-deadline", DefaultQueueDeadline,
		"admission control: max time a request may wait in the queue before being shed (0 waits as long as the request allows)")
	maxPerClient := fs.Int("max-per-client", DefaultMaxPerClient,
		"admission control: max concurrent analysis requests per client address; over-cap requests get 429 client_over_limit (0 disables)")
	jobsWorkers := fs.Int("jobs-workers", 4,
		"worker pool size for every pair comparison: /v1/jobs and /v1/crosscompare pairs")
	jobsRetention := fs.Duration("jobs-retention", 15*time.Minute,
		"async jobs: how long finished jobs stay pollable before being purged")
	jobsJournal := fs.String("jobs-journal", "",
		"async jobs: directory for the crash-safe job journal; on restart, journaled jobs are recovered and unfinished ones resume (empty disables durability)")
	jobsFsync := fs.String("jobs-fsync", "batch",
		"async jobs journal fsync policy: always (sync every record), batch (sync on a short timer), or never (leave it to the OS)")
	jobsRetryMax := fs.Int("jobs-retry-max", 3,
		"async jobs: max attempts per pair; a pair still failing transiently after this many runs is quarantined as an error entry (1 disables retries)")
	jobsRetryBase := fs.Duration("jobs-retry-base", 50*time.Millisecond,
		"async jobs: base delay for per-pair retry backoff (doubles per attempt, capped, jittered)")
	sloObjectives := fs.String("slo-objectives", "",
		"path to an objectives JSON file (see slo/objectives.json); empty uses the built-in defaults")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwserved [-addr host:port] [-request-timeout d] [-drain-timeout d] [-compile-cache-mb n] [-report-cache-mb n] [-max-fdd-nodes n] [-max-inflight n] [-admission-queue n] [-queue-deadline d] [-max-per-client n] [-jobs-workers n] [-jobs-retention d] [-jobs-journal dir] [-jobs-fsync always|batch|never] [-jobs-retry-max n] [-jobs-retry-base d] [-slo-objectives file] [-log-format json|text] [-log-level l] [-trace-capacity n] [-slow-trace-threshold d]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fwserved:", err)
		return 2
	}
	reg := metrics.NewRegistry()
	eng := engine.New(engine.Config{
		CompileCacheBytes: *compileCacheMB << 20,
		ReportCacheBytes:  *reportCacheMB << 20,
		Metrics:           reg,
		Limits: guard.Limits{
			// Splits share the node cap: every split replicates a
			// subgraph, so the two resources blow up together.
			MaxFDDNodes:   *maxFDDNodes,
			MaxEdgeSplits: *maxFDDNodes,
		},
	})
	traces := trace.NewBuffer(*traceCapacity, *slowTraceThreshold, api.DefaultSlowTraceCapacity)
	jobsCfg := jobs.Config{
		Workers:   *jobsWorkers,
		Retention: *jobsRetention,
		RetryMax:  *jobsRetryMax,
		RetryBase: *jobsRetryBase,
	}
	if *jobsJournal != "" {
		fsyncPolicy, err := jobs.ParseFsyncPolicy(*jobsFsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwserved: -jobs-fsync:", err)
			return 2
		}
		store, err := jobs.OpenJournal(*jobsJournal, jobs.JournalOptions{Fsync: fsyncPolicy})
		if err != nil {
			logger.Error("jobs journal open failed", "dir", *jobsJournal, "err", err)
			return 1
		}
		rep := store.RecoveryReport()
		logger.Info("jobs journal recovered",
			"dir", *jobsJournal, "fsync", string(fsyncPolicy),
			"jobsRecovered", rep.JobsRecovered, "jobsResumed", rep.JobsResumed,
			"pairsRestored", rep.PairsRestored, "recordsApplied", rep.RecordsApplied,
			"corruptRecordsSkipped", rep.CorruptRecordsSkipped,
			"tornBytesTruncated", rep.TornBytesTruncated)
		jobsCfg.Store = store
	}
	opts := []api.Option{
		api.WithEngine(eng),
		api.WithMetrics(reg),
		api.WithLogger(logger),
		api.WithRequestTimeout(*requestTimeout),
		api.WithTracing(traces),
		api.WithJobs(jobsCfg),
	}
	if *sloObjectives != "" {
		cfg, err := slo.LoadFile(*sloObjectives)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fwserved: -slo-objectives:", err)
			return 2
		}
		opts = append(opts, api.WithSLO(slo.NewStore(cfg)))
	}
	if *maxInflight > 0 {
		opts = append(opts, api.WithAdmission(admission.Config{
			MaxInFlight:   *maxInflight,
			MaxQueue:      *admissionQueue,
			QueueDeadline: *queueDeadline,
			MaxPerClient:  *maxPerClient,
		}))
	}
	handler := api.NewServer(opts...)

	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// WriteTimeout must outlast the request deadline, or the connection
	// dies before the 503 can be written.
	writeTimeout := 60 * time.Second
	if *requestTimeout > 0 {
		writeTimeout = *requestTimeout + 10*time.Second
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	logger.Info("listening", "addr", ln.Addr().String(),
		"requestTimeout", *requestTimeout, "drainTimeout", *drainTimeout)
	code := serve(srv, ln, stop, *drainTimeout, handler.BeginDrain, logger)
	// After the HTTP drain: cancel whatever async jobs are still running
	// and wait the workers out, so the process never exits mid-pair.
	handler.Close()
	return code
}

// serve runs srv on ln until it fails or a signal arrives on stop, then
// shuts down gracefully: beginDrain (when non-nil) flips the app into
// draining first — /healthz turns "draining" and admission control
// rejects new analysis work — then the listener closes, in-flight
// requests get up to drain to finish, and only then are connections cut.
func serve(srv *http.Server, ln net.Listener, stop <-chan os.Signal, drain time.Duration, beginDrain func(), logger *slog.Logger) int {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			logger.Error("server failed", "err", err)
			return 1
		}
		return 0
	case sig := <-stop:
		logger.Info("shutting down", "signal", fmt.Sprint(sig), "drainTimeout", drain)
		if beginDrain != nil {
			beginDrain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain deadline exceeded, cutting connections", "err", err)
			srv.Close()
			return 1
		}
		<-errCh // Serve has returned http.ErrServerClosed
		logger.Info("drained cleanly")
		return 0
	}
}
