package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/jobs"
	"diversefw/internal/metrics"
	"diversefw/internal/slo"
	"diversefw/internal/trace"
)

// Option configures a Server (see NewServer).
type Option func(*Server)

// WithMetrics instruments every endpoint on the given registry —
// per-endpoint request counts by status code, latency histograms (with
// per-bucket trace-ID exemplars on the OpenMetrics exposition), an
// in-flight gauge, a recovered-panic counter, per-phase pipeline
// timing histograms (construct/compare, fed from compare.Timing),
// and the fwproc_* runtime collectors (goroutines, heap bytes, GC
// pause total, sampled lazily at scrape) — and mounts the registry's
// text exposition at GET /metrics.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) {
		s.inst = newInstruments(reg)
		metrics.RegisterProcess(reg)
		s.metricsReg = reg
		s.metricsHandler = reg.Handler()
	}
}

// WithSLO replaces the default objective store (slo.DefaultConfig) —
// the way to serve a custom slo/objectives.json. The store is always
// on: it feeds GET /debug/slo, the fwslo_* metrics, and the healthz
// summary.
func WithSLO(store *slo.Store) Option {
	return func(s *Server) { s.slo = store }
}

// WithLogger enables structured access logging (one record per request:
// method, path, status, duration, bytes, remote) and panic reports on
// the given logger. Without it the server is silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithRequestTimeout bounds every request's handler work: the request
// context is given the deadline, so the comparison pipeline aborts
// mid-walk and the client gets 503 instead of holding a connection
// forever. Zero or negative disables the bound.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithEngine makes the server use the given engine instead of building a
// default one — the way to share caches with other components, size them
// (engine.Config), and hook the engine into the metrics registry.
func WithEngine(eng *engine.Engine) Option {
	return func(s *Server) { s.eng = eng }
}

// WithAdmission puts admission control in front of every /v1/ endpoint:
// a bounded queue with per-request deadlines, an overload shedder
// (503 server_overloaded + Retry-After), and a per-client concurrency
// cap (429 client_over_limit). Shed requests still carry X-Request-ID /
// X-Trace-ID and are counted in the per-endpoint metrics; /healthz and
// /metrics are never shed so operators keep visibility during overload.
func WithAdmission(cfg admission.Config) Option {
	return func(s *Server) { s.admCfg = &cfg }
}

// WithJobs tunes the async-job coordinator behind POST /v1/jobs —
// worker count, finished-job retention, the store cap, or swapped-in
// Store/Sharder implementations. The endpoints exist without this
// option, on jobs.Config defaults; Metrics and Traces left nil inherit
// the server's registry and trace buffer.
func WithJobs(cfg jobs.Config) Option {
	return func(s *Server) { s.jobsCfg = cfg }
}

// Default sizing of the server's trace retention (see WithTracing): how
// many recent traces the ring keeps, how many slow ones are pinned, and
// how slow a request must be to count as slow.
const (
	DefaultTraceCapacity      = 128
	DefaultSlowTraceCapacity  = 32
	DefaultSlowTraceThreshold = 250 * time.Millisecond
)

// WithTracing makes the server retain request traces in buf instead of a
// default-sized buffer — the way to tune capacity and the slow-trace
// threshold (trace.NewBuffer) or to share the buffer with other
// components. Tracing itself is always on; every /v1/* request gets a
// span tree and GET /debug/traces serves the retained ones.
func WithTracing(buf *trace.Buffer) Option {
	return func(s *Server) { s.traces = buf }
}

// instruments holds the serving-path metrics; nil when no registry was
// configured.
type instruments struct {
	requests *metrics.CounterVec
	latency  *metrics.HistogramVec
	inflight *metrics.Gauge
	panics   *metrics.Counter
	phases   *metrics.HistogramVec
	spans    *metrics.HistogramVec
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		requests: reg.NewCounterVec("fwserved_http_requests_total",
			"HTTP requests by endpoint and status code.", "path", "code"),
		latency: reg.NewHistogramVec("fwserved_http_request_duration_seconds",
			"HTTP request latency by endpoint.", nil, "path"),
		inflight: reg.NewGauge("fwserved_http_inflight_requests",
			"Requests currently being served."),
		panics: reg.NewCounter("fwserved_http_panics_total",
			"Handler panics recovered and returned as 500s."),
		phases: reg.NewHistogramVec("fwserved_pipeline_phase_seconds",
			"Comparison pipeline phase durations.", nil, "phase"),
		spans: reg.NewHistogramVec("fwserved_span_duration_seconds",
			"Trace span durations by span name.", nil, "span"),
	}
}

// observeSpans feeds every span of a completed trace into the span
// histograms (zero-duration marker events excluded — they would drown
// the distributions in zeros).
func (s *Server) observeSpans(root trace.SpanRecord) {
	if s.inst == nil {
		return
	}
	root.Walk(func(sr trace.SpanRecord) {
		if sr.DurationMicros == 0 {
			return
		}
		s.inst.spans.With(sr.Name).Observe(sr.Duration().Seconds())
	})
}

// observeTiming records one pipeline run's per-phase durations. The
// engine's diff walk does no shaping, so a zero Shape phase means the
// phase did not run and is not observed.
func (s *Server) observeTiming(t compare.Timing) {
	if s.inst == nil {
		return
	}
	s.inst.phases.With("construct").Observe(t.Construct.Seconds())
	if t.Shape > 0 {
		s.inst.phases.With("shape").Observe(t.Shape.Seconds())
	}
	s.inst.phases.With("compare").Observe(t.Compare.Seconds())
}

// statusWriter records the status code and body size a handler produced.
// beforeWrite, when set, runs once immediately before the header is
// flushed — the last moment a trailerless header like Server-Timing can
// still be added.
type statusWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	beforeWrite func(h http.Header)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if w.beforeWrite != nil {
			w.beforeWrite(w.Header())
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
		if w.beforeWrite != nil {
			w.beforeWrite(w.Header())
		}
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// handle registers the handler at pattern behind the middleware chain.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.wrap(pattern, h))
}

// maxRequestIDLen bounds accepted client request IDs; longer (or
// non-printable) values are replaced with a generated one so logs and
// headers stay clean.
const maxRequestIDLen = 128

// requestID returns the client's X-Request-ID when acceptable, otherwise
// a fresh one. IDs are opaque tokens for correlating a response with
// logs; only obviously hostile values (empty, oversized, control bytes)
// are rejected.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > maxRequestIDLen {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e { // no spaces, controls, or non-ASCII
			return newRequestID()
		}
	}
	return id
}

// newRequestID generates a 16-hex-digit random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; IDs are best-effort.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// wrap is the middleware chain every endpoint runs under: request
// identity (X-Request-ID accepted or generated, echoed on the response),
// a request trace on /v1/* endpoints (root span carrying the request ID,
// X-Trace-ID and Server-Timing on the response, retained in the trace
// buffer), request timeout (context deadline), in-flight gauge, panic
// recovery (500 instead of a dropped connection), request count/latency
// metrics, and one structured access-log record. pattern is used as the
// metric label so per-request paths cannot explode the label space.
func (s *Server) wrap(pattern string, h http.HandlerFunc) http.Handler {
	// Only the analysis endpoints are traced: tracing /metrics,
	// /healthz, or /debug/traces itself would fill the ring with noise.
	traced := strings.HasPrefix(pattern, "/v1/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The ID goes onto the response header before the handler runs:
		// error envelopes read it back from there, and it is echoed even
		// when the handler panics.
		reqID := requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		var tr *trace.Trace
		if traced {
			ctx, t := trace.New(r.Context(), pattern, trace.NewID())
			tr = t
			tr.Root().SetAttr("requestId", reqID)
			tr.Root().SetAttr("method", r.Method)
			w.Header().Set("X-Trace-ID", tr.ID())
			r = r.WithContext(ctx)
		}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.inst != nil {
			s.inst.inflight.Inc()
			defer s.inst.inflight.Dec()
		}
		sw := &statusWriter{ResponseWriter: w}
		shed := false
		if tr != nil {
			sw.beforeWrite = func(h http.Header) {
				if st := serverTiming(tr); st != "" {
					h.Set("Server-Timing", st)
				}
			}
		}
		defer func() {
			if p := recover(); p != nil {
				if s.inst != nil {
					s.inst.panics.Inc()
				}
				s.log.Error("panic in handler",
					"path", pattern, "requestId", reqID,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, CodeInternal,
						fmt.Errorf("internal server error"))
				}
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			traceID := ""
			if tr != nil {
				traceID = tr.ID()
			}
			if s.inst != nil {
				s.inst.requests.With(pattern, strconv.Itoa(status)).Inc()
				s.inst.latency.With(pattern).ObserveExemplar(elapsed.Seconds(), traceID)
			}
			if traced {
				s.slo.Record(pattern, elapsed, status, shed)
			}
			logAttrs := []any{
				"method", r.Method,
				"path", pattern,
				"status", status,
				"requestId", reqID,
				"durationMs", float64(elapsed.Microseconds()) / 1000,
				"bytes", sw.bytes,
				"remote", r.RemoteAddr,
			}
			if tr != nil {
				tr.Root().SetAttr("status", status)
				tr.Finish()
				rec := s.traces.Observe(tr)
				s.observeSpans(rec.Root)
				logAttrs = append(logAttrs, "traceId", tr.ID())
			}
			s.log.Info("request", logAttrs...)
		}()
		// Admission runs inside the accounting defer above, so shed
		// requests still echo X-Request-ID/X-Trace-ID (set earlier) and
		// land in the per-endpoint request counters and access log.
		// Only analysis endpoints are guarded: shedding /healthz or
		// /metrics would blind operators exactly when they need them.
		if s.adm != nil && traced {
			release, queuedFor, err := s.adm.Admit(r.Context(), clientKey(r))
			if tr != nil && queuedFor > 0 {
				tr.Root().SetAttr("admissionQueuedMs",
					float64(queuedFor.Microseconds())/1000)
			}
			if err != nil {
				var ae *admission.Error
				if errors.As(err, &ae) {
					shed = true
					if tr != nil {
						tr.Root().SetAttr("admissionShed", string(ae.Reason))
					}
				}
				writeAdmissionError(sw, err)
				return
			}
			defer release()
		}
		h(sw, r)
	})
}

// clientKey identifies the client for the per-client concurrency cap:
// the remote host, deliberately not the client-controlled X-Request-ID
// (which a noisy client could rotate to dodge the cap).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeAdmissionError maps an admission rejection onto the wire:
// overload and drain are 503 server_overloaded, the per-client cap is
// 429 client_over_limit, all with Retry-After. A context error (the
// client died while queued) goes through the usual analysis mapping.
func writeAdmissionError(w http.ResponseWriter, err error) {
	var ae *admission.Error
	if !errors.As(err, &ae) {
		writeAnalysisError(w, err)
		return
	}
	secs := int(ae.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	if ae.Reason == admission.ReasonClientLimit {
		writeError(w, http.StatusTooManyRequests, CodeClientOverLimit,
			fmt.Errorf("too many concurrent requests from this client"))
		return
	}
	writeError(w, http.StatusServiceUnavailable, CodeServerOverloaded,
		fmt.Errorf("server overloaded (%s), retry later", ae.Reason))
}

// serverTimingPhases are the pipeline spans surfaced in the
// Server-Timing response header, in emission order.
var serverTimingPhases = []string{"construct", "shape", "compare", "resolve-generate", "resolve-verify"}

// serverTiming renders the trace's per-phase durations so far as a
// Server-Timing header value: the named pipeline phases that actually
// ran (a phase occurring twice — e.g. construct for each policy — is
// summed), plus the total elapsed on the root. Empty when nothing ran.
func serverTiming(tr *trace.Trace) string {
	root := tr.Root().Snapshot()
	sums := make(map[string]int64, len(serverTimingPhases))
	root.Walk(func(sr trace.SpanRecord) {
		name := sr.Name
		if name == "compare.direct" {
			name = "compare" // the engine's diff walk is the served compare phase
		}
		sums[name] += sr.DurationMicros
	})
	var b strings.Builder
	for _, name := range serverTimingPhases {
		if sums[name] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", name, float64(sums[name])/1000)
	}
	if b.Len() > 0 {
		fmt.Fprintf(&b, ", total;dur=%.3f", float64(root.DurationMicros)/1000)
	}
	return b.String()
}
