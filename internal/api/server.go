package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/anomaly"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/guard"
	"diversefw/internal/impact"
	"diversefw/internal/interval"
	"diversefw/internal/jobs"
	"diversefw/internal/metrics"
	"diversefw/internal/query"
	"diversefw/internal/redundancy"
	"diversefw/internal/resolve"
	"diversefw/internal/rule"
	"diversefw/internal/slo"
	"diversefw/internal/trace"
)

// maxBodyBytes bounds request bodies; the largest real-life policies the
// paper discusses (a few thousand rules) fit comfortably.
const maxBodyBytes = 4 << 20

// maxCrossPolicies bounds one cross-comparison: N policies cost
// N*(N-1)/2 pairwise pipelines, so the limit is deliberately small.
const maxCrossPolicies = 16

// statusClientClosedRequest is the nginx convention for "the client went
// away before we could answer"; it only ever shows up in metrics and
// logs, never on the wire.
const statusClientClosedRequest = 499

// schemaNames are the wire schema names, in the order /v1/version lists
// them (see field.SchemaByName).
var schemaNames = []string{"five", "four", "paper"}

// Server exposes the analyses over HTTP with JSON bodies. All analysis
// work goes through an engine, so repeated policies are compiled once and
// repeated pairs are compared once.
type Server struct {
	mux            *http.ServeMux
	log            *slog.Logger
	timeout        time.Duration
	eng            *engine.Engine
	traces         *trace.Buffer
	inst           *instruments
	metricsReg     *metrics.Registry
	metricsHandler http.Handler
	admCfg         *admission.Config
	adm            *admission.Controller
	jobsCfg        jobs.Config
	jobs           *jobs.Coordinator
	slo            *slo.Store
	draining       atomic.Bool
}

// NewServer builds the handler tree. With no options the server is bare —
// no metrics, no logging, no request timeout, a default-sized engine —
// see WithMetrics, WithLogger, WithRequestTimeout, and WithEngine.
func NewServer(opts ...Option) *Server {
	s := &Server{
		mux: http.NewServeMux(),
		log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.eng == nil {
		// A caller-provided engine brings its own metrics wiring (or none);
		// the default one joins the server's registry when there is one.
		s.eng = engine.New(engine.Config{Metrics: s.metricsReg})
	}
	if s.traces == nil {
		s.traces = trace.NewBuffer(DefaultTraceCapacity,
			DefaultSlowTraceThreshold, DefaultSlowTraceCapacity)
	}
	if s.admCfg != nil {
		// Built here rather than in the option so the controller joins
		// the metrics registry regardless of option order.
		s.adm = admission.New(*s.admCfg, s.metricsReg)
	}
	// The SLO store is always on, like tracing: objectives are part of
	// the serving contract (/debug/slo, the healthz summary), and the
	// built-in DefaultConfig keeps a bare server meaningful. WithSLO
	// swaps in a store built from a custom objectives file.
	if s.slo == nil {
		s.slo = slo.NewStore(slo.DefaultConfig())
	}
	if s.metricsReg != nil {
		s.slo.RegisterMetrics(s.metricsReg)
	}
	// The job coordinator is always on (the endpoints are part of v1);
	// WithJobs only tunes it. Like the admission controller, it is built
	// here so it joins the engine, registry, trace buffer, and SLO
	// store the option order settled on.
	if s.jobsCfg.Metrics == nil {
		s.jobsCfg.Metrics = s.metricsReg
	}
	if s.jobsCfg.Traces == nil {
		s.jobsCfg.Traces = s.traces
	}
	if s.jobsCfg.SLO == nil {
		s.jobsCfg.SLO = s.slo
	}
	s.jobs = jobs.New(s.eng, s.jobsCfg)
	s.handle("/healthz", s.health)
	s.handle("/v1/version", s.version)
	s.handle("/v1/diff", s.diff)
	s.handle("/v1/crosscompare", s.crossCompare)
	s.handle("/v1/impact", s.impact)
	s.handle("/v1/audit", s.audit)
	s.handle("/v1/analyze", s.analyze)
	s.handle("/v1/query", s.query)
	s.handle("/v1/resolve", s.resolve)
	s.handle("/v1/jobs", s.jobsCollection)
	s.handle("/v1/jobs/{id}", s.jobByID)
	s.handle("/debug/traces", s.debugTraces)
	s.handle("/debug/slo", s.debugSLO)
	if s.metricsHandler != nil {
		s.handle("/metrics", s.metricsHandler.ServeHTTP)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var _ http.Handler = (*Server)(nil)

// Engine returns the server's engine (for stats in tests and tooling).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Jobs returns the server's job coordinator (for tests and tooling).
func (s *Server) Jobs() *jobs.Coordinator { return s.jobs }

// Admission returns the server's admission controller; nil without
// WithAdmission.
func (s *Server) Admission() *admission.Controller { return s.adm }

// SLO returns the server's objective store (for tests and tooling).
func (s *Server) SLO() *slo.Store { return s.slo }

// debugSLO is GET /debug/slo: the live per-objective burn-rate report.
func (s *Server) debugSLO(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// Close stops the job coordinator: every live job is canceled (its
// in-flight pairs see their context die) and the workers are waited
// out. Call it after http.Server.Shutdown so polls for already-accepted
// jobs still answer during the drain. Idempotent.
func (s *Server) Close() { s.jobs.Close() }

// BeginDrain flips the server into draining: /healthz reports
// "draining" (so load balancers stop sending traffic) and admission
// control rejects all new analysis requests while admitted ones finish.
// Call it when shutdown starts, before http.Server.Shutdown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.adm.BeginDrain()
}

// requireGet guards the read-only endpoints the way decodeInto guards
// the POST ones.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return false
	}
	return true
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	st := s.eng.Stats()
	// Status reflects the overload posture: draining once shutdown
	// started (even without admission control), degraded while admission
	// is at capacity, ok otherwise.
	status := string(s.adm.Status())
	if s.draining.Load() {
		status = string(admission.StatusDraining)
	}
	resp := HealthResponse{
		Status:  status,
		SLO:     string(s.slo.Status()),
		Formats: frontend.Formats(),
		Cache: CacheHealth{
			Ready:          true,
			CompileEntries: st.Compile.Entries,
			ReportEntries:  st.Reports.Entries,
			ResidentBytes:  st.Compile.Bytes + st.Reports.Bytes,
		},
	}
	if s.adm != nil {
		as := s.adm.Stats()
		resp.Admission = &as
	}
	if s.jobs != nil {
		resp.Recovery = s.jobs.Recovery()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	resp := VersionResponse{
		GoVersion: runtime.Version(),
		Schemas:   schemaNames,
		Formats:   frontend.Formats(),
		Limits: Limits{
			MaxBodyBytes:     maxBodyBytes,
			MaxCrossPolicies: maxCrossPolicies,
			MaxJobPolicies:   maxJobPolicies,
		},
		Cache: s.eng.Stats(),
	}
	if s.timeout > 0 {
		resp.Limits.RequestTimeoutMillis = s.timeout.Milliseconds()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	respond(r, w, http.StatusOK, resp)
}

// decodeInto reads a JSON request body: POST only (405 carries the
// required Allow header), bodies over maxBodyBytes are 413 not 400
// whatever their bytes, and the body must be exactly one JSON object (or
// null, which leaves v as it is) — trailing garbage such as `{...}{...}`
// is a 400, not silently ignored.
// The body is read once and decoded in one walk (decodeBody) under an
// api.decode span, which validates every policy token.
func decodeInto(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	return decodeDeferred(w, r, v, nil)
}

// decodeDeferred is decodeInto for a handler that validates its top-level
// bare-string policy tokens itself: the walk only bounds them and lists
// them in pend, which the handler settles before it writes an error or an
// answer that needs them (see pendingTokens). A nil pend validates them
// in the walk.
func decodeDeferred(w http.ResponseWriter, r *http.Request, v interface{}, pend *pendingTokens) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	_, sp := trace.Start(r.Context(), "api.decode")
	body, err := readBody(w, r)
	if sp != nil { // an untraced request boxes no attribute
		sp.SetAttr("bytes", len(body))
	}
	if err == nil {
		err = decodeBody(body, v, pend)
	}
	sp.End()
	if err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// settled settles pend (pendingTokens.settle) under an api.decode span
// when it has tokens to validate. When one is invalid it writes that
// token's body error and returns false.
func settled(ctx context.Context, w http.ResponseWriter, pend *pendingTokens) bool {
	if pend.n == 0 {
		return true
	}
	_, sp := trace.Start(ctx, "api.decode")
	err := pend.settle()
	sp.End()
	if err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError maps a body-decoding failure to its status: an
// oversized body (MaxBytesReader tripping, possibly mid-decode) is 413,
// anything else the client sent is 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("bad request body: %v", err))
}

// analysisErrorStatus classifies a pipeline error into its HTTP status
// and machine-readable code. Shared between whole-request failures
// (writeAnalysisError) and per-pair entries in cross-comparison and job
// results, so a budget-tripped pair carries the same typed 422 envelope
// a budget-tripped request would.
func analysisErrorStatus(err error) (int, string) {
	var budget *guard.ErrBudgetExceeded
	switch {
	case errors.As(err, &budget):
		// The pipeline walk crossed this deployment's work budget: the
		// input is well-formed but its diagram blows up (the paper's
		// exponential regime). Typed check first — budget errors carry
		// no context sentinel, and the distinction matters to clients.
		return http.StatusUnprocessableEntity, CodePolicyTooComplex
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, CodeTimeout
	case errors.Is(err, context.Canceled):
		// The client is gone; the status only feeds metrics and logs.
		return statusClientClosedRequest, CodeClientClosed
	case errors.Is(err, fdd.ErrIncomplete):
		return http.StatusUnprocessableEntity, CodeIncompletePolicy
	default:
		return http.StatusUnprocessableEntity, CodeUnprocessable
	}
}

// writeAnalysisError maps a pipeline error to a response. Cancellation
// and deadline errors come out of the pipeline when the request context
// dies (client disconnect or WithRequestTimeout); a non-comprehensive
// policy gets its own code (it parses fine but has no FDD); everything
// else is a semantic error in otherwise well-formed input.
func writeAnalysisError(w http.ResponseWriter, err error) {
	status, code := analysisErrorStatus(err)
	if code == CodeTimeout {
		err = fmt.Errorf("request timed out")
	}
	writeError(w, status, code, err)
}

// convertPairError renders a per-pair failure as the same typed
// envelope a whole-request failure would get, minus the request ID
// (the surrounding response carries it).
func convertPairError(err error) *PairError {
	if err == nil {
		return nil
	}
	status, code := analysisErrorStatus(err)
	return &PairError{Status: status, Code: code, Message: err.Error()}
}

// parseInput lowers one PolicyInput through the frontend registry, under
// a frontend.lower span. A bare string's Text was unquoted when its token
// was validated (in the request walk, or when pending tokens settled).
// The returned error keeps its type
// (frontend.ParseError, ErrUnknownFormat, ErrSchema survive the
// what-prefix wrapping) so writePolicyError can map it to the right code
// and diagnostics.
func parseInput(ctx context.Context, schema *field.Schema, in PolicyInput, what string) (*rule.Policy, error) {
	_, sp := trace.Start(ctx, "frontend.lower")
	text := in.Text
	if sp != nil { // an untraced request boxes no attribute
		format := in.Format
		if format == "" {
			format = frontend.DefaultFormat
		}
		sp.SetAttr("format", format)
		sp.SetAttr("bytes", len(text))
	}
	p, err := frontend.Parse(in.Format, schema, text, frontend.Options{Chain: in.Chain})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return p, nil
}

// parseNamedPolicies lowers the policies of a multi-policy request (a
// cross-comparison or a job), naming an unnamed one policy<i> (1-based)
// and rejecting a duplicate name. On failure it writes the error
// response and returns ok false.
func parseNamedPolicies(ctx context.Context, w http.ResponseWriter, schema *field.Schema, nps []NamedPolicy) (names []string, policies []*rule.Policy, ok bool) {
	names = make([]string, len(nps))
	seen := make(map[string]bool, len(nps))
	policies = make([]*rule.Policy, len(nps))
	for i, np := range nps {
		name := np.Name
		if name == "" {
			name = fmt.Sprintf("policy%d", i+1)
		}
		if seen[name] {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("duplicate policy name %q", name))
			return nil, nil, false
		}
		seen[name] = true
		names[i] = name
		p, err := parseInput(ctx, schema, np.Policy, fmt.Sprintf("policy %q", name))
		if err != nil {
			writePolicyError(w, err)
			return nil, nil, false
		}
		policies[i] = p
	}
	return names, policies, true
}

// writePolicyError maps a parseInput failure onto the error envelope:
// unknown format names get the stable unsupported_format code, frontend
// parse failures get unparseable_policy with the positioned diagnostics
// attached, and schema mismatches (an iptables dump against the paper
// schema) are plain bad requests.
func writePolicyError(w http.ResponseWriter, err error) {
	var pe *frontend.ParseError
	switch {
	case errors.Is(err, frontend.ErrUnknownFormat):
		writeError(w, http.StatusBadRequest, CodeUnsupportedFormat, err)
	case errors.As(err, &pe):
		writeErrorDiags(w, http.StatusBadRequest, CodeUnparseablePolicy, err, pe.Diagnostics)
	case errors.Is(err, frontend.ErrSchema):
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
	default:
		writeError(w, http.StatusBadRequest, CodeUnparseablePolicy, err)
	}
}

// diff is POST /v1/diff. Sources it has diffed before reach their
// compilations through the engine's text alias, without being validated,
// parsed or hashed (engine.DiffSources); any other request parses both
// policies, diffs them through their compilations and records both
// aliases. Either way the answer is the pair's one cached report.
func (s *Server) diff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	var pend pendingTokens
	if decodeDeferred(w, r, &req, &pend) {
		s.serveDiff(w, r, &req, &pend)
	}
}

// serveDiff answers a decoded /v1/diff request whose pending policy
// tokens are pend.
func (s *Server) serveDiff(w http.ResponseWriter, r *http.Request, req *DiffRequest, pend *pendingTokens) {
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		if settled(r.Context(), w, pend) {
			writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		}
		return
	}
	d, ok := s.diffSources(r.Context(), w, pend, schema, req.Schema, [2]*PolicyInput{&req.A, &req.B}, [2]string{"policy a", "policy b"})
	if ok {
		writeReport(r.Context(), w, s.eng, schema, d)
	}
}

// diffSources diffs the two policies a request carries, named what in
// errors. Sources it has diffed before reach their compilations through
// the engine's text alias, without being validated, parsed or hashed
// (engine.DiffSources); if any other token is pending, every pending
// token is validated first.
// Otherwise it validates and unquotes both, parses them, diffs them
// through their compilations and records both aliases. On failure it
// writes the error response and returns ok false.
func (s *Server) diffSources(ctx context.Context, w http.ResponseWriter, pend *pendingTokens, schema *field.Schema, schemaName string, src [2]*PolicyInput, what [2]string) (d engine.PairDiff, ok bool) {
	if err := pend.settleOverwritten(); err != nil {
		writeBodyError(w, err)
		return d, false
	}
	ka, kb := src[0].key(schemaName), src[1].key(schemaName)
	d, ok, err := s.eng.DiffSources(ctx, ka, kb)
	if !ok {
		if !settled(ctx, w, pend) {
			return d, false
		}
		var p [2]*rule.Policy
		for i := range p {
			if p[i], err = parseInput(ctx, schema, *src[i], what[i]); err != nil {
				writePolicyError(w, err)
				return d, false
			}
		}
		d, err = s.eng.DiffPair(ctx, p[0], p[1])
		s.eng.AliasSource(ka, d.A)
		s.eng.AliasSource(kb, d.B)
	}
	if err != nil {
		writeAnalysisError(w, err)
		return d, false
	}
	if !d.Stats.ReportCached {
		// Cached reports carry the timings of the run that produced them;
		// feeding those into the phase histograms again would double-count.
		s.observeTiming(d.Report.Timing)
	}
	return d, true
}

// cachedTail ends a diff response served from the report cache: the
// encoding of DiffResponse.Cached, its last field, when it is true.
var cachedTail = []byte(`,"cached":true}` + "\n")

// writeReport writes a diff response under an api.encode span. The body
// is the report's one encoding, kept on its cache entry
// (engine.EncodedReport): appendReport's body, which is encoding
// ConvertReport's response with Cached unset, cloned so the kept body has
// no spare capacity. A report-cache hit splices in the per-request
// cached flag, so each body is byte for byte what encoding the response
// with its flag would give.
func writeReport(ctx context.Context, w http.ResponseWriter, eng *engine.Engine, schema *field.Schema, d engine.PairDiff) {
	_, sp := trace.Start(ctx, "api.encode")
	defer sp.End()
	body := eng.EncodedReport(d, func() (kept []byte) {
		withBody(func(b []byte) []byte { return appendReport(b, schema, d.Report) },
			func(b []byte) { kept = bytes.Clone(b) })
		return kept
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if !d.Stats.ReportCached {
		w.Write(body)
		return
	}
	w.Write(body[:len(body)-len("}\n")])
	w.Write(cachedTail)
}

func (s *Server) crossCompare(w http.ResponseWriter, r *http.Request) {
	var req CrossCompareRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	if len(req.Policies) < 2 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("need at least 2 policies, got %d", len(req.Policies)))
		return
	}
	if len(req.Policies) > maxCrossPolicies {
		writeError(w, http.StatusBadRequest, CodeTooManyPolicies,
			fmt.Errorf("at most %d policies per cross-comparison, got %d", maxCrossPolicies, len(req.Policies)))
		return
	}
	names, policies, ok := parseNamedPolicies(r.Context(), w, schema, req.Policies)
	if !ok {
		return
	}

	start := time.Now()
	// The pairs run on the job coordinator's workers, as an async job's
	// do, but the job belongs to this request. Compilation happens inside
	// each pair (deduplicated by the compile cache, so each policy is
	// still constructed exactly once): a policy whose construction trips
	// the budget fails only its own pairs, and the matrix comes back
	// partial instead of empty.
	snap, err := s.jobs.Run(r.Context(), jobs.Spec{
		Kind:       jobs.KindCrossCompare,
		SchemaName: req.Schema,
		Names:      names,
		Policies:   policies,
	})
	if errors.Is(err, jobs.ErrClosed) {
		writeError(w, http.StatusServiceUnavailable, CodeServerOverloaded,
			fmt.Errorf("server shutting down"))
		return
	}
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	elapsed := millis(time.Since(start))
	respondWith(r, w, http.StatusOK, func(b []byte) []byte {
		return appendCrossCompare(b, schema, names, snap.Pairs, elapsed)
	})
}

// impact is POST /v1/impact. Its before policy is found as /v1/diff finds
// its policies: through the engine's text alias when its source was seen
// before, so a base that many edit scripts are run against is validated,
// parsed and hashed once. An after text makes the request a diff of two
// sources (diffSources); an edit script runs from the before policy's
// compilation (engine.DiffEditsSource), and on an alias miss the handler
// parses before, runs it (engine.DiffEdits) and records the alias.
func (s *Server) impact(w http.ResponseWriter, r *http.Request) {
	var req ImpactRequest
	var pend pendingTokens
	if decodeDeferred(w, r, &req, &pend) {
		s.serveImpact(w, r, &req, &pend)
	}
}

// serveImpact answers a decoded /v1/impact request whose pending policy
// tokens are pend.
func (s *Server) serveImpact(w http.ResponseWriter, r *http.Request, req *ImpactRequest, pend *pendingTokens) {
	ctx := r.Context()
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		if settled(ctx, w, pend) {
			writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		}
		return
	}
	// A before that does not parse is the first error a request gets after
	// its body's own, so every other request error is written by
	// badRequest, which settles the body and parses before first.
	badRequest := func(code string, err error) {
		if !settled(ctx, w, pend) {
			return
		}
		if _, perr := parseInput(ctx, schema, req.Before, "before"); perr != nil {
			writePolicyError(w, perr)
			return
		}
		writeError(w, http.StatusBadRequest, code, err)
	}
	if !req.After.IsZero() == (len(req.Edits) > 0) {
		badRequest(CodeBadRequest, fmt.Errorf("provide exactly one of after and edits"))
		return
	}
	var (
		before, after *rule.Policy
		report        *compare.Report
		st            engine.EditStats
	)
	if !req.After.IsZero() {
		d, ok := s.diffSources(ctx, w, pend, schema, req.Schema, [2]*PolicyInput{&req.Before, &req.After}, [2]string{"before", "after"})
		if !ok {
			return
		}
		// The attribution reads both policies off their compilations: were
		// entries ever to drop their policy, an alias hit would have to
		// parse as DiffEditsSource's caller does.
		before, after, report, st.DiffStats = d.A.Policy, d.B.Policy, d.Report, d.Stats
	} else {
		edits := make([]impact.Edit, 0, len(req.Edits))
		for i, line := range req.Edits {
			e, err := impact.ParseEdit(schema, line)
			if err != nil {
				badRequest(CodeUnparseablePolicy, fmt.Errorf("edit %d: %v", i+1, err))
				return
			}
			edits = append(edits, e)
		}
		if err := pend.settleOverwritten(); err != nil {
			writeBodyError(w, err)
			return
		}
		// The edits path goes through the incremental pipeline: the
		// after-FDD resumes the before policy's construction from a
		// checkpoint when possible, and the response says whether it did.
		key := req.Before.key(req.Schema)
		d, ok, err := s.eng.DiffEditsSource(ctx, key, edits)
		if ok {
			before = d.Before.Policy
		} else {
			if !settled(ctx, w, pend) {
				return
			}
			if before, err = parseInput(ctx, schema, req.Before, "before"); err != nil {
				writePolicyError(w, err)
				return
			}
			d, err = s.eng.DiffEdits(ctx, before, edits)
			s.eng.AliasSource(key, d.Before)
		}
		if err != nil {
			writeAnalysisError(w, err)
			return
		}
		after, report, st = d.After, d.Report, d.Stats
		if !st.ReportCached {
			s.observeTiming(report.Timing)
		}
	}
	resp := ConvertImpact(impact.FromReport(before, after, report))
	resp.Incremental = st.Incremental
	resp.RulesReappended = st.RulesReappended
	respond(r, w, http.StatusOK, resp)
}

func (s *Server) audit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	p, err := parseInput(r.Context(), schema, req.Policy, "policy")
	if err != nil {
		writePolicyError(w, err)
		return
	}

	findings, err := s.policyFindings(r.Context(), p, req.Complete)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	respond(r, w, http.StatusOK, AuditResponse{Findings: findings})
}

// policyFindings runs the single-policy checks /v1/audit and /v1/analyze
// share: the pairwise anomaly taxonomy, then the exact FDD-based
// never-first-match check and, when redundant is set, semantic
// redundancy, which stops once ctx is done. Both exact checks read the
// policy's one compilation (engine.Compile: cached, coalesced,
// budgeted), which they never modify. Its errors are pipeline errors (a
// non-comprehensive policy has no FDD, a policy past the work budget is
// too complex, a dead request has no time), for writeAnalysisError.
func (s *Server) policyFindings(ctx context.Context, p *rule.Policy, redundant bool) ([]Finding, error) {
	c, _, err := s.eng.Compile(ctx, p)
	if err != nil {
		return nil, err
	}
	findings := ConvertAnomalies(p, anomaly.Detect(p))
	for _, i := range anomaly.CompletelyShadowed(c.Builder.Effective()) {
		findings = append(findings, Finding{
			Kind:   "never-first-match",
			Rules:  []int{i + 1},
			Detail: fmt.Sprintf("rule %d is never a first match: %s", i+1, rule.FormatRule(p.Schema, p.Rules[i])),
		})
	}
	if !redundant {
		return findings, nil
	}
	_, removed, err := redundancy.RemoveAll(ctx, c.Builder)
	if err != nil {
		return nil, err
	}
	for _, i := range removed {
		findings = append(findings, Finding{
			Kind:   "redundant",
			Rules:  []int{i + 1},
			Detail: fmt.Sprintf("rule %d is semantically redundant: %s", i+1, rule.FormatRule(p.Schema, p.Rules[i])),
		})
	}
	return findings, nil
}

// analyzeSeverity grades a finding kind: findings that mean traffic is
// decided by a rule the author cannot see firing (shadowing, a rule
// that is never a first match) are errors, ordering subtleties and
// proven dead weight are warnings, pairwise redundancy hints are info.
func analyzeSeverity(kind string) string {
	switch kind {
	case "shadowing", "never-first-match":
		return "error"
	case "generalization", "correlation", "redundant":
		return "warning"
	default:
		return "info"
	}
}

// analyze is POST /v1/analyze: the single-policy health report. It runs
// the pairwise anomaly taxonomy and the exact FDD-based checks
// (never-first-match, semantic redundancy) over the lowered policy —
// whatever format it arrived in — and profiles its complexity.
func (s *Server) analyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	p, err := parseInput(r.Context(), schema, req.Policy, "policy")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	format := req.Policy.Format
	if format == "" {
		format = frontend.DefaultFormat
	}
	findings, err := s.policyFindings(r.Context(), p, true)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	resp := AnalyzeResponse{Format: format, Policy: rule.FormatPolicy(p)}
	for _, f := range findings {
		source := "pairwise"
		if f.Kind == "never-first-match" || f.Kind == "redundant" {
			source = "exact"
		}
		resp.Findings = append(resp.Findings, AnalyzeFinding{
			Kind:     f.Kind,
			Severity: analyzeSeverity(f.Kind),
			Source:   source,
			Rules:    f.Rules,
			Detail:   f.Detail,
		})
	}
	resp.Complexity = complexityOf(p)
	respond(r, w, http.StatusOK, resp)
}

// complexityOf profiles the lowered policy — the "Rules in Play"-style
// counts: how many rules, and how finely each field is cut.
func complexityOf(p *rule.Policy) Complexity {
	schema := p.Schema
	c := Complexity{Rules: len(p.Rules), Fields: schema.NumFields()}
	for fi := 0; fi < schema.NumFields(); fi++ {
		f := schema.Field(fi)
		full := interval.SetFromInterval(f.Domain)
		fc := FieldComplexity{Name: f.Name}
		for _, rl := range p.Rules {
			s := rl.Pred[fi]
			fc.Intervals += s.NumIntervals()
			if !s.Equal(full) {
				fc.ConstrainedRules++
			}
		}
		c.Intervals += fc.Intervals
		c.PerField = append(c.PerField, fc)
	}
	return c
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	p, err := parseInput(r.Context(), schema, req.Policy, "policy")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	q, err := query.Parse(schema, req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	c, _, err := s.eng.Compile(r.Context(), p)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	result, err := query.Run(c.FDD, q)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	resp := QueryResponse{Empty: result.Empty()}
	if !resp.Empty {
		resp.Values = rule.FormatValueSet(schema.Field(q.Select), result)
	}
	respond(r, w, http.StatusOK, resp)
}

// parseDecisions validates the wire decision map: keys must be canonical
// 1-based decimal row numbers — "01", "+1", or " 1" would otherwise
// alias row 1 and silently overwrite each other's decisions — and no two
// keys may target the same row.
func parseDecisions(decisions map[string]string) (map[int]rule.Decision, error) {
	out := make(map[int]rule.Decision, len(decisions))
	for key, decText := range decisions {
		row, err := strconv.Atoi(key)
		if err != nil || row < 1 || strconv.Itoa(row) != key {
			return nil, fmt.Errorf("bad decision row %q (rows are 1-based decimal integers)", key)
		}
		if _, dup := out[row]; dup {
			return nil, fmt.Errorf("duplicate decision for row %d", row)
		}
		dec, err := rule.ParseDecision(decText)
		if err != nil {
			return nil, err
		}
		out[row] = dec
	}
	return out, nil
}

func (s *Server) resolve(w http.ResponseWriter, r *http.Request) {
	var req ResolveRequest
	if !decodeInto(w, r, &req) {
		return
	}
	schema, err := field.SchemaByName(req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeUnknownSchema, err)
		return
	}
	pa, err := parseInput(r.Context(), schema, req.A, "policy a")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	pb, err := parseInput(r.Context(), schema, req.B, "policy b")
	if err != nil {
		writePolicyError(w, err)
		return
	}
	decisions, err := parseDecisions(req.Decisions)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// Going through the engine means the same cached report backs
	// /v1/diff and /v1/resolve for one pair, so the 1-based row numbers
	// clients took from the diff stay valid here. The plan compiles every
	// diagram it uses on the same engine.
	d, err := s.eng.DiffPair(r.Context(), pa, pb)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if !d.Stats.ReportCached {
		s.observeTiming(d.Report.Timing)
	}
	plan := resolve.NewPlanFromReport(pa, pb, s.eng, d.Report)
	for row, dec := range decisions {
		if err := plan.Resolve(row-1, dec); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	if !plan.Resolved() {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("%d discrepancies, not all resolved", len(plan.Report.Discrepancies)))
		return
	}
	var final *rule.Policy
	switch req.Method {
	case "", "fdd", "1":
		final, err = plan.Method1Context(r.Context())
	case "a":
		final, err = plan.Method2Context(r.Context(), true)
	case "b":
		final, err = plan.Method2Context(r.Context(), false)
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("unknown method %q", req.Method))
		return
	}
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	if err := plan.VerifyContext(r.Context(), final); err != nil {
		writeAnalysisError(w, err)
		return
	}
	respond(r, w, http.StatusOK, ResolveResponse{
		Policy: rule.FormatPolicy(final),
		Rows:   len(plan.Report.Discrepancies),
	})
}

// respond writes a handler's result under an api.encode span.
func respond(r *http.Request, w http.ResponseWriter, status int, v interface{}) {
	_, sp := trace.Start(r.Context(), "api.encode")
	writeJSON(w, status, v)
	sp.End()
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header can only be logged; for these small
	// bodies they do not occur in practice.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the v1 error envelope. The request ID was stamped
// onto the response headers by the middleware before the handler ran, so
// it is read back from there.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeErrorDiags(w, status, code, err, nil)
}

// writeErrorDiags is writeError with positioned parse diagnostics
// attached to the envelope (frontend parse failures).
func writeErrorDiags(w http.ResponseWriter, status int, code string, err error, diags []frontend.Diagnostic) {
	detail := ErrorDetail{
		Code:        code,
		Message:     err.Error(),
		RequestID:   w.Header().Get("X-Request-ID"),
		Diagnostics: diags,
	}
	writeJSON(w, status, Error{Err: detail})
}
