package api

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// post sends a raw body and returns the recorder.
func post(srv http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestMethodNotAllowedSetsAllow(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		req := httptest.NewRequest(method, "/v1/diff", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s: status = %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
			t.Fatalf("%s: Allow = %q, want %q", method, allow, http.MethodPost)
		}
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	body := `{"a":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	rec := post(srv, "/v1/diff", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestTrailingGarbageIs400(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	five := "dport in 25 -> accept\\nany -> discard\\n"
	valid := fmt.Sprintf(`{"a":"%s","b":"%s"}`, five, five)
	// The valid body alone succeeds...
	if rec := post(srv, "/v1/diff", valid); rec.Code != http.StatusOK {
		t.Fatalf("valid body: status = %d: %s", rec.Code, rec.Body.String())
	}
	// ...but a second JSON value or plain junk after it is rejected.
	for _, body := range []string{valid + `{"a":"x"}`, valid + "junk", valid + "[]"} {
		rec := post(srv, "/v1/diff", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("trailing %q: status = %d, want 400", body[len(valid):], rec.Code)
		}
	}
}

func TestResolveRejectsNonCanonicalRows(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	for _, key := range []string{"01", "+1", "0", "-1", " 1", "1e0", ""} {
		code := do(t, srv, "/v1/resolve", ResolveRequest{
			Schema: "paper", A: in(teamA), B: in(teamB),
			Decisions: map[string]string{key: "discard"},
		}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("key %q: status = %d, want 400", key, code)
		}
	}
}

func TestParseDecisions(t *testing.T) {
	t.Parallel()
	got, err := parseDecisions(map[string]string{"1": "accept", "12": "discard"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != rule.Accept || got[12] != rule.Discard {
		t.Fatalf("parsed = %v", got)
	}
	for _, bad := range []map[string]string{
		{"01": "accept"},
		{"+2": "accept"},
		{"0": "accept"},
		{"1": "zork"},
	} {
		if _, err := parseDecisions(bad); err == nil {
			t.Fatalf("decisions %v: expected error", bad)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	srv := NewServer(WithMetrics(reg))

	// Exercise every /v1/* endpoint once.
	do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, nil)
	do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in(teamB)}, nil)
	do(t, srv, "/v1/audit", AuditRequest{Schema: "paper", Policy: in(teamA)}, nil)
	do(t, srv, "/v1/query", QueryRequest{Schema: "paper", Policy: in(teamB),
		Query: "select N where I in 0 && D in 192.168.0.1 decision accept"}, nil)
	do(t, srv, "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamA),
		Decisions: map[string]string{}}, nil)
	do(t, srv, "/v1/diff", DiffRequest{Schema: "warp"}, nil) // a 400 to vary the code label

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`fwserved_http_requests_total{path="/v1/diff",code="200"} 1`,
		`fwserved_http_requests_total{path="/v1/diff",code="400"} 1`,
		`fwserved_http_requests_total{path="/v1/impact",code="200"} 1`,
		`fwserved_http_requests_total{path="/v1/audit",code="200"} 1`,
		`fwserved_http_requests_total{path="/v1/query",code="200"} 1`,
		`fwserved_http_requests_total{path="/v1/resolve",code="200"} 1`,
		`fwserved_http_request_duration_seconds_bucket{path="/v1/diff",le="+Inf"} 2`,
		`fwserved_http_inflight_requests`,
		`fwserved_http_panics_total 0`,
		`fwserved_pipeline_phase_seconds_bucket{phase="construct",le="+Inf"}`,
		`fwserved_pipeline_phase_seconds_bucket{phase="compare",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	// The served diffs ran no shaping, so the shape phase saw no
	// observation at all — not a zero.
	if strings.Contains(out, `fwserved_pipeline_phase_seconds_count{phase="shape"}`) {
		t.Fatalf("shape phase observed although no shaping ran:\n%s", out)
	}
	// diff ran the pipeline; impact asked for the same (teamA, teamB)
	// pair and was served from the engine's report cache (no second
	// observation — cached timings must not double-count); resolve's
	// (teamA, teamA) pair ran the pipeline again. Two observations.
	for _, phase := range []string{"construct", "compare"} {
		if want := `fwserved_pipeline_phase_seconds_count{phase="` + phase + `"} 2`; !strings.Contains(out, want) {
			t.Fatalf("%s phase count wrong, want %q:\n%s", phase, want, out)
		}
	}
	// The engine's own families are exported through the same registry.
	for _, want := range []string{
		`fwengine_cache_hits_total{cache="report"} 1`,
		`fwengine_compilations_total`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	srv := NewServer(WithMetrics(reg))
	h := srv.wrap("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if got := srv.inst.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

func TestRequestTimeoutIs503(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithRequestTimeout(time.Millisecond))
	pa := rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 500, Seed: 1}))
	pb := rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 500, Seed: 2}))
	code := do(t, srv, "/v1/diff", DiffRequest{A: in(pa), B: in(pb)}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
}

// TestAnalyzeRequestTimeoutIs503: semantic redundancy removal polls the
// request's ctx once per candidate rule, so /v1/analyze on a 661-rule
// policy, whose complete checks take tens of milliseconds, answers a 5ms
// request timeout with 503 timeout instead of running them to the end.
func TestAnalyzeRequestTimeoutIs503(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithRequestTimeout(5 * time.Millisecond))
	p := rule.FormatPolicy(synth.RealLife(661, 1))
	rec := doRec(t, srv, "/v1/analyze", AnalyzeRequest{Schema: "five", Policy: in(p)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if e := errorBody(t, rec); e.Err.Code != CodeTimeout {
		t.Fatalf("error code = %q, want %q", e.Err.Code, CodeTimeout)
	}
}

// TestAuditRequestTimeoutIs503: the never-first-match check builds the
// policy's FDD under the request's ctx, so /v1/audit without the
// semantic redundancy pass still answers a 1ms request timeout on a
// 661-rule policy with 503 timeout instead of finishing the construction.
func TestAuditRequestTimeoutIs503(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithRequestTimeout(time.Millisecond))
	p := rule.FormatPolicy(synth.RealLife(661, 1))
	rec := doRec(t, srv, "/v1/audit", AuditRequest{Schema: "five", Policy: in(p)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%.300s", rec.Code, rec.Body.String())
	}
	if e := errorBody(t, rec); e.Err.Code != CodeTimeout {
		t.Fatalf("error code = %q, want %q", e.Err.Code, CodeTimeout)
	}
}

// TestClientDisconnectCancelsDiff is the acceptance test for pipeline
// cancellation end to end: a client that goes away mid-/v1/diff must
// abort the pipeline (observed as a 499 in the request metrics — if it
// ran to completion the handler would record a 200 against the dead
// connection) and the in-flight gauge must drain.
//
// A fault at the compile point holds both compilations until their
// flight contexts end, which happens only once their last waiter, the
// request, has gone: the request cannot finish before the hang-up
// however loaded the machine is. The fault is registered on the
// process-wide chaos registry, so the test does not run in parallel.
func TestClientDisconnectCancelsDiff(t *testing.T) {
	remove := chaos.Register(chaos.PointCompile, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	defer remove()
	reg := metrics.NewRegistry()
	api := NewServer(WithMetrics(reg))
	ts := httptest.NewServer(api)
	defer ts.Close()

	pa := rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 50, Seed: 1}))
	pb := rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 50, Seed: 2}))
	body := fmt.Sprintf(`{"a":%q,"b":%q}`, pa, pb)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/diff", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d before cancellation", resp.StatusCode)
		}
		errCh <- err
	}()

	// Wait until the server is actually working on the request, then
	// hang up.
	waitFor(t, 10*time.Second, func() bool { return api.inst.inflight.Value() > 0 })
	cancel()
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The handler must finish (gauge drains) with the canceled status.
	waitFor(t, 10*time.Second, func() bool { return api.inst.inflight.Value() == 0 })
	c := api.inst.requests.With("/v1/diff", "499")
	waitFor(t, 10*time.Second, func() bool { return c.Value() == 1 })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, limit time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceServerTiming is serverTiming as it was before it summed the
// live spans: it sums the durations of a snapshot of the whole trace.
// TestServerTimingMatchesSnapshot holds serverTiming to it.
func referenceServerTiming(root trace.SpanRecord) string {
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

// randomTrace builds a span tree under a fresh trace's root: phases that
// repeat, compare.direct beside compare, names no header shows, spans
// measured externally with sub-microsecond and multi-second durations,
// and spans still running at every depth.
func randomTrace(rng *rand.Rand) *trace.Trace {
	names := append(serverTimingPhases[:], "compare.direct", "compile", "cache-lookup", "api.encode", "job.pair")
	_, tr := trace.New(context.Background(), "/v1/diff", "differential")
	spans := []*trace.Span{tr.Root()}
	base := time.Now().Add(-time.Hour)
	for range rng.IntN(40) {
		parent := spans[rng.IntN(len(spans))]
		name := names[rng.IntN(len(names))]
		if rng.IntN(2) == 0 {
			start := base.Add(time.Duration(rng.Int64N(int64(time.Minute))))
			parent.AddCompleted(name, start, time.Duration(rng.Int64N(int64(3*time.Second))))
			continue
		}
		child := parent.StartChild(name)
		if rng.IntN(3) > 0 {
			child.End()
		}
		spans = append(spans, child)
	}
	if rng.IntN(2) == 0 {
		tr.Finish()
	}
	return tr
}

// TestServerTimingMatchesSnapshot holds serverTiming to the snapshot
// it replaced, over random span trees, each read at one instant.
func TestServerTimingMatchesSnapshot(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 35))
	for i := range 500 {
		tr := randomTrace(rng)
		now := time.Now()
		got, want := serverTiming(tr.Root(), now), referenceServerTiming(tr.Root().SnapshotAt(now))
		if got != want {
			t.Fatalf("trace %d: serverTiming = %q, the snapshot gives %q", i, got, want)
		}
	}
}

// TestServerTimingAllocs: summing the live spans allocates the header
// value and nothing else, and nothing when there is no header.
func TestServerTimingAllocs(t *testing.T) {
	_, tr := trace.New(context.Background(), "/v1/diff", "allocs")
	now := time.Now()
	if n := testing.AllocsPerRun(20, func() { serverTiming(tr.Root(), now) }); n != 0 {
		t.Fatalf("serverTiming of a trace with no phase makes %v allocations, want 0", n)
	}
	for _, name := range serverTimingPhases {
		tr.Root().AddCompleted(name, now, time.Millisecond)
		tr.Root().StartChild(name).AddCompleted("compare.direct", now, time.Second)
	}
	if n := testing.AllocsPerRun(20, func() { serverTiming(tr.Root(), now) }); n != 1 {
		t.Fatalf("serverTiming makes %v allocations, want 1: the header value", n)
	}
}
