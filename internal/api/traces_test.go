package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"diversefw/internal/chaos"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/metrics"
	"diversefw/internal/resolve"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// getTraces GETs /debug/traces (with optional query) off the server.
func getTraces(t *testing.T, srv http.Handler, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/debug/traces"+query, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces%s: status %d\n%s", query, rec.Code, rec.Body.String())
	}
	return rec
}

// TestTraceCapturesPipeline pins the acceptance criterion: a /v1/diff
// request produces a retained trace whose tree contains the body decode,
// construct spans and the engine's one diff span with the direct walk
// under it, each carrying its deep stats, and no shaping; the response
// itself carries X-Trace-ID and a Server-Timing breakdown that counts
// the walk as the compare phase.
func TestTraceCapturesPipeline(t *testing.T) {
	t.Parallel()
	srv := NewServer()

	req := DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}
	rec := doRec(t, srv, "/v1/diff", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("diff: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("diff response missing X-Trace-ID")
	}
	st := rec.Header().Get("Server-Timing")
	for _, entry := range []string{"construct;dur=", "compare;dur=", "total;dur="} {
		if !strings.Contains(st, entry) {
			t.Fatalf("Server-Timing = %q, want a %q entry", st, entry)
		}
	}
	if strings.Contains(st, "shape;") {
		t.Fatalf("Server-Timing = %q reports a shape phase that did not run", st)
	}
	// The wire field stays, as zero.
	if body := rec.Body.String(); !strings.Contains(body, `"shapeMillis":0,`) {
		t.Fatalf("diff response lacks \"shapeMillis\":0: %s", body)
	}

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observed == 0 || len(snap.Recent) == 0 {
		t.Fatalf("trace buffer empty after a traced request: %+v", snap)
	}
	var found *trace.Record
	for i := range snap.Recent {
		if snap.Recent[i].TraceID == traceID {
			found = &snap.Recent[i]
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained; have %d records", traceID, len(snap.Recent))
	}
	if found.Root.Name != "/v1/diff" {
		t.Fatalf("root span = %q, want /v1/diff", found.Root.Name)
	}
	if got := found.Root.Attrs["requestId"]; got == "" || got == nil {
		t.Fatalf("root attrs missing requestId: %v", found.Root.Attrs)
	}

	// The body decode is the root's first child, sized by the body.
	if len(found.Root.Children) == 0 || found.Root.Children[0].Name != "api.decode" {
		t.Fatalf("root's first child is not api.decode: %+v", found.Root.Children)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := found.Root.Children[0].Attrs["bytes"]; got != float64(len(raw)) {
		t.Fatalf("api.decode bytes attr = %v, want the body's %d", got, len(raw))
	}

	cons, ok := found.Root.Find("construct")
	if !ok {
		t.Fatal("construct span missing from diff trace")
	}
	for _, attr := range []string{"rules", "nodes", "edges", "overlayNodes"} {
		if _, ok := cons.Attrs[attr]; !ok {
			t.Fatalf("construct span missing %q attr: %v", attr, cons.Attrs)
		}
	}
	for _, gone := range []string{"nodesPreReduce", "edgesPreReduce"} {
		if _, ok := cons.Attrs[gone]; ok {
			t.Fatalf("construct span still carries %q: %v", gone, cons.Attrs)
		}
	}
	for _, gone := range []string{"shape", "compare", "diff.direct"} {
		if _, ok := found.Root.Find(gone); ok {
			t.Fatalf("served diff trace has a %q span", gone)
		}
	}
	diff, ok := found.Root.Find("diff")
	if !ok {
		t.Fatal("engine diff span missing from diff trace")
	}
	walk, ok := diff.Find("compare.direct")
	if !ok {
		t.Fatal("compare.direct span missing under the diff span")
	}
	for _, attr := range []string{"terminalPairs", "differingPairs", "sharedHits", "rowsEnumerated", "mergeRounds"} {
		if _, ok := walk.Attrs[attr]; !ok {
			t.Fatalf("compare.direct span missing %q attr: %v", attr, walk.Attrs)
		}
	}
	// The merge folds the enumerated rows into fewer, in at least one
	// round.
	if n, _ := walk.Attrs["rowsEnumerated"].(float64); n < 3 {
		t.Fatalf("compare.direct rowsEnumerated attr = %v, want at least the 3 rows", walk.Attrs["rowsEnumerated"])
	}
	if n, _ := walk.Attrs["mergeRounds"].(float64); n < 1 {
		t.Fatalf("compare.direct mergeRounds attr = %v, want at least 1", walk.Attrs["mergeRounds"])
	}
	for _, old := range []string{"pathsCompared", "rawPaths"} {
		if _, ok := walk.Attrs[old]; ok {
			t.Fatalf("compare.direct span still carries %q: %v", old, walk.Attrs)
		}
	}
	// teamA vs teamB is the paper's example: 3 discrepancy rows.
	if got := walk.Attrs["discrepancies"]; got != float64(3) {
		t.Fatalf("compare.direct discrepancies attr = %v, want 3", got)
	}
	if _, ok := found.Root.Find("cache-lookup"); !ok {
		t.Fatal("engine cache-lookup event missing from diff trace")
	}
}

// TestTraceResolveSpans covers the resolution endpoint's extra spans.
func TestTraceResolveSpans(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	rec := doRec(t, srv, "/v1/resolve", ResolveRequest{
		Schema: "paper", A: in(teamA), B: in(teamB),
		Decisions: map[string]string{"1": "discard", "2": "accept", "3": "discard"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range snap.Recent {
		if r.TraceID != traceID {
			continue
		}
		gen, ok := r.Root.Find("resolve-generate")
		if !ok {
			t.Fatal("resolve-generate span missing")
		}
		if gen.Attrs["method"] != "fdd" {
			t.Fatalf("resolve-generate method attr = %v", gen.Attrs)
		}
		ver, ok := r.Root.Find("resolve-verify")
		if !ok {
			t.Fatal("resolve-verify span missing")
		}
		if ver.Attrs["equivalent"] != true {
			t.Fatalf("resolve-verify equivalent attr = %v", ver.Attrs)
		}
		return
	}
	t.Fatalf("trace %s not retained", traceID)
}

// TestTraceResolveMethodARunsProductWalk: resolution method a neither
// shapes nor walks in lockstep. Its redundancy removal is one span under
// resolve-generate, and the verification is an engine diff under
// resolve-verify, whose walk is the diff span's compare.direct child.
func TestTraceResolveMethodARunsProductWalk(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	rec := doRec(t, srv, "/v1/resolve", ResolveRequest{
		Schema: "paper", A: in(teamA), B: in(teamB), Method: "a",
		Decisions: map[string]string{"1": "discard", "2": "accept", "3": "discard"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d\n%s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")

	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range snap.Recent {
		if r.TraceID != traceID {
			continue
		}
		for _, gone := range []string{"shape", "compare"} {
			if _, ok := r.Root.Find(gone); ok {
				t.Fatalf("method a trace has a %q span", gone)
			}
		}
		gen, ok := r.Root.Find("resolve-generate")
		if !ok || gen.Attrs["method"] != "a" {
			t.Fatalf("resolve-generate span = %+v, %v; want method a", gen.Attrs, ok)
		}
		red, ok := gen.Find("redundancy")
		if !ok {
			t.Fatal("redundancy span missing under resolve-generate")
		}
		for _, attr := range []string{"checked", "removed"} {
			if _, ok := red.Attrs[attr]; !ok {
				t.Fatalf("redundancy span missing %q attr: %v", attr, red.Attrs)
			}
		}
		ver, ok := r.Root.Find("resolve-verify")
		if !ok {
			t.Fatal("resolve-verify span missing")
		}
		direct := false
		for _, c := range ver.Children {
			if c.Name != "diff" {
				continue
			}
			for _, w := range c.Children {
				direct = direct || w.Name == "compare.direct"
			}
		}
		if !direct {
			t.Fatalf("resolve-verify has no diff span over a compare.direct walk: %+v", ver.Children)
		}
		return
	}
	t.Fatalf("trace %s not retained", traceID)
}

// TestTracesChromeFormat checks the ?format=chrome round-trip: a valid
// JSON array of complete events loadable in about:tracing.
func TestTracesChromeFormat(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	if rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != 200 {
		t.Fatalf("diff: status %d", rec.Code)
	}

	rec := getTraces(t, srv, "?format=chrome")
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("chrome format is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export empty")
	}
	names := map[string]bool{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", ev["ph"])
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"/v1/diff", "construct", "diff", "compare.direct"} {
		if !names[want] {
			t.Fatalf("chrome export missing %q event; have %v", want, names)
		}
	}
	for _, gone := range []string{"shape", "compare", "diff.direct"} {
		if names[gone] {
			t.Fatalf("chrome export has a %q event; have %v", gone, names)
		}
	}

	// Unknown formats are a 400 with the v1 envelope.
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?format=svg", nil)
	bad := httptest.NewRecorder()
	srv.ServeHTTP(bad, req)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("format=svg: status %d", bad.Code)
	}
}

// TestSpanMetrics checks that completed traces feed the span-duration
// histograms on the metrics registry.
func TestSpanMetrics(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	srv := NewServer(WithMetrics(reg))
	if rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != 200 {
		t.Fatalf("diff: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	body := rec.Body.String()
	if !strings.Contains(body, `fwserved_span_duration_seconds_count{span="construct"}`) {
		t.Fatalf("span histogram for construct missing from /metrics:\n%s", body)
	}
	if !strings.Contains(body, `fwserved_span_duration_seconds_count{span="/v1/diff"}`) {
		t.Fatalf("span histogram for the root span missing from /metrics")
	}
}

// metricSample scrapes srv's /metrics and returns the value of series,
// a family name with its labels, or 0 when the series is absent.
func metricSample(t *testing.T, srv http.Handler, series string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// TestCrossCompareFeedsSpansNotPhases pins what the two histograms of
// construction time count: a cross-comparison's compilations add
// construct spans, but only fresh /v1/diff, /v1/impact and /v1/resolve
// reports feed the pipeline phases, so a cross-comparison leaves them
// as they were.
func TestCrossCompareFeedsSpansNotPhases(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithMetrics(metrics.NewRegistry()))
	if rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != http.StatusOK {
		t.Fatalf("diff: status %d\n%s", rec.Code, rec.Body)
	}
	const spans, phases = `fwserved_span_duration_seconds_count{span="construct"}`, `fwserved_pipeline_phase_seconds_count{phase="construct"}`
	spansBefore, phasesBefore := metricSample(t, srv, spans), metricSample(t, srv, phases)
	if phasesBefore != 1 {
		t.Fatalf("a fresh diff observed the construct phase %v times, want 1", phasesBefore)
	}
	req := CrossCompareRequest{Schema: "paper", Policies: []NamedPolicy{
		{Policy: in("I in 1 -> discard\nany -> accept\n")}, {Policy: in("any -> accept\n")}, {Policy: in(teamA)}}}
	if rec := doRec(t, srv, "/v1/crosscompare", req); rec.Code != http.StatusOK {
		t.Fatalf("crosscompare: status %d\n%s", rec.Code, rec.Body)
	}
	if got := metricSample(t, srv, spans); got <= spansBefore {
		t.Fatalf("a cross-comparison compiling two new policies left %s at %v", spans, got)
	}
	if got := metricSample(t, srv, phases); got != phasesBefore {
		t.Fatalf("a cross-comparison moved %s from %v to %v", phases, phasesBefore, got)
	}
}

// TestUntracedEndpointsStayOut pins that /healthz and /debug/traces do
// not trace themselves into the buffer.
func TestUntracedEndpointsStayOut(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observed != 0 {
		t.Fatalf("non-/v1 endpoints were traced: observed = %d", snap.Observed)
	}
}

// constructAncestors returns, for every "construct" span under root, the
// names of its ancestors, outermost first.
func constructAncestors(root trace.SpanRecord) [][]string {
	var out [][]string
	var walk func(r trace.SpanRecord, path []string)
	walk = func(r trace.SpanRecord, path []string) {
		if r.Name == "construct" {
			out = append(out, append([]string(nil), path...))
		}
		for _, c := range r.Children {
			walk(c, append(path, r.Name))
		}
	}
	walk(root, nil)
	return out
}

// tracedRoot returns the root span of the trace rec's response names.
func tracedRoot(t *testing.T, srv http.Handler, rec *httptest.ResponseRecorder) trace.SpanRecord {
	t.Helper()
	id := rec.Header().Get("X-Trace-ID")
	var snap trace.Snapshot
	if err := json.Unmarshal(getTraces(t, srv, "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, r := range snap.Recent {
		if r.TraceID == id {
			return r.Root
		}
	}
	t.Fatalf("trace %s not retained", id)
	return trace.SpanRecord{}
}

// TestServedAnalysesReuseCompilation: every served analysis takes its
// received policies' diagrams from the engine's one compilation. A first
// /v1/analyze constructs the policy once, under "compile"; /v1/audit and
// /v1/query of the same policy construct nothing and compile nothing
// more. A Method 1 /v1/resolve after a /v1/diff of its pair constructs
// only under "compile" spans (the reference semantics and the candidate
// it verifies), shapes nothing, and returns the library's Method 1
// firewall; a repeat of it compiles nothing new; and the resolve leaves
// the cached diagrams as they were, so the pair diffs to the same rows
// afterwards. Last, a resolve whose reference compile trips the work
// budget answers 422 policy_too_complex and caches nothing.
//
// The budget fault is registered on the process-wide chaos registry, so
// the test does not run in parallel.
func TestServedAnalysesReuseCompilation(t *testing.T) {
	// Limits far beyond what the pair needs, so that each compile flight
	// carries a budget for the fault to exhaust.
	srv := NewServer(WithEngine(engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: 1 << 40}})))
	pa := synth.RealLife(661, 1)
	pb, _ := synth.Perturb(pa, 1, 2)
	a, b := rule.FormatPolicy(pa), rule.FormatPolicy(pb)

	rec := doRec(t, srv, "/v1/analyze", AnalyzeRequest{Schema: "five", Policy: in(a)})
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze: status %d\n%.300s", rec.Code, rec.Body.String())
	}
	cons := constructAncestors(tracedRoot(t, srv, rec))
	if len(cons) != 1 || !slices.Contains(cons[0], "compile") {
		t.Fatalf("analyze construct spans (ancestors) = %v, want one under compile", cons)
	}
	compilations := srv.Engine().Stats().Compilations
	for path, body := range map[string]any{
		"/v1/audit": AuditRequest{Schema: "five", Policy: in(a), Complete: true},
		"/v1/query": QueryRequest{Schema: "five", Policy: in(a), Query: "select dport decision accept"},
	} {
		rec := doRec(t, srv, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d\n%.300s", path, rec.Code, rec.Body.String())
		}
		if cons := constructAncestors(tracedRoot(t, srv, rec)); len(cons) != 0 {
			t.Fatalf("%s construct spans (ancestors) = %v, want none", path, cons)
		}
	}
	if got := srv.Engine().Stats().Compilations; got != compilations {
		t.Fatalf("compilations went from %d to %d across audit and query", compilations, got)
	}

	diff := func() DiffResponse {
		t.Helper()
		rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "five", A: in(a), B: in(b)})
		if rec.Code != http.StatusOK {
			t.Fatalf("diff: status %d\n%.300s", rec.Code, rec.Body.String())
		}
		var resp DiffResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	before := diff()
	if len(before.Discrepancies) == 0 {
		t.Fatal("perturbed pair diffs equivalent; the resolve below would check nothing")
	}
	decisions := make(map[string]string, len(before.Discrepancies))
	for i, d := range before.Discrepancies {
		decisions[strconv.Itoa(i+1)] = d.B
	}
	resolveReq := ResolveRequest{Schema: "five", A: in(a), B: in(b), Method: "fdd", Decisions: decisions}
	rec = doRec(t, srv, "/v1/resolve", resolveReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d\n%.300s", rec.Code, rec.Body.String())
	}
	// The compiled diagrams yield the firewall the library's own plan
	// does.
	var served ResolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	plan, err := resolve.NewPlan(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Report.Discrepancies {
		if err := plan.Resolve(i, d.B); err != nil {
			t.Fatal(err)
		}
	}
	final, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	if got := rule.FormatPolicy(final); served.Policy != got {
		t.Fatalf("served Method 1 firewall (%d bytes) differs from the library's (%d bytes)", len(served.Policy), len(got))
	}
	root := tracedRoot(t, srv, rec)
	cons = constructAncestors(root)
	if len(cons) == 0 {
		t.Fatal("resolve has no construct span; it compiles its reference and candidate")
	}
	for _, path := range cons {
		if !slices.Contains(path, "compile") {
			t.Fatalf("resolve construct span outside a compile span: ancestors %v", path)
		}
	}
	if _, ok := root.Find("shape"); ok {
		t.Fatal("Method 1 resolve trace has a shape span")
	}
	compilations = srv.Engine().Stats().Compilations
	again := doRec(t, srv, "/v1/resolve", resolveReq)
	if again.Code != http.StatusOK || again.Body.String() != rec.Body.String() {
		t.Fatalf("repeated resolve: status %d, body differs %v", again.Code, again.Body.String() != rec.Body.String())
	}
	if got := srv.Engine().Stats().Compilations; got != compilations {
		t.Fatalf("compilations went from %d to %d across a repeated resolve", compilations, got)
	}

	// The cached diagrams still diff to the rows the report cache holds
	// for them.
	after := diff()
	if !reflect.DeepEqual(after.Discrepancies, before.Discrepancies) {
		t.Fatalf("diff rows changed across resolve: %d rows before, %d after", len(before.Discrepancies), len(after.Discrepancies))
	}
	ctx := context.Background()
	ca, hitA, err := srv.Engine().Compile(ctx, pa)
	if err != nil {
		t.Fatal(err)
	}
	cb, hitB, err := srv.Engine().Compile(ctx, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !hitA || !hitB {
		t.Fatalf("compile cache hits a=%v b=%v; the pair must still be cached", hitA, hitB)
	}
	cached, hit, err := srv.Engine().Diff(ctx, ca, cb)
	if err != nil || !hit {
		t.Fatalf("cached report: hit %v, err %v", hit, err)
	}
	fresh, err := compare.DiffFDDsDirectContext(ctx, ca.FDD, cb.FDD)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Discrepancies, cached.Discrepancies) {
		t.Fatalf("cached diagrams now diff to %d rows, the cached report holds %d", len(fresh.Discrepancies), len(cached.Discrepancies))
	}

	// With the pair and its report cached, the first compile flight of a
	// resolve that takes A's side is its reference's.
	remove := chaos.Register(chaos.PointCompile, chaos.ExhaustBudget(guard.KindNodes))
	defer remove()
	sideA := make(map[string]string, len(before.Discrepancies))
	for i, d := range before.Discrepancies {
		sideA[strconv.Itoa(i+1)] = d.A
	}
	st := srv.Engine().Stats()
	rec = doRec(t, srv, "/v1/resolve", ResolveRequest{Schema: "five", A: in(a), B: in(b), Method: "fdd", Decisions: sideA})
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusUnprocessableEntity || e.Err.Code != CodePolicyTooComplex {
		t.Fatalf("resolve over budget: status %d, code %q (%v), want 422 %s", rec.Code, e.Err.Code, err, CodePolicyTooComplex)
	}
	remove()
	now := srv.Engine().Stats()
	if now.Compile.Entries != st.Compile.Entries || now.Reports.Entries != st.Reports.Entries || now.Compilations != st.Compilations {
		t.Fatalf("over-budget resolve cached something: compile entries %d -> %d, reports %d -> %d, compilations %d -> %d",
			st.Compile.Entries, now.Compile.Entries, st.Reports.Entries, now.Reports.Entries, st.Compilations, now.Compilations)
	}
}
