package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// errorBody decodes the v1 error envelope from a recorder.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) Error {
	t.Helper()
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decode error body: %v\n%s", err, rec.Body.String())
	}
	return e
}

// doRec posts a JSON body and returns the raw recorder.
func doRec(t *testing.T, srv http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestCrossCompareEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var resp CrossCompareResponse
	code := do(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema: "paper",
		Policies: []NamedPolicy{
			{Name: "teamA", Policy: in(teamA)},
			{Name: "teamB", Policy: in(teamB)},
			{Policy: in(teamA)}, // unnamed: defaults to policy3
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if want := []string{"teamA", "teamB", "policy3"}; strings.Join(resp.Policies, ",") != strings.Join(want, ",") {
		t.Fatalf("policies = %v, want %v", resp.Policies, want)
	}
	if len(resp.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(resp.Pairs))
	}
	if resp.AllEquivalent {
		t.Fatal("teamA and teamB differ")
	}
	// Deterministic (i, j) order; the identical pair reports equivalent.
	byName := map[string]CrossPair{}
	for _, p := range resp.Pairs {
		byName[p.A+"|"+p.B] = p
	}
	if p, ok := byName["teamA|policy3"]; !ok || !p.Equivalent {
		t.Fatalf("teamA vs its copy should be equivalent: %+v", resp.Pairs)
	}
	if p, ok := byName["teamA|teamB"]; !ok || p.Equivalent || len(p.Discrepancies) != 3 {
		t.Fatalf("teamA vs teamB should show the 3 Table-3 rows: %+v", p)
	}

	// The acceptance criterion: N policies, exactly N compilations — two
	// distinct policies here, since the third is a content-address twin
	// of the first, which is better than N.
	if got := srv.Engine().Stats().Compilations; got != 2 {
		t.Fatalf("compilations = %d, want 2 (one per distinct policy)", got)
	}

	// Three distinct policies through a fresh server: exactly 3.
	srv2 := NewServer()
	code = do(t, srv2, "/v1/crosscompare", CrossCompareRequest{
		Schema: "paper",
		Policies: []NamedPolicy{
			{Name: "a", Policy: in(teamA)},
			{Name: "b", Policy: in(teamB)},
			{Name: "c", Policy: in("any -> discard\n")},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if got := srv2.Engine().Stats().Compilations; got != 3 {
		t.Fatalf("compilations = %d, want exactly N = 3", got)
	}
}

func TestCrossCompareErrors(t *testing.T) {
	t.Parallel()
	srv := NewServer()

	rec := doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema:   "paper",
		Policies: []NamedPolicy{{Policy: in(teamA)}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("one policy: status = %d", rec.Code)
	}
	if e := errorBody(t, rec); e.Err.Code != CodeBadRequest {
		t.Fatalf("one policy: code = %q", e.Err.Code)
	}

	many := make([]NamedPolicy, maxCrossPolicies+1)
	for i := range many {
		many[i] = NamedPolicy{Policy: in(teamA)}
	}
	rec = doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{Schema: "paper", Policies: many})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("too many: status = %d", rec.Code)
	}
	if e := errorBody(t, rec); e.Err.Code != CodeTooManyPolicies {
		t.Fatalf("too many: code = %q", e.Err.Code)
	}

	rec = doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema:   "paper",
		Policies: []NamedPolicy{{Name: "x", Policy: in(teamA)}, {Name: "x", Policy: in(teamB)}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate names: status = %d", rec.Code)
	}

	rec = doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema:   "paper",
		Policies: []NamedPolicy{{Policy: in(teamA)}, {Policy: in("zork")}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable: status = %d", rec.Code)
	}
	if e := errorBody(t, rec); e.Err.Code != CodeUnparseablePolicy {
		t.Fatalf("unparseable: code = %q", e.Err.Code)
	}

	// An incomplete policy no longer fails the whole matrix: its pairs
	// carry typed per-pair errors, the response is a 200 partial result.
	rec = doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema:   "paper",
		Policies: []NamedPolicy{{Policy: in(teamA)}, {Policy: in("I in 0 -> accept\n")}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("incomplete: status = %d", rec.Code)
	}
	var partial CrossCompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if partial.FailedPairs != 1 || len(partial.Pairs) != 1 {
		t.Fatalf("incomplete: failedPairs = %d pairs = %d", partial.FailedPairs, len(partial.Pairs))
	}
	pe := partial.Pairs[0].Error
	if pe == nil || pe.Code != CodeIncompletePolicy || pe.Status != http.StatusUnprocessableEntity {
		t.Fatalf("incomplete: pair error = %+v", pe)
	}
	if partial.AllEquivalent {
		t.Fatal("incomplete: AllEquivalent must be false with a failed pair")
	}

	rec = doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{Schema: "warp"})
	if e := errorBody(t, rec); rec.Code != http.StatusBadRequest || e.Err.Code != CodeUnknownSchema {
		t.Fatalf("unknown schema: status = %d code = %q", rec.Code, e.Err.Code)
	}
}

// TestErrorEnvelope pins the v1 error contract: every non-2xx body
// carries error.code + error.message + error.requestId, and nothing
// else at the top level — in particular the deprecated "message" alias
// is gone.
func TestErrorEnvelope(t *testing.T) {
	t.Parallel()
	srv := NewServer()

	cases := []struct {
		name       string
		path       string
		body       interface{}
		wantStatus int
		wantCode   string
	}{
		{"unknown schema", "/v1/diff", DiffRequest{Schema: "warp", A: in(teamA), B: in(teamB)}, 400, CodeUnknownSchema},
		{"unparseable", "/v1/diff", DiffRequest{Schema: "paper", A: in("zork"), B: in(teamB)}, 400, CodeUnparseablePolicy},
		{"incomplete", "/v1/diff", DiffRequest{Schema: "paper", A: in("I in 0 -> accept\n"), B: in(teamB)}, 422, CodeIncompletePolicy},
		{"bad impact request", "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA)}, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		rec := doRec(t, srv, tc.path, tc.body)
		if rec.Code != tc.wantStatus {
			t.Fatalf("%s: status = %d, want %d", tc.name, rec.Code, tc.wantStatus)
		}
		e := errorBody(t, rec)
		if e.Err.Code != tc.wantCode {
			t.Fatalf("%s: code = %q, want %q", tc.name, e.Err.Code, tc.wantCode)
		}
		if e.Err.Message == "" {
			t.Fatalf("%s: empty error.message", tc.name)
		}
		if e.Err.RequestID == "" {
			t.Fatalf("%s: error envelope missing requestId", tc.name)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := raw["message"]; ok {
			t.Fatalf("%s: deprecated top-level message alias still present: %s",
				tc.name, rec.Body.String())
		}
	}

	// Method and body-shape errors carry codes too.
	req := httptest.NewRequest(http.MethodGet, "/v1/diff", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if e := errorBody(t, rec); e.Err.Code != CodeMethodNotAllowed {
		t.Fatalf("405 code = %q", e.Err.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader("{"))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if e := errorBody(t, rec); e.Err.Code != CodeBadRequest {
		t.Fatalf("bad JSON code = %q", e.Err.Code)
	}
	body := `{"a":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	rec = post(srv, "/v1/diff", body)
	if e := errorBody(t, rec); rec.Code != http.StatusRequestEntityTooLarge || e.Err.Code != CodePayloadTooLarge {
		t.Fatalf("413 status = %d code = %q", rec.Code, e.Err.Code)
	}
}

func TestRequestIDEchoAndGenerate(t *testing.T) {
	t.Parallel()
	srv := NewServer()

	// A well-formed client ID is echoed, on success and on error.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("echoed ID = %q", got)
	}
	raw, _ := json.Marshal(DiffRequest{Schema: "warp"})
	req = httptest.NewRequest(http.MethodPost, "/v1/diff", bytes.NewReader(raw))
	req.Header.Set("X-Request-ID", "client-id-42")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("echoed ID on error = %q", got)
	}
	if e := errorBody(t, rec); e.Err.RequestID != "client-id-42" {
		t.Fatalf("envelope requestId = %q", e.Err.RequestID)
	}

	// Absent or hostile IDs are replaced with generated ones.
	for _, id := range []string{"", "has space", strings.Repeat("x", 500), "ctl\x01char"} {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		got := rec.Header().Get("X-Request-ID")
		if len(got) != 16 || got == id {
			t.Fatalf("ID %q: generated ID = %q, want 16 hex chars", id, got)
		}
	}
}

func TestVersionEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithRequestTimeout(2500 * time.Millisecond))
	req := httptest.NewRequest(http.MethodGet, "/v1/version", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp VersionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.GoVersion == "" {
		t.Fatal("goVersion missing")
	}
	if strings.Join(resp.Schemas, ",") != "five,four,paper" {
		t.Fatalf("schemas = %v", resp.Schemas)
	}
	if resp.Limits.MaxBodyBytes != maxBodyBytes || resp.Limits.MaxCrossPolicies != maxCrossPolicies {
		t.Fatalf("limits = %+v", resp.Limits)
	}
	if resp.Limits.RequestTimeoutMillis != 2500 {
		t.Fatalf("requestTimeoutMillis = %d", resp.Limits.RequestTimeoutMillis)
	}

	// POST is rejected with the right Allow header.
	rec = post(srv, "/v1/version", "{}")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodGet {
		t.Fatalf("POST: status = %d Allow = %q", rec.Code, rec.Header().Get("Allow"))
	}
}

func TestHealthzReportsCacheReadiness(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	get := func() HealthResponse {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		var resp HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	h := get()
	if h.Status != "ok" || !h.Cache.Ready {
		t.Fatalf("health = %+v", h)
	}
	// After a diff the caches hold the compiled pair and its report.
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, nil); code != http.StatusOK {
		t.Fatalf("diff status = %d", code)
	}
	h = get()
	if h.Cache.CompileEntries != 2 || h.Cache.ReportEntries != 1 || h.Cache.ResidentBytes <= 0 {
		t.Fatalf("post-diff health = %+v", h.Cache)
	}
}

// TestDiffEndpointCachedFlag: a repeated pair is served from the report
// cache and says so on the wire.
func TestDiffEndpointCachedFlag(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var first, second DiffResponse
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &first); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if first.Cached {
		t.Fatal("first diff cannot be cached")
	}
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &second); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !second.Cached {
		t.Fatal("second diff should be served from the report cache")
	}
	if len(second.Discrepancies) != len(first.Discrepancies) {
		t.Fatalf("cached diff differs: %d vs %d rows", len(second.Discrepancies), len(first.Discrepancies))
	}
}

// TestResolveRowOrderMatchesDiff: because /v1/diff and /v1/resolve share
// the cached report, the 1-based rows a client reads from the diff are
// the rows resolve expects.
func TestResolveRowOrderMatchesDiff(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var dr DiffResponse
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &dr); code != http.StatusOK {
		t.Fatalf("diff status = %d", code)
	}
	decisions := map[string]string{}
	for i := range dr.Discrepancies {
		decisions[itoa(i+1)] = "discard"
	}
	var rr ResolveResponse
	if code := do(t, srv, "/v1/resolve", ResolveRequest{
		Schema: "paper", A: in(teamA), B: in(teamB), Decisions: decisions,
	}, &rr); code != http.StatusOK {
		t.Fatalf("resolve status = %d", code)
	}
	if rr.Rows != len(dr.Discrepancies) {
		t.Fatalf("resolve rows = %d, diff rows = %d", rr.Rows, len(dr.Discrepancies))
	}
}

// TestDiffOversizedDecision: a decision too large for the diff's pair
// encoding cannot arrive as native text, whose '#' starts a comment, so
// /v1/diff answers "decision#1048576" as an unparseable policy. The
// engine diff the handler runs next reports the compare package's range
// error, which the handler's error mapping answers with 422.
func TestDiffOversizedDecision(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "five", A: in("any -> decision#1048576"), B: in("any -> accept")})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", rec.Code, rec.Body.String())
	}
	if e := errorBody(t, rec); e.Err.Code != CodeUnparseablePolicy {
		t.Fatalf("error code = %q, want %q", e.Err.Code, CodeUnparseablePolicy)
	}

	s := field.IPv4FiveTuple()
	huge := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Decision(1<<20))})
	accept := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	_, _, err := srv.Engine().DiffPolicies(context.Background(), huge, accept)
	rec = httptest.NewRecorder()
	writeAnalysisError(rec, err)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (err %v)", rec.Code, err)
	}
	const want = "compare: decision 1048576 exceeds the supported range (< 1048576)"
	if e := errorBody(t, rec); e.Err.Code != CodeUnprocessable || e.Err.Message != want {
		t.Fatalf("error = %+v, want %s %q", e.Err, CodeUnprocessable, want)
	}
}
