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

	"diversefw/internal/admission"
	"diversefw/internal/engine"
)

const teamA = `
I in 0 && D in 192.168.0.1 && N in 25 -> accept
I in 0 && S in 224.168.0.0/16 -> discard
any -> accept
`

const teamB = `
I in 0 && S in 224.168.0.0/16 -> discard
I in 0 && D in 192.168.0.1 && N in 25 && P in 0 -> accept
I in 0 && D in 192.168.0.1 -> discard
any -> accept
`

// do posts a JSON body and decodes the response into out, returning the
// status code.
func do(t *testing.T, srv http.Handler, path string, body interface{}, out interface{}) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s response: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestHealth(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

// TestRetryAfterDerivedFromQueueWaits pins the Retry-After header on
// shed requests: the configured floor (1s) while no queue waits have
// been observed, then the clamped p50 of observed waits once load data
// exists — a loaded server tells clients to back off longer.
func TestRetryAfterDerivedFromQueueWaits(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithAdmission(admission.Config{MaxInFlight: 1, MaxQueue: 0}))
	defer srv.Close()

	// Hold the only slot so every request sheds immediately.
	release, _, err := srv.Admission().Admit(context.Background(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	shed := func() *httptest.ResponseRecorder {
		t.Helper()
		rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)})
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", rec.Code)
		}
		if e := errorBody(t, rec); e.Err.Code != CodeServerOverloaded {
			t.Fatalf("code = %q", e.Err.Code)
		}
		return rec
	}
	// No observed waits: the hint is the 1s floor.
	if ra := shed().Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("idle Retry-After = %q, want \"1\"", ra)
	}
	// Median observed wait lands in the (2s, 4s] estimator bucket: the
	// header becomes that bucket's 4s upper bound.
	for i := 0; i < 3; i++ {
		srv.Admission().RecordQueueWait(3 * time.Second)
	}
	if ra := shed().Header().Get("Retry-After"); ra != "4" {
		t.Fatalf("loaded Retry-After = %q, want \"4\"", ra)
	}
}

func TestDiffEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var resp DiffResponse
	code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Equivalent {
		t.Fatal("teams differ")
	}
	if len(resp.Discrepancies) != 3 {
		t.Fatalf("got %d discrepancies, want 3: %+v", len(resp.Discrepancies), resp.Discrepancies)
	}
	// Readable notation reaches the wire.
	found := false
	for _, d := range resp.Discrepancies {
		if d.Fields["S"] == "224.168.0.0/16" && d.A == "accept" && d.B == "discard" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the malicious-mail row: %+v", resp.Discrepancies)
	}

	// Equivalent inputs.
	code = do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamA)}, &resp)
	if code != http.StatusOK || !resp.Equivalent {
		t.Fatalf("identical policies: status %d equivalent %v", code, resp.Equivalent)
	}
}

func TestDiffEndpointErrors(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "warp", A: in(teamA), B: in(teamB)}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad schema: status = %d", code)
	}
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in("garbage"), B: in(teamB)}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad policy: status = %d", code)
	}
	partial := "I in 0 -> accept\n"
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(partial), B: in(teamB)}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-comprehensive: status = %d", code)
	}
	// GET is rejected.
	req := httptest.NewRequest(http.MethodGet, "/v1/diff", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d", rec.Code)
	}
	// Unknown fields are rejected.
	req = httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader(`{"bogus": 1}`))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d", rec.Code)
	}
}

func TestImpactEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	after := "P in 1 -> discard\n" + teamA
	var resp ImpactResponse
	code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in(after)}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.NoImpact {
		t.Fatal("blocking UDP first has impact")
	}
	if len(resp.Attributions) == 0 {
		t.Fatal("attributions missing")
	}
	for _, a := range resp.Attributions {
		if a.AfterRule != 1 {
			t.Fatalf("impacted regions should be decided by the new rule 1, got %d", a.AfterRule)
		}
	}

	// No-op change.
	code = do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in(teamA)}, &resp)
	if code != http.StatusOK || !resp.NoImpact {
		t.Fatalf("no-op: status %d noImpact %v", code, resp.NoImpact)
	}

	// Edit-script form: same UDP block expressed as an edit.
	code = do(t, srv, "/v1/impact", ImpactRequest{
		Schema: "paper", Before: in(teamA),
		Edits: []string{"insert 1: P in 1 -> discard"},
	}, &resp)
	if code != http.StatusOK || resp.NoImpact {
		t.Fatalf("edit impact: status %d noImpact %v", code, resp.NoImpact)
	}

	// Validation: neither/both of after and edits, bad edit, bad position.
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA)}, nil); code != http.StatusBadRequest {
		t.Fatalf("neither after nor edits: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in(teamA), Edits: []string{"delete 1"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("both after and edits: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), Edits: []string{"zork"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad edit: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), Edits: []string{"delete 99"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range edit: %d", code)
	}
}

func TestImpactEndpointIncremental(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	// Cold edits path: the after-FDD resumes the before policy's builder
	// instead of compiling from scratch, and the response says so.
	var resp ImpactResponse
	code := do(t, srv, "/v1/impact", ImpactRequest{
		Schema: "paper", Before: in(teamA),
		Edits: []string{"insert 1: P in 1 -> discard"},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !resp.Incremental {
		t.Fatal("edits path did not report an incremental build")
	}
	if resp.RulesReappended <= 0 {
		t.Fatalf("incremental build reappended %d rules", resp.RulesReappended)
	}
	// The verbatim-after form never claims an incremental build.
	resp = ImpactResponse{}
	after := "D in 2 -> discard\n" + teamA
	code = do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in(after)}, &resp)
	if code != http.StatusOK {
		t.Fatalf("after form: status = %d", code)
	}
	if resp.Incremental || resp.RulesReappended != 0 {
		t.Fatalf("after form reported incremental build: %+v", resp)
	}
}

// TestImpactEditsAndDiffShareOneReport pins that the edits path and
// /v1/diff of one pair share one cached report, in both orders, so a row
// number taken from either endpoint means the same region in the other.
func TestImpactEditsAndDiffShareOneReport(t *testing.T) {
	t.Parallel()
	edits := ImpactRequest{Schema: "paper", Before: in(teamA), Edits: []string{"insert 1: P in 1 -> discard"}}
	pair := DiffRequest{Schema: "paper", A: in(teamA), B: in("P in 1 -> discard\n" + teamA)}
	for _, impactFirst := range []bool{true, false} {
		eng := engine.New(engine.Config{})
		srv := NewServer(WithEngine(eng))
		var diff DiffResponse
		if impactFirst {
			if code := do(t, srv, "/v1/impact", edits, nil); code != http.StatusOK {
				t.Fatalf("impact: status %d", code)
			}
		}
		if code := do(t, srv, "/v1/diff", pair, &diff); code != http.StatusOK {
			t.Fatalf("diff: status %d", code)
		}
		if diff.Cached != impactFirst {
			t.Fatalf("impact first %v: diff cached = %v", impactFirst, diff.Cached)
		}
		if !impactFirst {
			hits := eng.Stats().Reports.Hits
			if code := do(t, srv, "/v1/impact", edits, nil); code != http.StatusOK {
				t.Fatalf("impact: status %d", code)
			}
			if got := eng.Stats().Reports.Hits; got != hits+1 {
				t.Fatalf("impact after diff: report hits %d -> %d, want one hit", hits, got)
			}
		}
		if n := eng.Stats().Reports.Entries; n != 1 {
			t.Fatalf("impact first %v: %d cached reports for one pair, want 1", impactFirst, n)
		}
	}
}

func TestAuditEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	messy := `
S in 10.0.0.0/8 -> accept
S in 10.1.0.0/16 -> discard
any -> accept
`
	var resp AuditResponse
	code := do(t, srv, "/v1/audit", AuditRequest{Schema: "paper", Policy: in(messy), Complete: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var kinds []string
	for _, f := range resp.Findings {
		kinds = append(kinds, f.Kind)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"shadowing", "never-first-match", "redundant"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q finding: %v", want, kinds)
		}
	}
}

func TestEndpointErrorPaths(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	partial := "I in 0 -> accept\n"

	// impact: bad schema, bad policies, non-comprehensive.
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "zzz"}, nil); code != http.StatusBadRequest {
		t.Fatalf("impact bad schema: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in("zork"), After: in(teamA)}, nil); code != http.StatusBadRequest {
		t.Fatalf("impact bad before: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(teamA), After: in("zork")}, nil); code != http.StatusBadRequest {
		t.Fatalf("impact bad after: %d", code)
	}
	if code := do(t, srv, "/v1/impact", ImpactRequest{Schema: "paper", Before: in(partial), After: in(teamA)}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("impact partial: %d", code)
	}

	// audit: bad schema, bad policy, non-comprehensive (complete check).
	if code := do(t, srv, "/v1/audit", AuditRequest{Schema: "zzz"}, nil); code != http.StatusBadRequest {
		t.Fatalf("audit bad schema: %d", code)
	}
	if code := do(t, srv, "/v1/audit", AuditRequest{Schema: "paper", Policy: in("zork")}, nil); code != http.StatusBadRequest {
		t.Fatalf("audit bad policy: %d", code)
	}
	if code := do(t, srv, "/v1/audit", AuditRequest{Schema: "paper", Policy: in(partial), Complete: true}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("audit partial: %d", code)
	}

	// query: bad schema, bad policy, non-comprehensive.
	if code := do(t, srv, "/v1/query", QueryRequest{Schema: "zzz"}, nil); code != http.StatusBadRequest {
		t.Fatalf("query bad schema: %d", code)
	}
	if code := do(t, srv, "/v1/query", QueryRequest{Schema: "paper", Policy: in("zork"), Query: "select N decision accept"}, nil); code != http.StatusBadRequest {
		t.Fatalf("query bad policy: %d", code)
	}
	if code := do(t, srv, "/v1/query", QueryRequest{Schema: "paper", Policy: in(partial), Query: "select N decision accept"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("query partial: %d", code)
	}

	// A non-comprehensive policy is one error on every endpoint that
	// builds its FDD: 422 incomplete_policy.
	for _, c := range []struct {
		path string
		body interface{}
	}{
		{"/v1/audit", AuditRequest{Schema: "paper", Policy: in(partial)}},
		{"/v1/audit", AuditRequest{Schema: "paper", Policy: in(partial), Complete: true}},
		{"/v1/query", QueryRequest{Schema: "paper", Policy: in(partial), Query: "select N decision accept"}},
		{"/v1/analyze", AnalyzeRequest{Schema: "paper", Policy: in(partial)}},
		{"/v1/diff", DiffRequest{Schema: "paper", A: in(partial), B: in(teamA)}},
	} {
		rec := doRec(t, srv, c.path, c.body)
		if e := errorBody(t, rec); rec.Code != http.StatusUnprocessableEntity || e.Err.Code != CodeIncompletePolicy {
			t.Fatalf("%s partial: status = %d code = %q, want 422 %s", c.path, rec.Code, e.Err.Code, CodeIncompletePolicy)
		}
	}

	// Schema aliases: empty means five, four works.
	var dr DiffResponse
	five := "dport in 25 -> accept\nany -> discard\n"
	if code := do(t, srv, "/v1/diff", DiffRequest{A: in(five), B: in(five)}, &dr); code != http.StatusOK || !dr.Equivalent {
		t.Fatalf("default schema diff: %d", code)
	}
	four := "dport in 25 -> accept\nany -> discard\n"
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "four", A: in(four), B: in(four)}, &dr); code != http.StatusOK {
		t.Fatalf("four schema diff: %d", code)
	}
}

func TestResolveEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	// First diff to learn the row order, then resolve per Table 4.
	var dr DiffResponse
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &dr); code != http.StatusOK {
		t.Fatalf("diff status = %d", code)
	}
	decisions := map[string]string{}
	for i, d := range dr.Discrepancies {
		// Table 4: only the clean-source/port-25/UDP row resolves accept.
		if d.Fields["N"] == "25" && d.Fields["P"] == "1" {
			decisions[itoa(i+1)] = "accept"
		} else {
			decisions[itoa(i+1)] = "discard"
		}
	}

	for _, method := range []string{"", "fdd", "a", "b"} {
		var resp ResolveResponse
		code := do(t, srv, "/v1/resolve", ResolveRequest{
			Schema: "paper", A: in(teamA), B: in(teamB), Decisions: decisions, Method: method,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("method %q: status = %d", method, code)
		}
		if resp.Rows != 3 || resp.Policy == "" {
			t.Fatalf("method %q: rows=%d policy=%q", method, resp.Rows, resp.Policy)
		}
		// The returned firewall parses and is equivalent to the agreed one.
		if !strings.Contains(resp.Policy, "->") {
			t.Fatalf("method %q: policy not in rule format", method)
		}
	}

	// Errors: incomplete decisions, bad row, bad decision, bad method.
	if code := do(t, srv, "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamB),
		Decisions: map[string]string{"1": "discard"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("incomplete: %d", code)
	}
	if code := do(t, srv, "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamB),
		Decisions: map[string]string{"zero": "discard"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad row: %d", code)
	}
	if code := do(t, srv, "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamB),
		Decisions: map[string]string{"1": "zork", "2": "accept", "3": "discard"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad decision: %d", code)
	}
	bad := ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamB), Decisions: decisions, Method: "warp"}
	if code := do(t, srv, "/v1/resolve", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad method: %d", code)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestQueryEndpoint(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var resp QueryResponse
	code := do(t, srv, "/v1/query", QueryRequest{
		Schema: "paper",
		Policy: in(teamB),
		Query:  "select N where I in 0 && D in 192.168.0.1 decision accept",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Empty || resp.Values != "25" {
		t.Fatalf("values = %q (empty=%v), want \"25\"", resp.Values, resp.Empty)
	}

	// Empty result.
	code = do(t, srv, "/v1/query", QueryRequest{
		Schema: "paper",
		Policy: in(teamB),
		Query:  "select N where I in 0 && S in 224.168.0.0/16 decision accept",
	}, &resp)
	if code != http.StatusOK || !resp.Empty {
		t.Fatalf("empty query: status %d empty %v", code, resp.Empty)
	}

	// Bad query text.
	if code := do(t, srv, "/v1/query", QueryRequest{Schema: "paper", Policy: in(teamB), Query: "zork"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad query: status = %d", code)
	}

	// An empty where clause is a parse error, not a panic.
	for _, q := range []string{"select N where decision accept", "select nosuch where decision accept"} {
		rec := doRec(t, srv, "/v1/query", QueryRequest{Schema: "paper", Policy: in(teamB), Query: q})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: status = %d, want 400\n%s", q, rec.Code, rec.Body.String())
		}
		if e := errorBody(t, rec); e.Err.Code != CodeBadRequest {
			t.Fatalf("%q: code = %q, want %q", q, e.Err.Code, CodeBadRequest)
		}
	}
}

// in wraps native policy text as a PolicyInput, the way a bare-string
// client submission unmarshals.
func in(s string) PolicyInput { return PolicyInput{Text: s} }
