package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// submitJob posts a job and returns its 202 snapshot.
func submitJob(t *testing.T, srv http.Handler, req JobSubmitRequest) JobStatusResponse {
	t.Helper()
	rec := doRec(t, srv, "/v1/jobs", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status = %d body = %s", rec.Code, rec.Body.String())
	}
	var snap JobStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" {
		t.Fatal("submit: no job ID")
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/"+snap.ID {
		t.Fatalf("Location = %q", loc)
	}
	return snap
}

// getJob polls one job by ID.
func getJob(t *testing.T, srv http.Handler, id string) JobStatusResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("get job: status = %d body = %s", rec.Code, rec.Body.String())
	}
	var snap JobStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// pollUntilTerminal polls the job, asserting monotonically non-decreasing
// progress on every observation, until it reaches a terminal state.
func pollUntilTerminal(t *testing.T, srv http.Handler, id string) JobStatusResponse {
	t.Helper()
	var prev JobProgress
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap := getJob(t, srv, id)
		p := snap.Progress
		if p.Settled < prev.Settled || p.OK < prev.OK || p.Errors < prev.Errors || p.Skipped < prev.Skipped {
			t.Fatalf("progress went backwards: %+v after %+v", p, prev)
		}
		if p.Settled > p.Total {
			t.Fatalf("progress overshot: %+v", p)
		}
		prev = p
		if snap.State == "completed" || snap.State == "canceled" {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsCrossCompareCompileOnce is the tentpole acceptance test: a
// 16-policy cross-comparison (120 pairs) through /v1/jobs with 4
// workers must compile each policy exactly once (the pair-sharded
// workers all hit the engine's content-addressed compile cache),
// report monotonically-increasing progress while polled, and complete
// with every pair answered.
func TestJobsCrossCompareCompileOnce(t *testing.T) {
	t.Parallel()
	eng := engine.New(engine.Config{})
	srv := NewServer(WithEngine(eng), WithJobs(jobs.Config{Workers: 4}))
	defer srv.Close()

	const n = 16
	req := JobSubmitRequest{Schema: "five"}
	for i := 0; i < n; i++ {
		req.Policies = append(req.Policies, NamedPolicy{
			Name:   fmt.Sprintf("team%d", i+1),
			Policy: in(rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 30, Seed: int64(i + 1)}))),
		})
	}
	snap := submitJob(t, srv, req)
	if snap.Progress.Total != n*(n-1)/2 {
		t.Fatalf("total pairs = %d, want %d", snap.Progress.Total, n*(n-1)/2)
	}
	final := pollUntilTerminal(t, srv, snap.ID)
	if final.State != "completed" {
		t.Fatalf("state = %s", final.State)
	}
	if final.Progress.OK != final.Progress.Total || final.Progress.Errors != 0 {
		t.Fatalf("progress = %+v", final.Progress)
	}
	for _, p := range final.Pairs {
		if p.Status != "ok" || p.Equivalent == nil {
			t.Fatalf("pair %q = %+v", p.Name, p)
		}
	}
	if got := eng.Stats().Compilations; got != n {
		t.Fatalf("compilations = %d, want exactly %d (one per policy)", got, n)
	}
	if final.TraceID == "" || final.StartedAt == "" || final.FinishedAt == "" {
		t.Fatalf("missing trace/timestamps: %+v", final)
	}
}

// TestJobsBudgetTrippedPairIsolated: one policy whose FDD blows the
// work budget poisons only its own pairs — each carries the typed 422
// policy_too_complex entry — while every other pair returns results.
func TestJobsBudgetTrippedPairIsolated(t *testing.T) {
	t.Parallel()
	const budget = 50_000 // Adversarial(48) needs ~2.8e5 nodes
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: budget, MaxEdgeSplits: budget}})
	srv := NewServer(WithEngine(eng), WithJobs(jobs.Config{Workers: 4}))
	defer srv.Close()

	req := JobSubmitRequest{
		Schema: "five",
		Policies: []NamedPolicy{
			{Name: "ok1", Policy: in(fiveA)},
			{Name: "ok2", Policy: in(fiveB)},
			{Name: "ok3", Policy: in("any -> accept\n")},
			{Name: "bomb", Policy: in(rule.FormatPolicy(synth.Adversarial(48)))},
		},
	}
	final := pollUntilTerminal(t, srv, submitJob(t, srv, req).ID)
	if final.State != "completed" {
		t.Fatalf("state = %s", final.State)
	}
	// 6 pairs: 3 among ok1..ok3 succeed, 3 involving bomb fail.
	if final.Progress.OK != 3 || final.Progress.Errors != 3 {
		t.Fatalf("progress = %+v", final.Progress)
	}
	for _, p := range final.Pairs {
		touchesBomb := p.A == "bomb" || p.B == "bomb"
		if touchesBomb {
			if p.Status != "error" || p.Error == nil {
				t.Fatalf("bomb pair %q = %+v", p.Name, p)
			}
			if p.Error.Status != http.StatusUnprocessableEntity || p.Error.Code != CodePolicyTooComplex {
				t.Fatalf("bomb pair error = %+v, want 422 %s", p.Error, CodePolicyTooComplex)
			}
		} else if p.Status != "ok" || p.Equivalent == nil || p.Error != nil {
			t.Fatalf("clean pair %q = %+v", p.Name, p)
		}
	}
}

func TestJobsBatchDiffAndCancel(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithJobs(jobs.Config{Workers: 2}))
	defer srv.Close()

	snap := submitJob(t, srv, JobSubmitRequest{
		Kind:   "batchdiff",
		Schema: "paper",
		Policies: []NamedPolicy{
			{Name: "a", Policy: in(teamA)},
			{Name: "b", Policy: in(teamB)},
		},
		Pairs: []JobPairSpec{{Name: "a-vs-b", A: "a", B: "b"}},
	})
	final := pollUntilTerminal(t, srv, snap.ID)
	if final.State != "completed" || len(final.Pairs) != 1 {
		t.Fatalf("final = %+v", final)
	}
	if p := final.Pairs[0]; p.Name != "a-vs-b" || p.Status != "ok" || p.Equivalent == nil || *p.Equivalent {
		t.Fatalf("pair = %+v", final.Pairs[0])
	}

	// DELETE cancels; on an already-finished job it is a no-op returning
	// the terminal snapshot.
	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+snap.ID, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete finished job: status = %d", rec.Code)
	}
	var after JobStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.State != "completed" {
		t.Fatalf("state after no-op cancel = %s", after.State)
	}

	// The listing shows the job, newest first, without pair bodies.
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status = %d", rec.Code)
	}
	var list JobListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID || list.Jobs[0].Pairs != nil {
		t.Fatalf("list = %+v", list)
	}
}

func TestJobsValidationAndNotFound(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()

	two := []NamedPolicy{{Name: "a", Policy: in(teamA)}, {Name: "b", Policy: in(teamB)}}
	cases := []struct {
		name string
		req  JobSubmitRequest
		code string
	}{
		{"one policy", JobSubmitRequest{Schema: "paper", Policies: two[:1]}, CodeBadRequest},
		{"bad kind", JobSubmitRequest{Kind: "zork", Schema: "paper", Policies: two}, CodeBadRequest},
		{"bad schema", JobSubmitRequest{Schema: "warp", Policies: two}, CodeUnknownSchema},
		{"dup names", JobSubmitRequest{Schema: "paper", Policies: []NamedPolicy{{Name: "x", Policy: in(teamA)}, {Name: "x", Policy: in(teamB)}}}, CodeBadRequest},
		{"unparseable", JobSubmitRequest{Schema: "paper", Policies: []NamedPolicy{{Name: "a", Policy: in("zork")}, {Name: "b", Policy: in(teamB)}}}, CodeUnparseablePolicy},
		{"pairs on crosscompare", JobSubmitRequest{Schema: "paper", Policies: two, Pairs: []JobPairSpec{{A: "a", B: "b"}}}, CodeBadRequest},
		{"batchdiff no pairs", JobSubmitRequest{Kind: "batchdiff", Schema: "paper", Policies: two}, CodeBadRequest},
		{"batchdiff unknown name", JobSubmitRequest{Kind: "batchdiff", Schema: "paper", Policies: two, Pairs: []JobPairSpec{{A: "a", B: "zzz"}}}, CodeBadRequest},
		{"batchdiff self pair", JobSubmitRequest{Kind: "batchdiff", Schema: "paper", Policies: two, Pairs: []JobPairSpec{{A: "a", B: "a"}}}, CodeBadRequest},
	}
	for _, tc := range cases {
		rec := doRec(t, srv, "/v1/jobs", tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d", tc.name, rec.Code)
		}
		if e := errorBody(t, rec); e.Err.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, e.Err.Code, tc.code)
		}
	}

	// Unknown job ID: 404 job_not_found for both GET and DELETE.
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req := httptest.NewRequest(method, "/v1/jobs/doesnotexist", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s unknown job: status = %d", method, rec.Code)
		}
		if e := errorBody(t, rec); e.Err.Code != CodeJobNotFound {
			t.Fatalf("%s unknown job: code = %q", method, e.Err.Code)
		}
	}

	// Wrong methods carry Allow headers.
	req := httptest.NewRequest(http.MethodPut, "/v1/jobs", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, POST" {
		t.Fatalf("PUT /v1/jobs: status = %d allow = %q", rec.Code, rec.Header().Get("Allow"))
	}
	req = httptest.NewRequest(http.MethodPut, "/v1/jobs/x", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, DELETE" {
		t.Fatalf("PUT /v1/jobs/x: status = %d allow = %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestJobsStoreCap pins the 429 too_many_jobs mapping.
func TestJobsStoreCap(t *testing.T) {
	t.Parallel()
	srv := NewServer(WithJobs(jobs.Config{Workers: 1, MaxJobs: 1, Retention: time.Hour}))
	defer srv.Close()

	req := JobSubmitRequest{Schema: "paper", Policies: []NamedPolicy{
		{Name: "a", Policy: in(teamA)}, {Name: "b", Policy: in(teamB)},
	}}
	submitJob(t, srv, req)
	rec := doRec(t, srv, "/v1/jobs", req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: status = %d", rec.Code)
	}
	if e := errorBody(t, rec); e.Err.Code != CodeTooManyJobs {
		t.Fatalf("over-cap submit: code = %q", e.Err.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("over-cap submit: no Retry-After")
	}
}
