package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestCrossCompareSyncMatchesJobs: the sync endpoint and an async job
// run the same pairs on the same workers, so a matrix with an incomplete
// policy and a budget-tripping one reports the same status, code and
// message per failed pair on both, in the job's `policy "<name>": …`
// form.
func TestCrossCompareSyncMatchesJobs(t *testing.T) {
	t.Parallel()
	const budget = 50_000 // Adversarial(48) needs ~2.8e5 nodes
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: budget, MaxEdgeSplits: budget}})
	srv := NewServer(WithEngine(eng), WithJobs(jobs.Config{Workers: 2}))
	defer srv.Close()
	policies := []NamedPolicy{
		{Name: "ok1", Policy: in(fiveA)},
		{Name: "ok2", Policy: in(fiveB)},
		{Name: "partial", Policy: in("proto in 6 -> accept\n")},
		{Name: "bomb", Policy: in(rule.FormatPolicy(synth.Adversarial(48)))},
	}

	var sync CrossCompareResponse
	if code := do(t, srv, "/v1/crosscompare", CrossCompareRequest{Schema: "five", Policies: policies}, &sync); code != http.StatusOK {
		t.Fatalf("sync status = %d", code)
	}
	job := pollUntilTerminal(t, srv, submitJob(t, srv, JobSubmitRequest{Schema: "five", Policies: policies}).ID)
	if len(sync.Pairs) != 6 || len(job.Pairs) != 6 {
		t.Fatalf("pairs: sync %d, job %d, want 6 each", len(sync.Pairs), len(job.Pairs))
	}
	if sync.FailedPairs != 5 || job.Progress.Errors != 5 {
		t.Fatalf("failed pairs: sync %d, job %d, want 5 each", sync.FailedPairs, job.Progress.Errors)
	}
	for k, sp := range sync.Pairs {
		jp := job.Pairs[k]
		if sp.A != jp.A || sp.B != jp.B {
			t.Fatalf("pair %d: sync %s|%s, job %s|%s", k, sp.A, sp.B, jp.A, jp.B)
		}
		if !reflect.DeepEqual(sp.Error, jp.Error) {
			t.Errorf("pair %s|%s: sync error %+v, job error %+v", sp.A, sp.B, sp.Error, jp.Error)
		}
		if sp.Error == nil {
			continue
		}
		// The first failing side names the pair's error.
		name := sp.A
		if sp.A == "ok1" || sp.A == "ok2" {
			name = sp.B
		}
		if !strings.HasPrefix(sp.Error.Message, fmt.Sprintf("policy %q: ", name)) {
			t.Errorf("pair %s|%s: message %q, want the policy %q prefix", sp.A, sp.B, sp.Error.Message, name)
		}
		want := CodePolicyTooComplex
		if name == "partial" {
			want = CodeIncompletePolicy
		}
		if sp.Error.Status != http.StatusUnprocessableEntity || sp.Error.Code != want {
			t.Errorf("pair %s|%s: error %+v, want 422 %s", sp.A, sp.B, sp.Error, want)
		}
	}
}

// TestCrossCompareAfterClose: a sync cross-comparison reaching a closed
// job coordinator is shed as 503 server_overloaded, like a job submit.
func TestCrossCompareAfterClose(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	srv.Close()
	rec := doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{
		Schema:   "five",
		Policies: []NamedPolicy{{Policy: in(fiveA)}, {Policy: in(fiveB)}},
	})
	if e := errorBody(t, rec); rec.Code != http.StatusServiceUnavailable || e.Err.Code != CodeServerOverloaded {
		t.Fatalf("status = %d code = %q, want 503 %s", rec.Code, e.Err.Code, CodeServerOverloaded)
	}
}

// TestCrossCompareBehindFullQueues: a sync cross-comparison sent while
// an async job holds every worker and fills every queue waits its turn
// and then completes with the right matrix, and its trace carries the
// job.pair, compile and diff spans under the request root. Not
// parallel: the chaos registry is process-wide.
func TestCrossCompareBehindFullQueues(t *testing.T) {
	body := CrossCompareRequest{
		Schema:   "five",
		Policies: []NamedPolicy{{Name: "a", Policy: in(fiveA)}, {Name: "b", Policy: in(fiveB)}, {Name: "c", Policy: in("any -> accept\n")}},
	}
	var want CrossCompareResponse
	if code := do(t, NewServer(), "/v1/crosscompare", body, &want); code != http.StatusOK {
		t.Fatalf("reference status = %d", code)
	}

	const workers = 2
	srv := NewServer(WithJobs(jobs.Config{Workers: workers}))
	defer srv.Close()
	// The first pair on each worker blocks until the gate opens; the
	// job's remaining 494 pairs overflow the workers' 64-slot queues.
	gate := make(chan struct{})
	var fired atomic.Int64
	blocked := make(chan struct{})
	remove := chaos.Register(chaos.PointJobPair, func(ctx context.Context) error {
		switch fired.Add(1) {
		case workers:
			close(blocked)
		case 1:
		default:
			return nil
		}
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer remove()
	big := JobSubmitRequest{Schema: "five"}
	for i := 0; i < 32; i++ {
		big.Policies = append(big.Policies, NamedPolicy{
			Name:   fmt.Sprintf("team%d", i+1),
			Policy: in(rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 5, Seed: int64(i + 1)}))),
		})
	}
	async := submitJob(t, srv, big)
	<-blocked

	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/crosscompare", bytes.NewReader(raw)))
		done <- rec
	}()
	select {
	case <-done:
		t.Fatal("sync cross-comparison finished while every worker was held")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	var rec *httptest.ResponseRecorder
	select {
	case rec = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sync cross-comparison never finished behind the async job")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("sync status = %d body = %s", rec.Code, rec.Body.String())
	}
	var got CrossCompareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) || got.AllEquivalent != want.AllEquivalent {
		t.Fatalf("matrix behind the queue = %+v, want %+v", got.Pairs, want.Pairs)
	}
	if final := pollUntilTerminal(t, srv, async.ID); final.State != "completed" || final.Progress.OK != final.Progress.Total {
		t.Fatalf("async job: %s %+v", final.State, final.Progress)
	}

	traceID := rec.Header().Get("X-Trace-ID")
	for _, r := range srv.traces.Snapshot().Recent {
		if r.TraceID != traceID {
			continue
		}
		spans := map[string]int{}
		for _, child := range r.Root.Children {
			spans[child.Name]++
		}
		if r.Root.Name != "/v1/crosscompare" || spans["job.pair"] != 3 || spans["compile"] == 0 || spans["diff"] == 0 {
			t.Fatalf("request trace %s children = %v, want job.pair, compile and diff", r.Root.Name, spans)
		}
		return
	}
	t.Fatalf("no retained trace %q", traceID)
}
