package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"diversefw/internal/admission"
	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// fiveA/fiveB are small well-formed five-tuple policies that compile in
// a few hundred nodes — the "concurrent well-formed requests" of the
// acceptance scenario.
const fiveA = "dport in 25 && proto in 6 -> accept\nsrc in 10.0.0.0/8 -> discard\nany -> accept\n"
const fiveB = "dport in 25 -> accept\nany -> discard\n"

// getJSON fetches a GET endpoint and decodes the body when out != nil.
func getJSON(t *testing.T, srv http.Handler, path string, out interface{}) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// holdSlot registers a fault at PointCompile that blocks until the
// returned release func runs, so tests can pin a request inside the
// admission window. Cleanup releases and unregisters.
func holdSlot(t *testing.T) (release func()) {
	t.Helper()
	hold := make(chan struct{})
	remove := chaos.Register(chaos.PointCompile, func(ctx context.Context) error {
		select {
		case <-hold:
		case <-ctx.Done():
		}
		return nil
	})
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() { release(); remove() })
	return release
}

// waitInFlight polls /healthz until the admission controller reports n
// requests in flight.
func waitInFlight(t *testing.T, srv http.Handler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h HealthResponse
		getJSON(t, srv, "/healthz", &h)
		if h.Admission != nil && h.Admission.InFlight >= int64(n) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight requests", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthzShape pins the /healthz JSON contract: the status
// enumeration and the exact top-level and admission keys. Probes and
// load balancers parse this; accidental renames are outages.
func TestHealthzShape(t *testing.T) {
	srv := NewServer(WithAdmission(admission.Config{MaxInFlight: 2, MaxQueue: 2}))

	var doc map[string]json.RawMessage
	if rec := getJSON(t, srv, "/healthz", &doc); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, key := range []string{"status", "slo", "cache", "admission"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("healthz missing %q: %v", key, doc)
		}
	}
	var status string
	if err := json.Unmarshal(doc["status"], &status); err != nil || status != "ok" {
		t.Fatalf("status = %q (%v), want ok", status, err)
	}
	var sloStatus string
	if err := json.Unmarshal(doc["slo"], &sloStatus); err != nil || sloStatus != "ok" {
		t.Fatalf("slo = %q (%v), want ok", sloStatus, err)
	}
	var adm map[string]json.RawMessage
	if err := json.Unmarshal(doc["admission"], &adm); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"inFlight", "queued", "capacity", "queueCapacity",
		"admitted", "shedOverload", "shedTimeout", "shedClient", "shedDraining"} {
		if _, ok := adm[key]; !ok {
			t.Fatalf("healthz admission missing %q: %v", key, adm)
		}
	}

	srv.BeginDrain()
	var after HealthResponse
	getJSON(t, srv, "/healthz", &after)
	if after.Status != "draining" {
		t.Fatalf("status after BeginDrain = %q, want draining", after.Status)
	}
}

// TestHealthzWithoutAdmission: no admission configured — no admission
// section, but drain state still reports.
func TestHealthzWithoutAdmission(t *testing.T) {
	srv := NewServer()
	var doc map[string]json.RawMessage
	getJSON(t, srv, "/healthz", &doc)
	if _, ok := doc["admission"]; ok {
		t.Fatal("admission section should be absent without admission control")
	}
	srv.BeginDrain()
	var after HealthResponse
	getJSON(t, srv, "/healthz", &after)
	if after.Status != "draining" {
		t.Fatalf("status = %q, want draining", after.Status)
	}
}

// TestWorstCasePolicyReturns422 is the acceptance scenario: a policy in
// the exponential regime runs into the work budget and comes back as a
// typed 422 policy_too_complex — while concurrent well-formed requests
// on the same server succeed, nothing from the aborted flight lands in
// the caches, and repeated over-budget requests do not accumulate
// partial-FDD memory.
func TestWorstCasePolicyReturns422(t *testing.T) {
	const budget = 50_000 // Adversarial(48) needs ~2.8e5 nodes
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: budget, MaxEdgeSplits: budget}})
	srv := NewServer(WithEngine(eng))
	adversarialBody := `{"schema":"five","a":` + jsonString(rule.FormatPolicy(synth.Adversarial(48))) +
		`,"b":` + jsonString(fiveB) + `}`
	wellFormedBody := `{"schema":"five","a":` + jsonString(fiveA) + `,"b":` + jsonString(fiveB) + `}`

	// Well-formed traffic concurrent with the adversarial request.
	var wg sync.WaitGroup
	fails := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader(wellFormedBody))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				fails <- rec.Body.String()
			}
		}()
	}

	rec := post(srv, "/v1/diff", adversarialBody)
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Errorf("well-formed request failed during adversarial load: %s", f)
	}
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("adversarial diff status = %d, want 422\n%s", rec.Code, rec.Body.String())
	}
	var envelope Error
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, rec.Body.String())
	}
	if envelope.Err.Code != CodePolicyTooComplex {
		t.Fatalf("code = %q, want %q", envelope.Err.Code, CodePolicyTooComplex)
	}
	if envelope.Err.RequestID == "" {
		t.Fatal("envelope must carry the request ID")
	}

	// Nothing from the aborted flight may be retained: the caches hold
	// exactly the well-formed pair (two compiled policies, one report).
	if s := eng.Stats(); s.Compile.Entries != 2 || s.Reports.Entries != 1 {
		t.Fatalf("caches retain compile=%d reports=%d; aborted flights must not be cached",
			s.Compile.Entries, s.Reports.Entries)
	}

	// Repeated over-budget requests must not accumulate heap: each
	// aborted construction's partial diagram (≈ budget × 128 B charged)
	// is garbage once the 422 is written.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 6; i++ {
		rec := post(srv, "/v1/diff", adversarialBody)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("iteration %d: status = %d", i, rec.Code)
		}
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 32<<20 {
		t.Fatalf("heap grew %d bytes across 6 aborted constructions; partial FDDs are leaking", grew)
	}
	if s := eng.Stats(); s.Compile.Entries != 2 || s.Reports.Entries != 1 {
		t.Fatalf("caches grew to compile=%d reports=%d after repeated aborts",
			s.Compile.Entries, s.Reports.Entries)
	}
}

// TestAnalysesOverBudgetReturn422: the single-policy analyses and
// resolution compile their received policies through the engine, so the
// work budget bounds them as it bounds /v1/diff: a policy in the
// exponential regime is a typed 422 policy_too_complex on every one of
// them, and nothing from the aborted flights is cached.
func TestAnalysesOverBudgetReturn422(t *testing.T) {
	const budget = 50_000 // Adversarial(48) needs ~2.8e5 nodes
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: budget, MaxEdgeSplits: budget}})
	srv := NewServer(WithEngine(eng))
	bomb := jsonString(rule.FormatPolicy(synth.Adversarial(48)))
	for path, body := range map[string]string{
		"/v1/audit":   `{"schema":"five","policy":` + bomb + `}`,
		"/v1/analyze": `{"schema":"five","policy":` + bomb + `}`,
		"/v1/query":   `{"schema":"five","policy":` + bomb + `,"query":"select dport decision accept"}`,
		"/v1/resolve": `{"schema":"five","a":` + bomb + `,"b":` + jsonString(fiveB) + `}`,
	} {
		rec := post(srv, path, body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422\n%.300s", path, rec.Code, rec.Body.String())
		}
		if e := errorBody(t, rec); e.Err.Code != CodePolicyTooComplex {
			t.Fatalf("%s: code = %q, want %q", path, e.Err.Code, CodePolicyTooComplex)
		}
	}
	// /v1/resolve compiled fiveB too; the adversarial policy left nothing.
	if s := eng.Stats(); s.Compile.Entries != 1 || s.Reports.Entries != 0 {
		t.Fatalf("caches retain compile=%d reports=%d; aborted flights must not be cached",
			s.Compile.Entries, s.Reports.Entries)
	}
}

// TestShedRequestsEchoIdentityAndCount: a shed request must still echo
// X-Request-ID and X-Trace-ID, carry Retry-After, and land in the
// per-endpoint request counters.
func TestShedRequestsEchoIdentityAndCount(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := NewServer(
		WithMetrics(reg),
		WithAdmission(admission.Config{MaxInFlight: 1, MaxQueue: 0}),
	)
	release := holdSlot(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := `{"schema":"five","a":` + jsonString(fiveA) + `,"b":` + jsonString(fiveB) + `}`
		post(srv, "/v1/diff", body)
	}()
	defer wg.Wait()
	defer release()
	waitInFlight(t, srv, 1)

	req := httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader(
		`{"schema":"five","a":"any -> accept\n","b":"any -> accept\n"}`))
	req.Header.Set("X-Request-ID", "shed-echo-test")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); got != "shed-echo-test" {
		t.Fatalf("shed response X-Request-ID = %q, want echo", got)
	}
	if rec.Header().Get("X-Trace-ID") == "" {
		t.Fatal("shed response must carry X-Trace-ID")
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}
	var envelope Error
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("shed body is not the envelope: %v\n%s", err, rec.Body.String())
	}
	if envelope.Err.Code != CodeServerOverloaded {
		t.Fatalf("code = %q, want %q", envelope.Err.Code, CodeServerOverloaded)
	}
	if envelope.Err.RequestID != "shed-echo-test" {
		t.Fatalf("envelope requestId = %q", envelope.Err.RequestID)
	}

	// The shed request must appear in the per-endpoint counters and in
	// the shed counter.
	exposition := getJSON(t, srv, "/metrics", nil).Body.String()
	if !strings.Contains(exposition, `fwserved_http_requests_total{path="/v1/diff",code="503"} 1`) {
		t.Fatalf("shed request missing from per-endpoint metrics:\n%s", exposition)
	}
	if !strings.Contains(exposition, `fwguard_shed_total{reason="overloaded"} 1`) {
		t.Fatalf("fwguard_shed_total missing from exposition:\n%s", exposition)
	}
}

// TestPerClientCapReturns429 exercises the per-client concurrency cap
// end to end: same remote host, second concurrent request bounces with
// client_over_limit while other clients are unaffected.
func TestPerClientCapReturns429(t *testing.T) {
	srv := NewServer(WithAdmission(admission.Config{
		MaxInFlight: 8, MaxQueue: 8, MaxPerClient: 1,
	}))
	release := holdSlot(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := `{"schema":"five","a":` + jsonString(fiveA) + `,"b":` + jsonString(fiveB) + `}`
		post(srv, "/v1/diff", body)
	}()
	defer wg.Wait()
	defer release()
	waitInFlight(t, srv, 1)

	// httptest requests share the default RemoteAddr — one client.
	rec := post(srv, "/v1/diff", `{"schema":"five","a":"any -> accept\n","b":"any -> accept\n"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var envelope Error
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Err.Code != CodeClientOverLimit {
		t.Fatalf("code = %q, want %q", envelope.Err.Code, CodeClientOverLimit)
	}

	// A different client is unaffected. Release the held compile first so
	// its request can actually finish.
	release()
	wg.Wait()
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", strings.NewReader(
		`{"schema":"five","a":"any -> accept\n","b":"any -> accept\n"}`))
	req.RemoteAddr = "198.51.100.7:999"
	rec2 := httptest.NewRecorder()
	srv.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("other client diff = %d, want 200\n%s", rec2.Code, rec2.Body.String())
	}
}

// TestDrainingServerShedsNewAnalysis: after BeginDrain, /v1 requests
// shed with server_overloaded but /healthz keeps answering.
func TestDrainingServerShedsNewAnalysis(t *testing.T) {
	srv := NewServer(WithAdmission(admission.Config{MaxInFlight: 4, MaxQueue: 4}))
	srv.BeginDrain()
	rec := post(srv, "/v1/diff", `{"schema":"five","a":"any -> accept\n","b":"any -> accept\n"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /v1/diff = %d, want 503", rec.Code)
	}
	var envelope Error
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Err.Code != CodeServerOverloaded {
		t.Fatalf("code = %q", envelope.Err.Code)
	}
	if rec := getJSON(t, srv, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", rec.Code)
	}
}
