package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// impactBase returns a 661-rule base as /v1/impact receives it, and a
// perturbation of it as an after text.
func impactBase(seed int64) (before, after PolicyInput) {
	base := synth.RealLife(661, seed)
	q, _ := synth.Perturb(base, 10, seed)
	return in(rule.FormatPolicy(base)), in(rule.FormatPolicy(q))
}

// editScripts are edit scripts for impactBase's policies, each touching
// other rules, so that each edited policy is new to a server.
var editScripts = [][]string{
	{"delete 600"},
	{"swap 640 12", "insert 1: dport in 25 -> discard"},
	{"replace 300: proto in udp -> accept", "delete 2"},
}

// doImpact posts an impact request under a fixed request ID, so two
// answers to one request can be compared byte for byte.
func doImpact(t *testing.T, srv http.Handler, req ImpactRequest) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/impact", bytes.NewReader(raw))
	r.Header.Set("X-Request-ID", "impact-alias-test")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, r)
	return rec
}

// postImpact posts an impact request that must succeed and returns its
// body.
func postImpact(t *testing.T, srv http.Handler, req ImpactRequest) []byte {
	t.Helper()
	rec := doImpact(t, srv, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("impact: status %d\n%.300s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// spans counts the spans named name under root.
func spans(root trace.SpanRecord, name string) int {
	n := 0
	root.Walk(func(sr trace.SpanRecord) {
		if sr.Name == name {
			n++
		}
	})
	return n
}

// TestImpactAliasTrace: an edit script against a before text the server
// has seen reaches the before policy through the text alias, so its trace
// lowers nothing and hashes only the edited policy.
func TestImpactAliasTrace(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	before, _ := impactBase(1)
	first := doImpact(t, srv, ImpactRequest{Schema: "five", Before: before, Edits: editScripts[0]})
	if first.Code != http.StatusOK {
		t.Fatalf("first impact: status %d\n%.300s", first.Code, first.Body)
	}
	root := tracedRoot(t, srv, first)
	if got := lookups(root); spans(root, "frontend.lower") != 1 || spans(root, "engine.hash") != 2 || count(got, "text miss") != 1 {
		t.Fatalf("first impact: %d frontend.lower and %d engine.hash spans, lookups %v; want 1, 2 and a text miss",
			spans(root, "frontend.lower"), spans(root, "engine.hash"), got)
	}
	for i, edits := range [][]string{editScripts[0], editScripts[1]} {
		rec := doImpact(t, srv, ImpactRequest{Schema: "five", Before: before, Edits: edits})
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat %d: status %d\n%.300s", i, rec.Code, rec.Body)
		}
		root := tracedRoot(t, srv, rec)
		got := lookups(root)
		if n := spans(root, "frontend.lower"); n != 0 {
			t.Fatalf("repeat %d lowered %d policies, want none", i, n)
		}
		if n := spans(root, "engine.hash"); n != 1 {
			t.Fatalf("repeat %d hashed %d policies, want the edited one only", i, n)
		}
		if count(got, "text hit") != 1 || count(got, "text miss") != 0 || count(got, "compile miss") != i {
			t.Fatalf("repeat %d cache lookups = %v, want one text hit", i, got)
		}
		ed, ok := root.Find("impact.edits")
		if !ok {
			t.Fatalf("repeat %d has no impact.edits span", i)
		}
		if _, ok := ed.Find("engine.hash"); !ok {
			t.Fatalf("repeat %d hashed the edited policy outside impact.edits", i)
		}
	}
}

// TestImpactAliasBodies: an answer served through the text alias is
// byte for byte the one a fresh server, which parses everything, gives
// to the same request, in edits mode and in after-text mode.
func TestImpactAliasBodies(t *testing.T) {
	t.Parallel()
	before, after := impactBase(2)
	warm := NewServer()
	defer warm.Close()
	postImpact(t, warm, ImpactRequest{Schema: "five", Before: before, Edits: editScripts[0]})
	reqs := []ImpactRequest{
		{Schema: "five", Before: before, Edits: editScripts[1]},
		{Schema: "five", Before: before, Edits: editScripts[2]},
		{Schema: "five", Before: before, After: after},
		{Schema: "five", Before: before, After: after}, // both texts aliased now
	}
	for i, req := range reqs {
		got := postImpact(t, warm, req)
		fresh := NewServer()
		want := postImpact(t, fresh, req)
		fresh.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: the aliased answer differs from a fresh server's\n got %.300s\nwant %.300s", i, got, want)
		}
	}
	if got := lookups(tracedRoot(t, warm, doImpact(t, warm, reqs[3]))); count(got, "text hit") != 2 || count(got, "compile hit") != 2 {
		t.Fatalf("after-text repeat cache lookups = %v, want two text and two compile hits", got)
	}
}

// TestImpactAliasBaseEvicted: when the before text's alias outlives its
// compilation, the edit script falls back to parsing it, counts one
// compile-cache lookup for it (the fallback's miss), and answers as it
// did the first time.
func TestImpactAliasBaseEvicted(t *testing.T) {
	t.Parallel()
	one, _ := impactBase(3)
	two, _ := impactBase(4)
	reqOne := ImpactRequest{Schema: "five", Before: one, Edits: editScripts[0]}
	reqTwo := ImpactRequest{Schema: "five", Before: two, Edits: editScripts[0]}
	// Size the compile cache from the requests' own charges: room for
	// either request's two compilations, not for a third.
	var reqBytes int64
	for _, req := range []ImpactRequest{reqOne, reqTwo} {
		probe := NewServer()
		postImpact(t, probe, req)
		reqBytes = max(reqBytes, probe.Engine().Stats().Compile.Bytes)
		probe.Close()
	}
	srv := sizedServer(reqBytes*5/4, 0)
	defer srv.Close()
	first := postImpact(t, srv, reqOne)
	postImpact(t, srv, reqTwo)
	if _, aliased := srv.Engine().SourceHash(context.Background(), wireKey(t, "five", one)); !aliased {
		t.Fatal("the first before text is not aliased")
	}
	stats := srv.Engine().Stats()
	rec := doImpact(t, srv, reqOne)
	if rec.Code != http.StatusOK {
		t.Fatalf("impact after eviction: status %d\n%.300s", rec.Code, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), first) {
		t.Fatalf("the answer after eviction differs\n got %.300s\nwant %.300s", rec.Body, first)
	}
	root := tracedRoot(t, srv, rec)
	got := lookups(root)
	if count(got, "text hit") != 1 || count(got, "compile hit")+count(got, "compile miss") != 2 || count(got, "compile miss") < 1 {
		t.Fatalf("cache lookups = %v, want a text hit and two compile lookups, the before policy's a miss", got)
	}
	if st := srv.Engine().Stats(); st.Compile.Hits+st.Compile.Misses-stats.Compile.Hits-stats.Compile.Misses != 2 {
		t.Fatalf("the request counted %d compile lookups, want 2", st.Compile.Hits+st.Compile.Misses-stats.Compile.Hits-stats.Compile.Misses)
	}
	if spans(root, "frontend.lower") != 1 {
		t.Fatal("the fallback did not parse the before text")
	}
}

// TestImpactUnparseableBeforeNeverAliased: a before text that does not
// parse answers 400 with the same body every time and is never aliased,
// in edits mode and in after-text mode.
func TestImpactUnparseableBeforeNeverAliased(t *testing.T) {
	t.Parallel()
	bad := in("src in 10.0.0.999 -> accept\nany -> discard\n")
	_, after := impactBase(5)
	for _, req := range []ImpactRequest{
		{Schema: "five", Before: bad, Edits: editScripts[0]},
		{Schema: "five", Before: bad, After: after},
		{Schema: "five", Before: bad, Edits: []string{"zork"}},
		{Schema: "five", Before: bad},
	} {
		srv := NewServer()
		first := doImpact(t, srv, req)
		second := doImpact(t, srv, req)
		if first.Code != http.StatusBadRequest || second.Code != first.Code || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("an unparseable before answered %d then %d:\n%s\n%s", first.Code, second.Code, first.Body, second.Body)
		}
		if !bytes.Contains(first.Body.Bytes(), []byte(CodeUnparseablePolicy)) || !bytes.Contains(first.Body.Bytes(), []byte("before:")) {
			t.Fatalf("an unparseable before answered %s, want its own unparseable_policy error", first.Body)
		}
		if _, aliased := srv.Engine().SourceHash(context.Background(), wireKey(t, "five", bad)); aliased {
			t.Fatal("an unparseable before was aliased")
		}
		srv.Close()
	}
}
