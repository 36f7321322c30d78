package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"diversefw/internal/engine"
)

// eagerDiff and eagerImpact serve /v1/diff and /v1/impact with every
// policy token validated in the walk (decodeInto) and nothing left
// pending: the reference FuzzDeferredDecodeMatchesEager holds the served
// handlers to.
func eagerDiff(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req DiffRequest
		if decodeInto(w, r, &req) {
			s.serveDiff(w, r, &req, new(pendingTokens))
		}
	}
}

func eagerImpact(s *Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ImpactRequest
		if decodeInto(w, r, &req) {
			s.serveImpact(w, r, &req, new(pendingTokens))
		}
	}
}

// goodA and goodB are the paper's policies as encoding/json writes them
// into a body, the spellings primedServer's alias holds.
var goodA, goodB = func() (string, string) {
	a, _ := json.Marshal(teamA)
	b, _ := json.Marshal(teamB)
	return string(a), string(b)
}()

// badTokens are policy tokens unquoting rejects: a control byte, a bad
// escape, a \u escape without four hex digits, and a primed spelling
// with a control byte in it.
var badTokens = []string{
	"\"any -> accept\x01\"", `"any \q-> accept"`, `"\u12zz any -> accept"`,
	strings.Replace(goodA, "accept", "acc\x01ept", 1),
}

// primedServer returns a server whose text alias holds goodA and goodB,
// both compiled, with their pair's report cached and an edit script run
// from goodA, closed when t's test ends.
func primedServer(t testing.TB) *Server {
	t.Helper()
	srv := NewServer()
	t.Cleanup(srv.Close)
	if rec := postDiff(t, srv, DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != http.StatusOK {
		t.Fatalf("priming diff: status %d\n%s", rec.Code, rec.Body)
	}
	raw, _ := json.Marshal(ImpactRequest{Schema: "paper", Before: in(teamA), Edits: []string{"delete 1"}})
	if rec := post(srv, "/v1/impact", string(raw)); rec.Code != http.StatusOK {
		t.Fatalf("priming impact: status %d\n%s", rec.Code, rec.Body)
	}
	return srv
}

// serveRaw serves body to h as the middleware would hand it over: read
// into a pooled buffer that goes back to the pool once h returns.
func serveRaw(h http.HandlerFunc, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	h(sw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	sw.releaseBody()
	return rec
}

// sameAnswer reports whether two answers to one request agree: the same
// status and the same body, except for a diff report's timings, which
// are the run's that computed it.
func sameAnswer(got, want *httptest.ResponseRecorder) bool {
	if got.Code != want.Code {
		return false
	}
	var g, w DiffResponse
	if got.Code != http.StatusOK || json.Unmarshal(got.Body.Bytes(), &g) != nil || json.Unmarshal(want.Body.Bytes(), &w) != nil {
		return bytes.Equal(got.Body.Bytes(), want.Body.Bytes())
	}
	g.ConstructMillis, g.ShapeMillis, g.CompareMillis = 0, 0, 0
	w.ConstructMillis, w.ShapeMillis, w.CompareMillis = 0, 0, 0
	return reflect.DeepEqual(g, w)
}

// checkDeferred serves body twice to the /v1/diff or /v1/impact handler
// of a primed server and to the eager reference of another, primed the
// same way: each answer must agree with the reference's, so a token that
// is never validated cannot change a status, a code, a message or a
// body, nor be aliased and change the retry's.
func checkDeferred(t *testing.T, impact bool, body []byte) {
	srv, ref := primedServer(t), primedServer(t)
	path, served, eager := "/v1/diff", srv.diff, eagerDiff(ref)
	if impact {
		path, served, eager = "/v1/impact", srv.impact, eagerImpact(ref)
	}
	for try := range 2 {
		got, want := serveRaw(served, path, body), serveRaw(eager, path, body)
		if !sameAnswer(got, want) {
			t.Fatalf("%s %q, try %d: deferred answers %d\n%.400s\neager %d\n%.400s",
				path, body, try, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// deferredSeeds are bodies whose answer depends on when a policy token
// is validated: an invalid token before another error, overwritten by a
// duplicate or case-folded key, beside a token that hits the alias, on
// either side of it, behind an error the handler writes, and past the
// pending list's capacity; and tokens with every escape class.
func deferredSeeds() []string {
	var seeds []string
	for _, bad := range badTokens {
		seeds = append(seeds,
			`{"schema":"paper","a":`+bad+`,"zzz":1}`,
			`{"schema":"paper","a":`+bad+`,"b":5}`,
			`{"a":`+bad+`,"schema":5}`,
			`{"schema":"paper","a":`+bad+`,"b":`+goodB+`} x`,
			`{"schema":"paper","a":`+bad+`,"b":`+goodB+`,`,
			`{"schema":"paper","a":`+bad+`,"a":`+goodA+`,"b":`+goodB+`}`,
			`{"schema":"paper","a":`+bad+`,"A":`+goodA+`,"b":`+goodB+`}`,
			`{"schema":"paper","a":`+bad+`,"b":`+bad+`,"b":`+goodB+`}`,
			`{"schema":"paper","before":`+bad+`,"before":`+goodA+`,"edits":["delete 1"]}`,
			`{"schema":"paper","before":`+bad+`,"after":`+bad+`,"after":`+goodB+`}`,
			`{"schema":"nope","a":`+bad+`,"b":`+goodB+`}`,
			`{"schema":"paper","a":`+goodA+`,"b":`+bad+`}`,
			`{"schema":"paper","b":`+bad+`,"a":`+goodA+`}`,
			`{"schema":"paper","b":`+goodB+`,"a":`+bad+`}`,
			`{"schema":"paper","a":`+goodA+`,"b":`+goodB+`,"a":`+goodA+`,"a":`+goodA+`,"b":`+bad+`}`,
			`{"schema":"paper","a":`+bad+`,"a":`+goodA+`,"a":`+goodA+`,"a":`+goodA+`,"a":`+goodA+`,"b":`+goodB+`}`,
			`{"schema":"paper","a":`+goodA+`,"b":`+goodB+`,"policies":[{"policy":`+bad+`}]}`,
			`{"schema":"paper","before":`+bad+`,"after":`+goodB+`,"edits":["delete 1"]}`,
			`{"schema":"paper","before":`+bad+`,"edits":["zork"]}`,
			`{"schema":"paper","before":`+bad+`,"edits":["delete 1"]}`,
			`{"schema":"paper","before":`+goodA+`,"after":`+bad+`}`,
			`{"schema":"paper","after":`+bad+`,"before":`+goodA+`,"edits":["delete 2"]}`,
			`{"schema":"nope","before":`+bad+`,"edits":["delete 1"]}`,
		)
	}
	seeds = append(seeds,
		`{"schema":"paper","a":`+goodA+`,"b":`+goodB+`}`,
		`{"schema":"paper","a":`+goodB+`,"b":`+goodA+`}`,
		`{"schema":"paper","a":`+goodA+`,"b":"any -> accept\n"}`,
		`{"schema":"paper","before":`+goodA+`,"edits":["delete 1"]}`,
		`{"schema":"paper","before":`+goodA+`,"edits":["zork"]}`,
		`{"schema":"paper","before":`+goodA+`,"after":`+goodB+`}`,
		`{"schema":"paper","before":`+goodA+`,"after":`+goodB+`,"edits":["delete 1"]}`,
		`{"schema":"paper","a":"x\","b":`+goodB+`}`,
		// An overwritten valid token settles the list before a lookup
		// that misses, so the parse must read the text settling left.
		`{"schema":"paper","a":"any -> discard\n","a":"any -> accept\n","b":`+goodB+`}`,
		`{"schema":"paper","before":"any -> discard\n","before":"I in 0 -> discard\nany -> accept\n","edits":["delete 1"]}`,
		`{"schema":"paper","before":`+goodA+`,"after":"any -> discard\n","after":"any -> accept\n"}`,
		// A token the full pending list validates as it evicts it may be
		// the one its policy keeps, so its text must reach the parse.
		`{"schema":"paper","a":"any -> accept\n","b":`+goodB+`,"b":`+goodB+`,"b":`+goodB+`,"b":`+goodB+`}`,
		`{"schema":"paper","before":"I in 0 -> discard\nany -> accept\n","after":`+goodB+`,"after":`+goodB+`,"after":`+goodB+`,"after":`+goodB+`,"edits":["delete 1"]}`,
		`{"schema":"paper","before":"I in 0 -> discard\nany -> accept\n","after":`+goodB+`,"after":`+goodB+`,"after":`+goodB+`,"after":`+goodB+`,"after":"","edits":["delete 1"]}`,
		`{"schema":"paper","a":"abc`,
	)
	// Every escape class, in a token that is valid and in one made
	// invalid at its end.
	escapes := `\"\\\/\b\f\n\r\té😀\ud83d&->`
	for _, tail := range []string{``, `\x`, `\u00`, "\x1f", "\xff"} {
		tok := `"any ` + escapes + tail + `"`
		seeds = append(seeds,
			`{"schema":"paper","a":`+tok+`,"b":`+goodB+`}`,
			`{"schema":"paper","before":`+tok+`,"edits":["delete 1"]}`)
	}
	return seeds
}

// FuzzDeferredDecodeMatchesEager runs checkDeferred on arbitrary bodies
// to either endpoint; plain go test runs it over the seeds.
func FuzzDeferredDecodeMatchesEager(f *testing.F) {
	for _, s := range deferredSeeds() {
		f.Add(false, []byte(s))
		f.Add(true, []byte(s))
	}
	f.Fuzz(checkDeferred)
}

// TestPolicyTokenValidations pins how many passes over its policy tokens
// a request makes: none when both of a diff's tokens hit the text alias,
// or an edit script's before does, and one per token on a miss and on
// every endpoint that validates its tokens in the walk, since validating
// a token is unquoting it for the parse.
func TestPolicyTokenValidations(t *testing.T) {
	var n int
	validatedPolicyToken = func() { n++ }
	defer func() { validatedPolicyToken = nil }()
	srv := NewServer()
	defer srv.Close()
	pair := DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}
	edits := func(before PolicyInput, script ...string) ImpactRequest {
		return ImpactRequest{Schema: "paper", Before: before, Edits: script}
	}
	respelled := in(spellings(teamA)[0])
	named := func(texts ...string) []NamedPolicy {
		nps := make([]NamedPolicy, len(texts))
		for i, text := range texts {
			nps[i] = NamedPolicy{Policy: in(text)}
		}
		return nps
	}
	for _, c := range []struct {
		what string
		path string
		req  any
		want int
	}{
		{"a cold diff", "/v1/diff", pair, 2},
		{"a primed diff", "/v1/diff", pair, 0},
		{"a diff with one new token", "/v1/diff", DiffRequest{Schema: "paper", A: respelled, B: in(teamB)}, 2},
		{"an edit script against a new before", "/v1/impact", edits(in(spellings(teamB)[1]), "delete 1"), 1},
		{"an edit script against a resident before", "/v1/impact", edits(in(teamA), "delete 2"), 0},
		{"an after text against a resident before", "/v1/impact", ImpactRequest{Schema: "paper", Before: respelled, After: in(teamB)}, 0},
		{"an audit", "/v1/audit", AuditRequest{Schema: "paper", Policy: in(teamA)}, 1},
		{"an analysis", "/v1/analyze", AnalyzeRequest{Schema: "paper", Policy: in(teamA)}, 1},
		{"a query", "/v1/query", QueryRequest{Schema: "paper", Policy: in(teamB), Query: "select N decision accept"}, 1},
		{"a resolution", "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamA), Decisions: map[string]string{}}, 2},
		{"a two-policy cross-comparison", "/v1/crosscompare", CrossCompareRequest{Schema: "paper", Policies: named(teamA, teamB)}, 2},
		{"a three-policy job", "/v1/jobs", JobSubmitRequest{Schema: "paper", Policies: named(teamA, teamB, teamA)}, 3},
	} {
		n = 0
		if rec := doRec(t, srv, c.path, c.req); rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d\n%s", c.what, rec.Code, rec.Body)
		}
		if n != c.want {
			t.Fatalf("%s validated its policy tokens %d times, want %d", c.what, n, c.want)
		}
	}
}

// TestDiffInvalidTokenNeverAliased: a policy token that fails validation
// answers 400 with its member's body error, the same on a retry, on a
// fresh server and beside a token that hits the alias, on either side of
// it; it is never aliased, and nothing is compiled for its request.
func TestDiffInvalidTokenNeverAliased(t *testing.T) {
	t.Parallel()
	for _, bad := range badTokens {
		for _, body := range []string{
			`{"schema":"paper","a":` + bad + `,"b":` + goodB + `}`,
			`{"schema":"paper","b":` + goodB + `,"a":` + bad + `}`,
		} {
			for _, primed := range []bool{false, true} {
				var srv *Server
				if primed {
					srv = primedServer(t)
				} else {
					srv = NewServer()
					t.Cleanup(srv.Close)
				}
				compiled := srv.Engine().Stats().Compile.Bytes
				for try := range 2 {
					rec := post(srv, "/v1/diff", body)
					e := errorBody(t, rec)
					if rec.Code != http.StatusBadRequest || e.Err.Code != CodeBadRequest ||
						e.Err.Message != `bad request body: invalid JSON string in member "a"` {
						t.Fatalf("primed=%v %q, try %d: status %d %s %q", primed, body, try, rec.Code, e.Err.Code, e.Err.Message)
					}
				}
				if _, aliased := srv.Engine().SourceHash(context.Background(), engine.SourceKey("paper", []byte(bad))); aliased {
					t.Fatalf("primed=%v: the invalid token %q was aliased", primed, bad)
				}
				if b := srv.Engine().Stats().Compile.Bytes; b != compiled {
					t.Fatalf("primed=%v %q: the compile cache grew from %d to %d bytes", primed, body, compiled, b)
				}
			}
		}
	}
}
