package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/guard"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// spellings returns variants of a native policy text that lower to the
// same IR: other whitespace, comments, and other value and decision
// spellings.
func spellings(text string) []string {
	return []string{
		strings.ReplaceAll(text, " -> ", "   ->\t"),
		"# a comment line\n\n" + strings.ReplaceAll(text, "\n", "  # trailing comment\n"),
		strings.ReplaceAll(strings.ReplaceAll(text, " in ", " = "), "-> accept", "-> allow"),
		strings.ReplaceAll(strings.ReplaceAll(text, "proto in tcp", "proto in 6"), "-> discard", "-> drop"),
	}
}

// aliasInput is one policy source and the schema a request names for it.
type aliasInput struct {
	schema string
	in     PolicyInput
}

// corpusFormats maps a testdata/frontends extension to its format.
var corpusFormats = map[string]string{".rules": "iptables", ".nft": "nftables", ".json": "secgroup"}

// readFrontendCorpus returns every testdata/frontends config, well-formed
// or not, as a policy input.
func readFrontendCorpus(t testing.TB) []PolicyInput {
	paths, err := filepath.Glob("../../testdata/frontends/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("frontend corpus: %v (%d files)", err, len(paths))
	}
	var out []PolicyInput
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, PolicyInput{Format: corpusFormats[filepath.Ext(p)], Text: string(data)})
	}
	return out
}

// aliasCorpus is the text-alias differential's corpus: the frontend
// corpus (with and without a chain), the paper's policies, synthetic
// real-life policies and perturbations of them in every spelling, and
// sources that fail to parse or to compile.
func aliasCorpus(t testing.TB) []aliasInput {
	var out []aliasInput
	for _, in := range readFrontendCorpus(t) {
		out = append(out, aliasInput{"five", in})
		in.Chain = "INPUT"
		out = append(out, aliasInput{"five", in})
	}
	for _, text := range []string{teamA, teamB} {
		out = append(out, aliasInput{"paper", in(text)})
		for _, v := range spellings(text) {
			out = append(out, aliasInput{"paper", in(v)})
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		base := synth.RealLife(120, seed)
		q, _ := synth.Perturb(base, 5, seed)
		for _, p := range []*rule.Policy{base, q} {
			text := rule.FormatPolicy(p)
			out = append(out, aliasInput{"five", in(text)}, aliasInput{"five", PolicyInput{Format: "native", Text: text}})
			for _, v := range spellings(text) {
				out = append(out, aliasInput{"five", in(v)})
			}
		}
	}
	out = append(out,
		aliasInput{"five", in(rule.FormatPolicy(synth.Adversarial(4)))},
		aliasInput{"five", in("src in 10.0.0.999 -> accept\nany -> discard\n")},
		aliasInput{"five", in("dport in 80 -> accept\n")}, // not comprehensive
		aliasInput{"five", PolicyInput{Format: "pf", Text: "pass all"}},
		aliasInput{"five", in("")},
		aliasInput{"nine", in("any -> accept\n")},
	)
	return out
}

// postDiff posts a diff request under a fixed request ID, so two
// answers to one request can be compared byte for byte.
func postDiff(t testing.TB, srv http.Handler, req DiffRequest) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	postDiffTo(t, srv, req, rec)
	return rec
}

// postDiffTo is postDiff answering into rec.
func postDiffTo(t testing.TB, srv http.Handler, req DiffRequest, rec *httptest.ResponseRecorder) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/diff", bytes.NewReader(raw))
	r.Header.Set("X-Request-ID", "alias-test")
	srv.ServeHTTP(rec, r)
}

// wireKey is the text-alias key of src as a request carries it: the
// digest of the JSON value encoding/json writes for it into the body.
func wireKey(t testing.TB, schema string, src PolicyInput) string {
	t.Helper()
	raw, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	return engine.SourceKey(schema, raw)
}

// withCached is a cold response's body as a report-cache hit must send
// it: the same bytes with "cached":true as the last member.
func withCached(body []byte) []byte {
	return append(bytes.TrimSuffix(bytes.Clone(body), []byte("}\n")), cachedTail...)
}

// checkAlias diffs a source against itself twice on a fresh server and
// holds the text alias to parse + PolicyHash: a source that parses and
// compiles is aliased to exactly the address they give, and its repeat is
// answered from the alias without parsing; a source that fails either
// gets the same status and body (diagnostics included) on the repeat and
// is never aliased.
func checkAlias(t *testing.T, schemaName string, src PolicyInput) {
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: 50_000, MaxEdgeSplits: 50_000}})
	srv := NewServer(WithEngine(eng))
	defer srv.Close()
	req := DiffRequest{Schema: schemaName, A: src, B: src}
	first := postDiff(t, srv, req)
	second := postDiff(t, srv, req)
	hash, aliased := eng.SourceHash(context.Background(), wireKey(t, schemaName, src))

	var p *rule.Policy
	schema, err := field.SchemaByName(schemaName)
	if err == nil {
		p, err = frontend.Parse(src.Format, schema, src.Text, frontend.Options{Chain: src.Chain})
	}
	if first.Code != http.StatusOK {
		if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("a failing source answered %d then %d:\n%s\n%s", first.Code, second.Code, first.Body, second.Body)
		}
		if err != nil && first.Code != http.StatusBadRequest {
			t.Fatalf("a source the frontend rejects (%v) answered %d, want 400", err, first.Code)
		}
		if aliased {
			t.Fatalf("a source that answered %d was aliased", first.Code)
		}
		if b := eng.Stats().Compile.Bytes; b != 0 {
			t.Fatalf("a source that answered %d left %d bytes in the compile cache and alias", first.Code, b)
		}
		return
	}
	if err != nil {
		t.Fatalf("served 200 for a source the frontend rejects: %v", err)
	}
	if want := engine.PolicyHash(p); !aliased || hash != want {
		t.Fatalf("alias holds %q (present %v), parse + PolicyHash give %q", hash, aliased, want)
	}
	if want := withCached(first.Body.Bytes()); !bytes.Equal(second.Body.Bytes(), want) {
		t.Fatalf("repeat body differs from the first one with cached set:\n%s\n%s", second.Body, want)
	}
	root := tracedRoot(t, srv, second)
	for _, name := range []string{"frontend.lower", "engine.hash"} {
		if _, ok := root.Find(name); ok {
			t.Fatalf("an aliased repeat ran %s", name)
		}
	}
}

// FuzzTextAliasMatchesParse runs checkAlias on arbitrary sources; plain
// go test runs it over the corpus.
func FuzzTextAliasMatchesParse(f *testing.F) {
	for _, c := range aliasCorpus(f) {
		f.Add(c.schema, c.in.Format, c.in.Chain, c.in.Text)
	}
	f.Fuzz(func(t *testing.T, schema, format, chain, text string) {
		checkAlias(t, schema, PolicyInput{Format: format, Chain: chain, Text: text})
	})
}

// TestSpellingsShareOneAddress: the formatting variants the corpus uses
// lower to one IR, so their aliases name one compilation.
func TestSpellingsShareOneAddress(t *testing.T) {
	t.Parallel()
	schema := field.IPv4FiveTuple()
	text := rule.FormatPolicy(synth.RealLife(120, 1))
	want := engine.PolicyHash(mustLower(t, schema, "", text))
	for i, v := range spellings(text) {
		if v == text {
			t.Fatalf("spelling %d leaves the text as it is", i)
		}
		if got := engine.PolicyHash(mustLower(t, schema, "", v)); got != want {
			t.Fatalf("spelling %d lowers to another IR", i)
		}
	}
}

func mustLower(t testing.TB, schema *field.Schema, format, text string) *rule.Policy {
	t.Helper()
	p, err := frontend.Parse(format, schema, text, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// referenceBody is the diff response body as encoding the converted
// report gives it: json.NewEncoder(w).Encode(ConvertReport(...)).
func referenceBody(t testing.TB, schema *field.Schema, r *compare.Report, cached bool) []byte {
	t.Helper()
	resp := ConvertReport(schema, r)
	resp.Cached = cached
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bodyPair is one pair of the byte-identity corpus, with a variant of A
// that lowers to A's IR through other text.
type bodyPair struct {
	schema        string
	a, b, variant PolicyInput
}

func bodyPairs(t testing.TB) []bodyPair {
	var pairs []bodyPair
	pairs = append(pairs, bodyPair{"paper", in(teamA), in(teamB), in(spellings(teamA)[1])})
	five := field.IPv4FiveTuple()
	for _, x := range []float64{5, 25} {
		base := synth.RealLife(661, 1)
		q, _ := synth.Perturb(base, x, int64(x))
		a := rule.FormatPolicy(base)
		pairs = append(pairs, bodyPair{"five", in(a), in(rule.FormatPolicy(q)), in(spellings(a)[2])})
	}
	corpus := map[string]PolicyInput{}
	for _, c := range readFrontendCorpus(t) {
		if _, err := frontend.Parse(c.Format, five, c.Text, frontend.Options{}); err == nil {
			corpus[c.Format] = c
		}
	}
	for _, ab := range [][2]string{{"iptables", "secgroup"}, {"nftables", "iptables"}} {
		a, b := corpus[ab[0]], corpus[ab[1]]
		native := in(rule.FormatPolicy(mustLower(t, five, a.Format, a.Text)))
		pairs = append(pairs, bodyPair{"five", a, b, native})
	}
	return pairs
}

// TestDiffBodiesMatchEncoder pins /v1/diff's bodies to the encoder they
// replaced, byte for byte, cached flag included, on every path to a
// report: the cold response, the first report-cache hit (a variant
// spelling of A, so the alias misses and the policy is parsed), an alias
// hit, and a hit on a report another endpoint computed and no response
// has encoded yet.
func TestDiffBodiesMatchEncoder(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for i, c := range bodyPairs(t) {
		schema, err := field.SchemaByName(c.schema)
		if err != nil {
			t.Fatal(err)
		}
		pa := mustLower(t, schema, c.a.Format, c.a.Text)
		pb := mustLower(t, schema, c.b.Format, c.b.Text)
		srv := NewServer()
		cold := postDiff(t, srv, DiffRequest{Schema: c.schema, A: c.a, B: c.b})
		first := postDiff(t, srv, DiffRequest{Schema: c.schema, A: c.variant, B: c.b})
		alias := postDiff(t, srv, DiffRequest{Schema: c.schema, A: c.a, B: c.b})
		report, _, err := srv.Engine().DiffPolicies(ctx, pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			name   string
			rec    *httptest.ResponseRecorder
			cached bool
		}{{"cold", cold, false}, {"first hit", first, true}, {"alias hit", alias, true}} {
			if want := referenceBody(t, schema, report, got.cached); !bytes.Equal(got.rec.Body.Bytes(), want) {
				t.Fatalf("pair %d, %s: body differs from the encoder's\n got %.300s\nwant %.300s", i, got.name, got.rec.Body, want)
			}
		}
		if _, ok := tracedRoot(t, srv, first).Find("frontend.lower"); !ok {
			t.Fatalf("pair %d: the variant spelling was not parsed", i)
		}
		srv.Close()

		// A report /v1/impact computed: the first diff of the pair encodes
		// it, the alias hit after it reuses that encoding.
		srv = NewServer()
		if rec := doRec(t, srv, "/v1/impact", ImpactRequest{Schema: c.schema, Before: c.a, After: c.b}); rec.Code != http.StatusOK {
			t.Fatalf("pair %d: impact: status %d\n%.300s", i, rec.Code, rec.Body)
		}
		hits := []*httptest.ResponseRecorder{
			postDiff(t, srv, DiffRequest{Schema: c.schema, A: c.a, B: c.b}),
			postDiff(t, srv, DiffRequest{Schema: c.schema, A: c.a, B: c.b}),
		}
		if report, _, err = srv.Engine().DiffPolicies(ctx, pa, pb); err != nil {
			t.Fatal(err)
		}
		want := referenceBody(t, schema, report, true)
		for k, rec := range hits {
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("pair %d, hit %d on an impact report: body differs from the encoder's\n got %.300s\nwant %.300s", i, k, rec.Body, want)
			}
		}
		srv.Close()
	}
}

// warmPair is a diff-warm-shaped pair: a 661-rule real-life policy and a
// perturbation of it, as native text.
func warmPair(seed int64) DiffRequest {
	base := synth.RealLife(661, seed)
	q, _ := synth.Perturb(base, 10, seed)
	return DiffRequest{Schema: "five", A: in(rule.FormatPolicy(base)), B: in(rule.FormatPolicy(q))}
}

// lookups returns the cache-lookup events under root as "cache hit"
// strings.
func lookups(root trace.SpanRecord) []string {
	var out []string
	root.Walk(func(sr trace.SpanRecord) {
		if sr.Name == "cache-lookup" {
			hit, _ := sr.Attrs["hit"].(bool)
			cache, _ := sr.Attrs["cache"].(string)
			out = append(out, cache+" "+map[bool]string{true: "hit", false: "miss"}[hit])
		}
	})
	return out
}

// count returns how many times s occurs in list.
func count(list []string, s string) int {
	n := 0
	for _, x := range list {
		if x == s {
			n++
		}
	}
	return n
}

// TestWarmDiffTrace is a warm hit's served trace: both sources found
// through the text alias and the answer in the report cache, so nothing
// is parsed, hashed or constructed, and writing the kept body takes under
// a tenth of what rendering it took on the cold request, which alone
// catches a re-render. Without the race detector it is also a small share
// of the request; the share is the least over three warm requests, so
// one preemption inside an encode on a busy machine does not decide it.
// Race instrumentation of the 32 KB copy and of the Server-Timing walk
// makes that share meaningless, so a -race build does not check it.
func TestWarmDiffTrace(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	req := warmPair(3)
	cold := postDiff(t, srv, req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold diff: status %d\n%.300s", cold.Code, cold.Body)
	}
	coldRoot := tracedRoot(t, srv, cold)
	lowers := 0
	coldRoot.Walk(func(sr trace.SpanRecord) {
		if sr.Name != "frontend.lower" {
			return
		}
		lowers++
		if sr.Attrs["format"] != "native" || sr.Attrs["bytes"] == nil {
			t.Fatalf("frontend.lower attrs = %v, want format native and bytes", sr.Attrs)
		}
	})
	if lowers != 2 {
		t.Fatalf("cold diff lowered %d policies, want 2", lowers)
	}
	for _, name := range []string{"engine.hash", "construct", "api.encode"} {
		if _, ok := coldRoot.Find(name); !ok {
			t.Fatalf("cold diff trace has no %s span", name)
		}
	}
	coldEnc, _ := coldRoot.Find("api.encode")
	if got := lookups(coldRoot); count(got, "text miss") != 2 {
		t.Fatalf("cold diff cache lookups = %v, want two text misses", got)
	}
	if st := cold.Header().Get("Server-Timing"); !strings.Contains(st, "frontend.lower;dur=") {
		t.Fatalf("cold Server-Timing = %q, want a frontend.lower entry", st)
	}

	var encMicros, rootMicros int64 // the warm request with the least encode share
	leastEnc := int64(-1)           // the least warm encode
	for i := range 3 {
		// A connection writes into a buffer it reuses. A fresh recorder's
		// first write would grow its buffer into untouched memory, an
		// order of magnitude slower than copying the 32 KB body into a
		// buffer written before, and the span would time the recorder,
		// not the server.
		warm := httptest.NewRecorder()
		warm.Body.Write(cold.Body.Bytes())
		warm.Body.Reset()
		postDiffTo(t, srv, req, warm)
		if want := withCached(cold.Body.Bytes()); !bytes.Equal(warm.Body.Bytes(), want) {
			t.Fatalf("warm body %d differs from the cold one with cached set", i)
		}
		root := tracedRoot(t, srv, warm)
		got := lookups(root)
		if count(got, "text hit") != 2 || count(got, "report hit") != 1 || count(got, "text miss") != 0 {
			t.Fatalf("warm diff %d cache lookups = %v, want two text hits and one report hit", i, got)
		}
		for _, name := range []string{"frontend.lower", "engine.hash", "construct", "compile", "diff"} {
			if _, ok := root.Find(name); ok {
				t.Fatalf("warm diff %d trace has a %s span", i, name)
			}
		}
		enc, ok := root.Find("api.encode")
		if !ok || len(enc.Children) != 0 {
			t.Fatalf("warm diff %d trace has no api.encode span, or one with children", i)
		}
		if i == 0 || enc.DurationMicros*rootMicros < encMicros*root.DurationMicros {
			encMicros, rootMicros = enc.DurationMicros, root.DurationMicros
		}
		if leastEnc < 0 || enc.DurationMicros < leastEnc {
			leastEnc = enc.DurationMicros
		}
	}
	if 10*leastEnc >= coldEnc.DurationMicros && leastEnc > 0 {
		t.Fatalf("a warm api.encode took at least %d µs, the cold one %d µs, want under a tenth", leastEnc, coldEnc.DurationMicros)
	}
	if !raceEnabled && 10*encMicros >= rootMicros && encMicros > 0 {
		t.Fatalf("api.encode took at least %d µs of a %d µs request, want under 10%%", encMicros, rootMicros)
	}
}

// TestRespelledTokenMissesOnceThenHits: the alias is keyed by the bytes
// a request carries, so a body that spells a seen text's token another
// way (> where encoding/json wrote \u003e, & for \u0026) misses the
// alias once, is parsed to the same policies and answered from the
// report cache, and is an alias hit from then on, with the same body
// every time.
func TestRespelledTokenMissesOnceThenHits(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	defer srv.Close()
	req := warmPair(5)
	escaped, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// The policy texts hold no backslash, so every \u003e and \u0026 in
	// the body is an escape encoding/json wrote.
	plain := bytes.ReplaceAll(bytes.ReplaceAll(escaped, []byte(`\u003e`), []byte(">")), []byte(`\u0026`), []byte("&"))
	if bytes.Equal(plain, escaped) {
		t.Fatal("the two bodies spell their policies the same")
	}
	postBody := func(body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/diff", bytes.NewReader(body))
		r.Header.Set("X-Request-ID", "alias-test")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("diff: status %d\n%.300s", rec.Code, rec.Body)
		}
		return rec
	}
	cold := postBody(escaped)
	want := withCached(cold.Body.Bytes())
	for i, c := range []struct {
		lookups []string
		lowered bool
	}{
		{[]string{"text miss", "text miss", "report hit"}, true},
		{[]string{"text hit", "text hit", "report hit"}, false},
	} {
		rec := postBody(plain)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("respelled request %d: body differs from the first one with cached set", i)
		}
		root := tracedRoot(t, srv, rec)
		got := lookups(root)
		for _, l := range c.lookups {
			if count(got, l) != count(c.lookups, l) {
				t.Fatalf("respelled request %d: cache lookups = %v, want %v", i, got, c.lookups)
			}
		}
		if _, lowered := root.Find("frontend.lower"); lowered != c.lowered {
			t.Fatalf("respelled request %d: lowered %v, want %v", i, lowered, c.lowered)
		}
	}
}

// TestResolveTakesCompilationsFromItsDiff: /v1/resolve diffs its pair
// once and plans on the engine that diff used. After a /v1/diff of the
// pair, the pair's lookups are two compile hits and a report hit. What
// else it compiles it compiles once: Method 1 the reference semantics
// (a miss under resolve-generate), and the verification the candidate
// (a miss under resolve-verify, which finds the reference compiled and
// diffs the two afresh).
func TestResolveTakesCompilationsFromItsDiff(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	var dr DiffResponse
	if code := do(t, srv, "/v1/diff", DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}, &dr); code != http.StatusOK {
		t.Fatalf("diff: status %d", code)
	}
	decisions := map[string]string{}
	for i, d := range dr.Discrepancies {
		decisions[itoa(i+1)] = d.A
	}
	before := srv.Engine().Stats()
	rec := doRec(t, srv, "/v1/resolve", ResolveRequest{Schema: "paper", A: in(teamA), B: in(teamB), Decisions: decisions})
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: status %d\n%s", rec.Code, rec.Body)
	}
	after := srv.Engine().Stats()
	var pair []string
	phases := map[string][]string{}
	for _, c := range tracedRoot(t, srv, rec).Children {
		switch c.Name {
		case "resolve-generate", "resolve-verify":
			phases[c.Name] = lookups(c)
		default:
			pair = append(pair, lookups(c)...)
		}
	}
	if len(pair) != 3 || count(pair, "compile hit") != 2 || count(pair, "report hit") != 1 {
		t.Fatalf("resolve's pair cache lookups = %v, want two compile hits and one report hit", pair)
	}
	if got := phases["resolve-generate"]; !slices.Equal(got, []string{"compile miss"}) {
		t.Fatalf("resolve-generate cache lookups = %v, want the reference's compile miss", got)
	}
	if got := phases["resolve-verify"]; !slices.Equal(got, []string{"compile hit", "compile miss", "report miss"}) {
		t.Fatalf("resolve-verify cache lookups = %v, want the reference's hit, the candidate's miss and the diff's miss", got)
	}
	if d := after.Compile.Hits - before.Compile.Hits; d != 3 {
		t.Fatalf("resolve counted %d compile hits, want its diff's 2 and the reference's 1", d)
	}
	if d := after.Compilations - before.Compilations; d != 2 {
		t.Fatalf("resolve ran %d compilations, want the reference's and the candidate's", d)
	}
}

// sizedServer returns a server whose engine has the given cache budgets.
func sizedServer(compileBytes, reportBytes int64) *Server {
	return NewServer(WithEngine(engine.New(engine.Config{CompileCacheBytes: compileBytes, ReportCacheBytes: reportBytes})))
}

// TestAliasHitCompileEvicted: when a source's alias outlives its
// compilation, the diff falls back to parsing and compiling and still
// answers the pair's rows.
func TestAliasHitCompileEvicted(t *testing.T) {
	t.Parallel()
	one, two := warmPair(1), warmPair(2)
	// Size the compile cache from the pairs' own charges: room for either
	// pair's two compilations, not for a third.
	var pairBytes int64
	for _, req := range []DiffRequest{one, two} {
		probe := NewServer()
		if rec := postDiff(t, probe, req); rec.Code != http.StatusOK {
			t.Fatalf("probe diff: status %d", rec.Code)
		}
		pairBytes = max(pairBytes, probe.Engine().Stats().Compile.Bytes)
		probe.Close()
	}
	srv := sizedServer(pairBytes*5/4, 0)
	defer srv.Close()

	cold := postDiff(t, srv, one)
	if rec := postDiff(t, srv, two); rec.Code != http.StatusOK {
		t.Fatalf("second pair: status %d", rec.Code)
	}
	if st := srv.Engine().Stats(); st.Compile.Evictions < 2 || st.Compile.Entries != 2 {
		t.Fatalf("compile cache after two pairs: %+v, want the first pair evicted", st.Compile)
	}
	again := postDiff(t, srv, one)
	if again.Code != http.StatusOK {
		t.Fatalf("diff after eviction: status %d\n%.300s", again.Code, again.Body)
	}
	root := tracedRoot(t, srv, again)
	got := lookups(root)
	if count(got, "text hit") != 2 || count(got, "compile miss") != 2 {
		t.Fatalf("cache lookups = %v, want two text hits and two compile misses", got)
	}
	if _, ok := root.Find("frontend.lower"); !ok {
		t.Fatal("the fallback did not parse")
	}
	var first, second DiffResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if len(first.Discrepancies) == 0 || !equalRows(first.Discrepancies, second.Discrepancies) {
		t.Fatalf("rows after the fallback differ: %d then %d", len(first.Discrepancies), len(second.Discrepancies))
	}
}

func equalRows(a, b []Discrepancy) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// TestReportEvictedCompilesResident: when the report has left its cache
// but both compilations and aliases are resident, the diff runs the walk
// again without parsing, hashing or constructing, its constructMillis is
// the time spent finding the two diagrams, and its body is the encoder's
// for the new report.
func TestReportEvictedCompilesResident(t *testing.T) {
	t.Parallel()
	one, two := warmPair(1), warmPair(2)
	// Room for either pair's report and its body, not for two.
	var reportBytes int64
	for _, req := range []DiffRequest{one, two} {
		probe := NewServer()
		if rec := postDiff(t, probe, req); rec.Code != http.StatusOK {
			t.Fatalf("probe diff: status %d", rec.Code)
		}
		reportBytes = max(reportBytes, probe.Engine().Stats().Reports.Bytes)
		probe.Close()
	}
	srv := sizedServer(0, reportBytes*5/4)
	defer srv.Close()

	cold := postDiff(t, srv, one)
	postDiff(t, srv, two)
	if st := srv.Engine().Stats(); st.Reports.Evictions == 0 || st.Compile.Entries != 4 {
		t.Fatalf("after two pairs: reports %+v, compile %+v; want the first report evicted, all compilations kept", st.Reports, st.Compile)
	}
	again := postDiff(t, srv, one)
	if again.Code != http.StatusOK {
		t.Fatalf("diff after eviction: status %d\n%.300s", again.Code, again.Body)
	}
	root := tracedRoot(t, srv, again)
	if got := lookups(root); count(got, "text hit") != 2 || count(got, "compile hit") != 2 || count(got, "report miss") != 1 {
		t.Fatalf("cache lookups = %v, want two text hits, two compile hits and a report miss", got)
	}
	for _, name := range []string{"frontend.lower", "engine.hash", "construct"} {
		if _, ok := root.Find(name); ok {
			t.Fatalf("the recomputed diff ran %s", name)
		}
	}
	if _, ok := root.Find("compare.direct"); !ok {
		t.Fatal("the recomputed diff did not walk")
	}
	var first, second DiffResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached || !equalRows(first.Discrepancies, second.Discrepancies) {
		t.Fatalf("recomputed diff: cached %v, rows %d vs %d", second.Cached, len(second.Discrepancies), len(first.Discrepancies))
	}
	if total := float64(root.DurationMicros) / 1000; second.ConstructMillis > total {
		t.Fatalf("constructMillis %.3f exceeds the request's %.3f ms", second.ConstructMillis, total)
	}
	ctx := context.Background()
	schema := field.IPv4FiveTuple()
	pa, pb := mustLower(t, schema, "", one.A.Text), mustLower(t, schema, "", one.B.Text)
	report, _, err := srv.Engine().DiffPolicies(ctx, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBody(t, schema, report, false); !bytes.Equal(again.Body.Bytes(), want) {
		t.Fatal("the recomputed diff's body differs from the encoder's")
	}
}

// TestSchemaNameFoldsCase: a request's schema name resolves in any
// case, as a -schema flag's does. "PAPER" answers 200 with the rows
// "paper" gives, each computed on its own server.
func TestSchemaNameFoldsCase(t *testing.T) {
	var got [2]DiffResponse
	for i, name := range []string{"paper", "PAPER"} {
		srv := NewServer()
		rec := postDiff(t, srv, DiffRequest{Schema: name, A: in(teamA), B: in(teamB)})
		srv.Close()
		if rec.Code != http.StatusOK {
			t.Fatalf("schema %q: status %d: %s", name, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got[0].Discrepancies) != 3 || !reflect.DeepEqual(got[0].Discrepancies, got[1].Discrepancies) {
		t.Fatalf("schema \"PAPER\" gives rows %+v, \"paper\" %+v", got[1].Discrepancies, got[0].Discrepancies)
	}
}

// discardWriter is a ResponseWriter that keeps nothing and allocates
// nothing per write.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestUntracedWarmDiffAllocs pins what an untraced warm /v1/diff
// allocates, so a span or event that allocates without a trace fails
// here: the request struct, the body decode's (TestDecodeAllocs: the
// bounded reader and the schema string; both policies stay views into
// the body), the two alias keys, the report key and the report lookup's
// compute closure, and the Content-Type header's value slice.
// field.SchemaByName returns a schema built once and allocates nothing,
// in any case. A body read into a buffer of its own adds that buffer and
// nothing else; read into a pooled one, as the middleware reads it,
// nothing the request allocates grows with its body. The pooled counts
// depend on a pool hit, which the race detector makes random, so they
// are measured only without it.
func TestUntracedWarmDiffAllocs(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	raw, err := json.Marshal(DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if rec := postDiff(t, srv, DiffRequest{Schema: "paper", A: in(teamA), B: in(teamB)}); rec.Code != http.StatusOK {
			t.Fatalf("priming diff: status %d", rec.Code)
		}
	}
	body := &reusableBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", nil)
	req.Body = body
	req.ContentLength = int64(len(raw))
	discard := &discardWriter{h: http.Header{}}
	sw := &statusWriter{ResponseWriter: discard}
	diff := func(w http.ResponseWriter) func() {
		return func() {
			body.Reset(raw)
			srv.diff(w, req)
			sw.releaseBody()
		}
	}
	hits := srv.Engine().Stats().Reports.Hits
	const warm = 1 + 2 + 2 + 2 + 1
	if n := testing.AllocsPerRun(20, diff(discard)); n != warm+1 {
		t.Fatalf("an untraced warm diff makes %v allocations, want %v", n, warm+1)
	}
	if got := srv.Engine().Stats().Reports.Hits - hits; got != 21 {
		t.Fatalf("%d report hits over 21 runs; the loop is not on the warm path", got)
	}
	for _, name := range []string{"paper", "PAPER", "", "Five"} {
		if schema := testing.AllocsPerRun(20, func() { field.SchemaByName(name) }); schema != 0 {
			t.Fatalf("field.SchemaByName(%q) makes %v allocations, want 0", name, schema)
		}
	}
	if raceEnabled {
		return
	}
	run := diff(sw)
	if n := testing.AllocsPerRun(20, run); n != warm {
		t.Fatalf("an untraced warm diff from a pooled buffer makes %v allocations, want %v", n, warm)
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1<<10 {
		t.Fatalf("an untraced warm diff from a pooled buffer allocates %d bytes for a %d-byte body, want at most 1 KiB", perOp, len(raw))
	}
}

// TestUntracedSpansAllocateNothing: without a trace, lowering a policy
// and writing a response allocate what the work itself does. Parsing
// allocates the same every run. Encoding goes through encoding/json's
// pooled encoder state, so respond and writeJSON are compared only
// without the race detector, whose sync.Pool drops items at random.
func TestUntracedSpansAllocateNothing(t *testing.T) {
	schema := field.PaperExample()
	ctx := context.Background()
	lower := testing.AllocsPerRun(20, func() { parseInput(ctx, schema, in(teamA), "policy") })
	parse := testing.AllocsPerRun(20, func() { frontend.Parse("", schema, teamA, frontend.Options{}) })
	if lower != parse {
		t.Fatalf("parseInput makes %v allocations, frontend.Parse %v", lower, parse)
	}
	if raceEnabled {
		return
	}
	w := &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/v1/audit", nil)
	v := AuditResponse{Findings: []Finding{{Kind: "k", Rules: []int{1}, Detail: "d"}}}
	responded := testing.AllocsPerRun(20, func() { respond(req, w, http.StatusOK, v) })
	written := testing.AllocsPerRun(20, func() { writeJSON(w, http.StatusOK, v) })
	if responded != written {
		t.Fatalf("respond makes %v allocations, writeJSON %v", responded, written)
	}
}
