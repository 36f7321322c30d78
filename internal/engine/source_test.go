package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestSourceKeyFields: the schema and every value byte are in a
// source's key, the length prefix keeps a schema and value split
// differently from colliding, and the domain tag keeps the key off the
// plain digest of the same bytes.
func TestSourceKeyFields(t *testing.T) {
	t.Parallel()
	keys := map[string]string{}
	for _, src := range [][2]string{
		{"five", `"any -> accept\n"`},
		{"four", `"any -> accept\n"`},
		{"five", `"any -\u003e accept\n"`},
		{"five", `"any -> accept \n"`},
		{"five", `{"format":"native","text":"any -> accept\n"}`},
		{"five", `{"text":"any -> accept\n","format":"native"}`},
		{"fiv", `e"any -> accept\n"`},
		{"five", `""`},
		{"five", ``},
		{"", `five""`},
	} {
		k := SourceKey(src[0], []byte(src[1]))
		if len(k) != 32 {
			t.Fatalf("key of %q is %d bytes, want a sha256 digest", src, len(k))
		}
		if other, dup := keys[k]; dup {
			t.Fatalf("sources %q and %s share a key", src, other)
		}
		keys[k] = fmt.Sprintf("%q", src)
		if k != SourceKey(src[0], []byte(src[1])) {
			t.Fatalf("key of %q is not deterministic", src)
		}
		if plain := sha256.Sum256([]byte(src[0] + src[1])); k == string(plain[:]) {
			t.Fatalf("key of %q is the untagged digest of its bytes", src)
		}
	}
}

// TestSourceKeyAllocsFlat: the value is hashed where it lies, so the
// allocation count does not grow with it.
func TestSourceKeyAllocsFlat(t *testing.T) {
	small := []byte(`"any -> accept\n"`)
	large, _ := json.Marshal(rule.FormatPolicy(synth.RealLife(661, 1)))
	a := testing.AllocsPerRun(20, func() { SourceKey("five", small) })
	b := testing.AllocsPerRun(20, func() { SourceKey("five", large) })
	if a != b || b > 2 {
		t.Fatalf("SourceKey allocates %v for %d bytes and %v for %d bytes, want the same, at most 2", a, len(small), b, len(large))
	}
}

// textKey is the key of a native text carried as a bare JSON string.
func textKey(schema, text string) string {
	raw, _ := json.Marshal(text)
	return SourceKey(schema, raw)
}

// TestHashSpanAllocatesNothingUntraced: hashPolicy without a trace
// allocates what PolicyHash does.
func TestHashSpanAllocatesNothingUntraced(t *testing.T) {
	p := synth.RealLife(120, 1)
	ctx := context.Background()
	spanned := testing.AllocsPerRun(20, func() { hashPolicy(ctx, p) })
	bare := testing.AllocsPerRun(20, func() { PolicyHash(p) })
	if spanned != bare {
		t.Fatalf("hashPolicy makes %v allocations, PolicyHash %v", spanned, bare)
	}
}

// TestDiffSourcesNeedsAliasAndCompilations: DiffSources answers only when
// both aliases and both compilations are resident, and otherwise counts
// no compile-cache lookup; once they are, it answers the pair's report
// without compiling.
func TestDiffSourcesNeedsAliasAndCompilations(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	e := New(Config{})
	pa, pb := mustPolicy(t, teamA), mustPolicy(t, teamB)
	ka, kb := textKey("paper", teamA), textKey("paper", teamB)
	if _, ok, err := e.DiffSources(ctx, ka, kb); ok || err != nil {
		t.Fatalf("DiffSources with no alias: ok %v, err %v", ok, err)
	}
	d, err := e.DiffPair(ctx, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	e.AliasSource(ka, d.A)
	if _, ok, _ := e.DiffSources(ctx, ka, kb); ok {
		t.Fatal("DiffSources answered with one alias missing")
	}
	e.AliasSource(kb, d.B)

	// Overcharge A's compilation so the cache evicts it: the aliases
	// hold, the diagrams do not.
	e.compiled.lru.recharge(d.A.Hash, d.A, e.compiled.lru.maxBytes+1)
	before := e.Stats()
	if _, ok, _ := e.DiffSources(ctx, ka, kb); ok {
		t.Fatal("DiffSources answered with a compilation evicted")
	}
	if after := e.Stats(); after.Compile.Hits != before.Compile.Hits || after.Compile.Misses != before.Compile.Misses {
		t.Fatalf("a declined DiffSources counted compile lookups: %+v then %+v", before.Compile, after.Compile)
	}
	d, err = e.DiffPair(ctx, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	compilations := e.Stats().Compilations
	got, ok, err := e.DiffSources(ctx, ka, kb)
	if !ok || err != nil {
		t.Fatalf("DiffSources with both resident: ok %v, err %v", ok, err)
	}
	if got.Report != d.Report || got.A != d.A || got.B != d.B || !got.Stats.ReportCached || got.Stats.CompileHits != 2 {
		t.Fatalf("DiffSources = %+v, want the pair's cached report and compilations", got)
	}
	if e.Stats().Compilations != compilations {
		t.Fatal("DiffSources compiled")
	}
}

// TestAliasAndBodyCharges: an alias is charged to the compile cache's
// bytes and a kept body to its report's, the body is encoded once, and
// one report's body leaves the cache with it.
func TestAliasAndBodyCharges(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	e := New(Config{})
	d, err := e.DiffPair(ctx, mustPolicy(t, teamA), mustPolicy(t, teamB))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	e.AliasSource(textKey("paper", teamA), d.A)
	if got := e.Stats().Compile.Bytes - st.Compile.Bytes; got != aliasCost {
		t.Fatalf("an alias added %d compile bytes, want %d", got, aliasCost)
	}
	if e.Stats().Compile.Entries != st.Compile.Entries {
		t.Fatal("an alias counted as a compilation")
	}
	encodes := 0
	body := []byte(strings.Repeat("x", 1000))
	encode := func() []byte { encodes++; return body }
	for range 3 {
		if got := e.EncodedReport(d, encode); string(got) != string(body) {
			t.Fatalf("EncodedReport = %q", got)
		}
	}
	if encodes != 1 {
		t.Fatalf("the body was encoded %d times, want once", encodes)
	}
	if got := e.Stats().Reports.Bytes - st.Reports.Bytes; got != encodedCost+int64(len(body)) {
		t.Fatalf("a kept body added %d report bytes, want %d", got, encodedCost+len(body))
	}
	// A second diff of the pair finds the same entry and its body.
	d2, err := e.DiffPair(ctx, d.A.Policy, d.B.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.EncodedReport(d2, encode); encodes != 1 || string(got) != string(body) {
		t.Fatal("a report-cache hit encoded its report again")
	}
}

// TestCachesStayWithinBudgets: under small budgets, with aliases and kept
// bodies on every diff, the compile cache and its alias together, and the
// report cache with its bodies, never exceed what was configured.
func TestCachesStayWithinBudgets(t *testing.T) {
	t.Parallel()
	const compileBytes, reportBytes = 256 << 10, 16 << 10
	ctx := context.Background()
	e := New(Config{CompileCacheBytes: compileBytes, ReportCacheBytes: reportBytes})
	base := synth.RealLife(120, 1)
	var prev *rule.Policy = base
	for i := range 40 {
		q, _ := synth.Perturb(base, 10, int64(i+1))
		d, err := e.DiffPair(ctx, prev, q)
		if err != nil {
			t.Fatal(err)
		}
		e.AliasSource(textKey("five", fmt.Sprint("a", i)), d.A)
		e.AliasSource(textKey("five", fmt.Sprint("b", i)), d.B)
		e.EncodedReport(d, func() []byte { return make([]byte, 2000+100*i) })
		st := e.Stats()
		if st.Compile.Bytes > compileBytes || st.Reports.Bytes > reportBytes {
			t.Fatalf("diff %d: compile %d of %d bytes, reports %d of %d", i, st.Compile.Bytes, compileBytes, st.Reports.Bytes, reportBytes)
		}
		if alias := e.sources.stats().Bytes; alias > compileBytes/sourceAliasShare {
			t.Fatalf("diff %d: the alias holds %d bytes, its share is %d", i, alias, compileBytes/sourceAliasShare)
		}
		prev = q
	}
	st := e.Stats()
	if st.Compile.Evictions == 0 || st.Reports.Evictions == 0 || e.sources.stats().Evictions == 0 {
		t.Fatalf("budgets never bound: compile %+v, reports %+v, alias %+v", st.Compile, st.Reports, e.sources.stats())
	}
}
