package engine

import (
	"os"
	"path/filepath"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestPolicyHashSchemaKind pins that the schema part of the address
// covers every member Schema.Equal compares: two schemas that differ
// only in a field's kind render the same Schema.String, yet they are
// different schemas and must not share an address.
func TestPolicyHashSchemaKind(t *testing.T) {
	t.Parallel()
	dom := interval.MustNew(0, 1<<16-1)
	asPort := field.MustSchema(field.Field{Name: "n", Domain: dom, Kind: field.KindPort})
	asInt := field.MustSchema(field.Field{Name: "n", Domain: dom, Kind: field.KindInt})
	if asPort.Equal(asInt) || asPort.String() != asInt.String() {
		t.Fatalf("fixture: want unequal schemas with one rendering, got %v / %v", asPort, asInt)
	}
	const text = "n in 25 -> accept\nany -> discard\n"
	pPort, err := rule.ParsePolicyString(asPort, text)
	if err != nil {
		t.Fatal(err)
	}
	pInt, err := rule.ParsePolicyString(asInt, text)
	if err != nil {
		t.Fatal(err)
	}
	if rule.FormatPolicy(pPort) != rule.FormatPolicy(pInt) {
		t.Fatalf("fixture: want one rule rendering for both schemas")
	}
	if PolicyHash(pPort) == PolicyHash(pInt) {
		t.Fatal("schemas differing only in Kind share a content address")
	}
}

// TestPolicyHashPartition checks that hashing the IR partitions policies
// exactly as the canonical text does: within one schema, two policies
// share an address iff rule.FormatPolicy renders them identically. The
// corpus covers every frontend format, the native re-parse of each
// lowered policy, RealLife/Perturb pairs and Adversarial policies.
func TestPolicyHashPartition(t *testing.T) {
	t.Parallel()
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var pols []*rule.Policy
	parse := func(format string, schema *field.Schema, text string) *rule.Policy {
		t.Helper()
		p, err := frontend.Parse(format, schema, text, frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		pols = append(pols, p)
		return p
	}
	// Each lowered policy and its native round trip: two objects, one IR.
	withRoundTrip := func(format string, schema *field.Schema, text string) {
		p := parse(format, schema, text)
		parse("native", schema, rule.FormatPolicy(p))
	}

	five := field.IPv4FiveTuple()
	corpus := filepath.Join("..", "..", "testdata", "frontends")
	withRoundTrip("iptables", five, read(filepath.Join(corpus, "web-dmz.rules")))
	withRoundTrip("nftables", five, read(filepath.Join(corpus, "home-router.nft")))
	withRoundTrip("secgroup", five, read(filepath.Join(corpus, "web-sg.json")))
	paper := field.PaperExample()
	for _, name := range []string{"teamA.fw", "teamB.fw"} {
		withRoundTrip("native", paper, read(filepath.Join("..", "..", "testdata", "paper", name)))
	}

	for seed := int64(1); seed <= 3; seed++ {
		base := synth.RealLife(120, seed)
		pols = append(pols, base)
		withRoundTrip("native", base.Schema, rule.FormatPolicy(base))
		for _, x := range []float64{0, 1, 5, 50} {
			q, _ := synth.Perturb(base, x, seed*10+int64(x))
			pols = append(pols, q)
		}
	}
	for _, n := range []int{2, 3, 12, 40} {
		pols = append(pols, synth.Adversarial(n))
	}

	hashes := make([]string, len(pols))
	texts := make([]string, len(pols))
	for i, p := range pols {
		hashes[i], texts[i] = PolicyHash(p), rule.FormatPolicy(p)
	}
	equalPairs := 0
	for i := range pols {
		for j := i + 1; j < len(pols); j++ {
			if !pols[i].Schema.Equal(pols[j].Schema) {
				if hashes[i] == hashes[j] {
					t.Fatalf("policies %d and %d over different schemas share an address", i, j)
				}
				continue
			}
			sameText := texts[i] == texts[j]
			if sameHash := hashes[i] == hashes[j]; sameHash != sameText {
				t.Fatalf("policies %d and %d: equal address %v, equal canonical text %v", i, j, sameHash, sameText)
			}
			if sameText {
				equalPairs++
			}
		}
	}
	// Every round trip and every x=0 perturbation is an equal pair; the
	// check above must have exercised both directions.
	if equalPairs < 10 {
		t.Fatalf("only %d equal-IR pairs exercised", equalPairs)
	}
}

// TestPolicyHashAllocsFlat guards the streaming encoding: the allocation
// count of PolicyHash must not grow with the number of rules.
func TestPolicyHashAllocsFlat(t *testing.T) {
	small, large := synth.RealLife(10, 1), synth.RealLife(661, 1)
	a := testing.AllocsPerRun(20, func() { PolicyHash(small) })
	b := testing.AllocsPerRun(20, func() { PolicyHash(large) })
	if a != b {
		t.Fatalf("PolicyHash allocs: %v for %d rules, %v for %d rules", a, small.Size(), b, large.Size())
	}
}

// BenchmarkPolicyHash times the content address of a real-life-shaped
// 661-rule policy, the size of the paper's larger subject and of the
// served benchmark's bases.
func BenchmarkPolicyHash(b *testing.B) {
	p := synth.RealLife(661, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = PolicyHash(p)
	}
}

// hashSink keeps the benchmarked call from being optimized away.
var hashSink string
