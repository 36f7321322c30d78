package frontend

import (
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// nativeAllocs is the allocation count of one native parse of text.
func nativeAllocs(t *testing.T, schema *field.Schema, text string) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		if _, err := Parse("native", schema, text, Options{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNativeParseAllocsFlat pins that a native parse allocates per
// policy, not per rule or per token: the lexer writes every interval and
// predicate into one arena, so ten times the rules costs no more
// allocations.
func TestNativeParseAllocsFlat(t *testing.T) {
	schema := field.IPv4FiveTuple()
	small := nativeAllocs(t, schema, rule.FormatPolicy(synth.RealLife(66, 1)))
	large := nativeAllocs(t, schema, rule.FormatPolicy(synth.RealLife(661, 1)))
	if small != large || large > 8 {
		t.Fatalf("native parse allocations: %v at 66 rules, %v at 661; want equal and at most 8", small, large)
	}
}

// BenchmarkParseNative parses a 661-rule policy, the size of the paper's
// larger real-life subject, through the native frontend.
func BenchmarkParseNative(b *testing.B) {
	schema := field.IPv4FiveTuple()
	text := rule.FormatPolicy(synth.RealLife(661, 1))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse("native", schema, text, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
