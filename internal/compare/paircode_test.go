package compare

import (
	"context"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// TestPairCodeRange: a decision too large for the pair encoding is
// rejected, with one error text, by the product walk behind Diff and by
// the paper's shape-then-lockstep stages, whichever side holds it and
// whether the diagram is a lone terminal or branches first.
func TestPairCodeRange(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 99), Kind: field.KindInt},
	)
	huge := rule.Decision(1 << 20)
	const want = "compare: decision 1048576 exceeds the supported range (< 1048576)"
	accept := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	oversized := map[string]*rule.Policy{
		"terminal": rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, huge)}),
		"branching": rule.MustPolicy(s, []rule.Rule{
			{Pred: rule.Predicate{interval.SetOf(0, 49)}, Decision: huge},
			rule.CatchAll(s, rule.Accept),
		}),
	}
	for name, p := range oversized {
		for _, pair := range [][2]*rule.Policy{{p, accept}, {accept, p}} {
			if _, err := Diff(pair[0], pair[1]); err == nil || err.Error() != want {
				t.Errorf("%s: Diff error = %v, want %q", name, err, want)
			}
			fa, err := fdd.Construct(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			fb, err := fdd.Construct(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CompareSemiIsomorphicContext(context.Background(), sa, sb); err == nil || err.Error() != want {
				t.Errorf("%s: lockstep error = %v, want %q", name, err, want)
			}
		}
	}
}
