package compose

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// combineFDDReference is CombineFDD as it was before composition ran on
// compare.Product, kept verbatim as the reference Combine is pinned to:
// it shapes the two FDDs semi-isomorphic, combines companion terminals,
// and reduces.
//
// CombineFDD is Combine but returns the combined decision diagram, for
// callers that keep composing (e.g. multi-hop paths).
func combineFDDReference(p1, p2 *rule.Policy, combiner Combiner) (*fdd.FDD, error) {
	if !p1.Schema.Equal(p2.Schema) {
		return nil, fmt.Errorf("compose: schemas differ")
	}
	if combiner == nil {
		return nil, fmt.Errorf("compose: nil combiner")
	}
	f1, err := fdd.Construct(p1)
	if err != nil {
		return nil, err
	}
	f2, err := fdd.Construct(p2)
	if err != nil {
		return nil, err
	}
	s1, s2, err := shape.MakeSemiIsomorphic(f1, f2)
	if err != nil {
		return nil, err
	}
	var walk func(a, b *fdd.Node) *fdd.Node
	walk = func(a, b *fdd.Node) *fdd.Node {
		if a.IsTerminal() {
			return fdd.Terminal(combiner(a.Decision, b.Decision))
		}
		out := &fdd.Node{Field: a.Field, Edges: make([]fdd.Edge, len(a.Edges))}
		for i := range a.Edges {
			out.Edges[i] = fdd.Edge{Label: a.Edges[i].Label, To: walk(a.Edges[i].To, b.Edges[i].To)}
		}
		return out
	}
	return (&fdd.FDD{Schema: p1.Schema, Root: walk(s1.Root, s2.Root)}).Reduce(), nil
}

// TestCombineMatchesReference pins composition on the product walk to
// the shape-and-zip composition it replaced: the combined diagrams
// enumerate the same rules, and Combine returns exactly what generating
// from the reference diagram does.
func TestCombineMatchesReference(t *testing.T) {
	t.Parallel()
	combiners := map[string]Combiner{
		"serial": SerialDecisions,
		// Keeps both decisions, so no two input pairs collapse.
		"pair": func(d1, d2 rule.Decision) rule.Decision { return d1<<4 | d2 },
	}
	type pair struct{ p1, p2 *rule.Policy }
	pairs := map[string]pair{}
	for s := int64(0); s < 4; s++ {
		base := synth.RealLife(150, 60+s)
		edit, _ := synth.Perturb(base, 15, 70+s)
		pairs[fmt.Sprintf("reallife150/%d", s)] = pair{base, edit}
		pairs[fmt.Sprintf("synthetic100/%d", s)] = pair{
			synth.Synthetic(synth.Config{Rules: 100, Seed: 80 + 2*s}),
			synth.Synthetic(synth.Config{Rules: 100, Seed: 81 + 2*s}),
		}
	}
	for name, pr := range pairs {
		for cname, c := range combiners {
			want, err := combineFDDReference(pr.p1, pr.p2, c)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, cname, err)
			}
			f1, err := fdd.Construct(pr.p1)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := fdd.Construct(pr.p2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compare.Product(context.Background(), f1, f2, c)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cname, err)
			}
			if !reflect.DeepEqual(got.Rules(), want.Rules()) {
				t.Errorf("%s/%s: product rules differ from the reference (%d vs %d)",
					name, cname, len(got.Rules()), len(want.Rules()))
			}
			gotPolicy, err := Combine(pr.p1, pr.p2, c)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cname, err)
			}
			wantPolicy, err := gen.Generate(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotPolicy.Rules, wantPolicy.Rules) {
				t.Errorf("%s/%s: generated policy differs from the reference (%d vs %d rules)",
					name, cname, gotPolicy.Size(), wantPolicy.Size())
			}
		}
	}
}
