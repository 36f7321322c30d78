package shape

import (
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// TestPaperFigures8And9 reproduces the paper's node-shaping illustration:
// two shapable nodes labeled F1 whose outgoing edges cut [1,100] at
// different points become semi-isomorphic with the common refinement of
// both cuts (Figs. 8 and 9 use cuts {[1,50],[51,100]} and
// {[1,30],[31,100]}, refining to {[1,30],[31,50],[51,100]}).
func TestPaperFigures8And9(t *testing.T) {
	t.Parallel()
	// Domain [0,100]; the figure's range [1,100] is embedded by giving 0
	// its own edge on both sides so the interesting cuts match the paper.
	s := field.MustSchema(
		field.Field{Name: "F1", Domain: interval.MustNew(0, 100), Kind: field.KindInt},
	)
	mk := func(cut uint64, dLow, dHigh rule.Decision) *fdd.FDD {
		return &fdd.FDD{Schema: s, Root: &fdd.Node{Field: 0, Edges: []fdd.Edge{
			{Label: interval.SetOf(0, 0), To: fdd.Terminal(rule.Discard)},
			{Label: interval.SetOf(1, cut), To: fdd.Terminal(dLow)},
			{Label: interval.SetOf(cut+1, 100), To: fdd.Terminal(dHigh)},
		}}}
	}
	fa := mk(50, rule.Accept, rule.Discard)
	fb := mk(30, rule.Discard, rule.Accept)
	if err := fa.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	sa, sb, err := MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("not semi-isomorphic")
	}

	// The shaped roots carry the common refinement.
	wantCuts := []interval.Interval{
		interval.MustNew(0, 0),
		interval.MustNew(1, 30),
		interval.MustNew(31, 50),
		interval.MustNew(51, 100),
	}
	for name, f := range map[string]*fdd.FDD{"fa": sa, "fb": sb} {
		if len(f.Root.Edges) != len(wantCuts) {
			t.Fatalf("%s has %d edges, want %d", name, len(f.Root.Edges), len(wantCuts))
		}
		for i, e := range f.Root.Edges {
			if !e.Label.Equal(interval.SetFromInterval(wantCuts[i])) {
				t.Fatalf("%s edge %d = %v, want %v", name, i, e.Label, wantCuts[i])
			}
		}
	}

	// Semantics preserved on every value.
	for v := uint64(0); v <= 100; v++ {
		wantA, _ := fa.Decide(rule.Packet{v})
		gotA, _ := sa.Decide(rule.Packet{v})
		if gotA != wantA {
			t.Fatalf("fa changed at %d", v)
		}
		wantB, _ := fb.Decide(rule.Packet{v})
		gotB, _ := sb.Decide(rule.Packet{v})
		if gotB != wantB {
			t.Fatalf("fb changed at %d", v)
		}
	}
}

// TestNodeInsertionOperationPreservesSemantics checks the paper's first
// basic operation in isolation: inserting a full-domain node above a
// subtree (done implicitly when shaping diagrams of different depth)
// leaves every decision unchanged.
func TestNodeInsertionOperationPreservesSemantics(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
	)
	// fa tests only y (x is implicit); fb tests x then y: shaping must
	// insert an x node above fa's root.
	fa := &fdd.FDD{Schema: s, Root: &fdd.Node{Field: 1, Edges: []fdd.Edge{
		{Label: interval.SetOf(0, 4), To: fdd.Terminal(rule.Accept)},
		{Label: interval.SetOf(5, 9), To: fdd.Terminal(rule.Discard)},
	}}}
	fb := &fdd.FDD{Schema: s, Root: &fdd.Node{Field: 0, Edges: []fdd.Edge{
		{Label: interval.SetOf(0, 9), To: &fdd.Node{Field: 1, Edges: []fdd.Edge{
			{Label: interval.SetOf(0, 9), To: fdd.Terminal(rule.Discard)},
		}}},
	}}}

	sa, sb, err := MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("not semi-isomorphic")
	}
	if sa.Root.Field != 0 {
		t.Fatalf("inserted root should test x, got field %d", sa.Root.Field)
	}
	for x := uint64(0); x <= 9; x++ {
		for y := uint64(0); y <= 9; y++ {
			want, _ := fa.Decide(rule.Packet{x, y})
			got, _ := sa.Decide(rule.Packet{x, y})
			if got != want {
				t.Fatalf("insertion changed (%d,%d)", x, y)
			}
		}
	}
}
