package redundancy

import (
	"context"
	"errors"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

func schema1() *field.Schema {
	return field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 99), Kind: field.KindInt})
}

func mk(t *testing.T, s *field.Schema, rules []rule.Rule) *rule.Policy {
	t.Helper()
	p, err := rule.NewPolicy(s, rules)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// build constructs p's builder, the input RemoveAll reads.
func build(t *testing.T, p *rule.Policy) *fdd.Builder {
	t.Helper()
	b, err := fdd.NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEffectiveDetectsShadowedRules(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard}, // fully shadowed
		rule.CatchAll(s, rule.Discard),
	})
	eff := build(t, p).Effective()
	want := []bool{true, false, true}
	for i := range want {
		if eff[i] != want[i] {
			t.Errorf("effective[%d] = %v, want %v", i, eff[i], want[i])
		}
	}
}

func TestIsRedundantUpward(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Discard),
	})
	red, err := IsRedundant(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !red {
		t.Fatal("shadowed rule should be redundant")
	}
}

func TestIsRedundantDownward(t *testing.T) {
	t.Parallel()
	s := schema1()
	// Rule 0 is a first match for [0,20], but the catch-all gives those
	// packets the same decision: downward redundant.
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Accept},
		rule.CatchAll(s, rule.Accept),
	})
	red, err := IsRedundant(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !red {
		t.Fatal("downward-redundant rule not detected")
	}
}

func TestIsRedundantNecessaryRule(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	red, err := IsRedundant(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if red {
		t.Fatal("necessary rule reported redundant")
	}
	// The catch-all is the sole cover of [21,99]: removing it leaves the
	// policy non-comprehensive, so it is not redundant either.
	red, err = IsRedundant(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if red {
		t.Fatal("sole-cover catch-all reported redundant")
	}
}

func TestIsRedundantIndexRange(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if _, err := IsRedundant(p, -1); err == nil {
		t.Fatal("negative index should fail")
	}
	if _, err := IsRedundant(p, 1); err == nil {
		t.Fatal("out-of-range index should fail")
	}
}

func TestRemoveAllIdenticalRules(t *testing.T) {
	t.Parallel()
	s := schema1()
	dup := rule.Rule{Pred: rule.Predicate{interval.SetOf(0, 20)}, Decision: rule.Discard}
	p := mk(t, s, []rule.Rule{dup, dup, rule.CatchAll(s, rule.Accept)})
	out, removed, err := RemoveAll(context.Background(), build(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("got %d rules, want 2 (one duplicate removed):\n%s", out.Size(), rule.FormatPolicy(out))
	}
	if len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("removed = %v, want [1]", removed)
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
}

func TestRemoveAllMixedRedundancy(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard}, // upward redundant
		{Pred: rule.Predicate{interval.SetOf(60, 70)}, Decision: rule.Accept},  // downward redundant
		rule.CatchAll(s, rule.Accept),
	})
	out, removed, err := RemoveAll(context.Background(), build(t, p))
	if err != nil {
		t.Fatal(err)
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
	// Rules 1 and 2 must go; rule 0 then becomes downward redundant too
	// (everything left accepts), leaving just the catch-all.
	if out.Size() != 1 {
		t.Fatalf("got %d rules, want 1:\n%s", out.Size(), rule.FormatPolicy(out))
	}
	if len(removed) != 3 {
		t.Fatalf("removed = %v, want 3 removals", removed)
	}
}

func TestRemoveAllNoRedundancy(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	out, removed, err := RemoveAll(context.Background(), build(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || out.Size() != p.Size() {
		t.Fatalf("Team B has no redundant rules; removed %v", removed)
	}
}

func TestRemoveAllResultIsIrredundant(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 30)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(0, 60)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(40, 80)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	out, _, err := RemoveAll(context.Background(), build(t, p))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Size(); i++ {
		red, err := IsRedundant(out, i)
		if err != nil {
			t.Fatal(err)
		}
		if red {
			t.Fatalf("rule %d still redundant after RemoveAll:\n%s", i, rule.FormatPolicy(out))
		}
	}
	eq, err := compare.Equivalent(p, out)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("RemoveAll changed semantics")
	}
}

// TestRemoveAllCancelAndSpan: RemoveAll stops once ctx is done, and a
// traced removal is one "redundancy" span with its counts, holding the
// no child spans: the upward pass reads the builder, and candidates are
// not traced.
func TestRemoveAllCancelAndSpan(t *testing.T) {
	t.Parallel()
	s := schema1()
	p := mk(t, s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 50)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(10, 20)}, Decision: rule.Discard}, // upward redundant
		{Pred: rule.Predicate{interval.SetOf(60, 70)}, Decision: rule.Accept},  // downward redundant
		rule.CatchAll(s, rule.Accept),
	})
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if out, _, err := RemoveAll(dead, build(t, p)); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled removal: policy %v, err %v; want none and context.Canceled", out, err)
	}

	b := build(t, p)
	ctx, tr := trace.New(context.Background(), "test", "")
	if _, _, err := RemoveAll(ctx, b); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.Snapshot().Root
	if len(root.Children) != 1 || root.Children[0].Name != "redundancy" {
		t.Fatalf("want one redundancy span, got %+v", root.Children)
	}
	sp := root.Children[0]
	if len(sp.Children) != 0 {
		t.Fatalf("redundancy span children = %+v, want none", sp.Children)
	}
	// Rule 1 goes in the upward pass; rules 2 and 0 are each checked and
	// removed, and the fixpoint's last pass checks nothing new.
	if sp.Attrs["removed"] != 3 || sp.Attrs["checked"] != 2 {
		t.Fatalf("redundancy span attrs = %v, want removed 3, checked 2", sp.Attrs)
	}
}
