package fdd

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diversefw/internal/guard"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// countdownCtx reports cancellation from its n-th Err call on. The
// build polls Err once per appended rule, so it cancels a build after
// a chosen number of rules, between two appends that have written memo
// slots.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// flipRule returns p with rule i's decision flipped.
func flipRule(t *testing.T, p *rule.Policy, i int) *rule.Policy {
	t.Helper()
	r := p.Rules[i]
	r.Decision = flip(r.Decision)
	out, err := p.ReplaceRule(i, r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAbortedResumeLeavesFamilyClean aborts Resumes of one family
// mid-build, by a tiny budget, by a budget that trips after a few
// promotions, and by cancellation between appends, and checks after
// every build (aborted or not) that the family store is still
// indexed and that no overlay or scratch frame is left open. A later
// Resume of a different edit must then match scratch construction, and
// resuming that edit again must return the very same root.
func TestAbortedResumeLeavesFamilyClean(t *testing.T) {
	p := synth.RealLife(300, 4)
	base, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	family := base.core.st
	assertStoreIndexed(t, family)
	// Flip effective rules near the head, so every edit changes the
	// diagram and its Resume rebuilds from the first rule.
	var heads []int
	for i := 1; len(heads) < 4; i++ {
		if base.Effective()[i] {
			heads = append(heads, i)
		}
	}

	aborts := []struct {
		name string
		edit int // the rule whose decision the aborted Resume flips
		ctx  context.Context
		want error
		// promoted: the abort must come after the build promoted a
		// checkpoint into the family.
		promoted bool
	}{
		{"tiny budget", heads[0], guard.WithBudget(context.Background(),
			guard.NewBudget(guard.Limits{MaxFDDNodes: 1})), guard.ErrBudget, false},
		{"budget after promotions", heads[1], guard.WithBudget(context.Background(),
			guard.NewBudget(guard.Limits{MaxFDDNodes: 6000})), guard.ErrBudget, true},
		{"cancellation", heads[2], &countdownCtx{Context: context.Background(), n: 70}, context.Canceled, true},
	}
	for _, a := range aborts {
		before := family.NumNodes()
		if _, _, err := base.Resume(a.ctx, flipRule(t, p, a.edit)); !errors.Is(err, a.want) {
			t.Fatalf("%s: Resume returned %v, want %v", a.name, err, a.want)
		}
		if a.promoted && family.NumNodes() == before {
			t.Fatalf("%s: the build aborted before its first promotion", a.name)
		}
		assertStoreIndexed(t, family)
	}

	// A fresh edit, then one whose build was aborted after promoting.
	for _, after := range []*rule.Policy{flipRule(t, p, heads[3]), flipRule(t, p, heads[2])} {
		nb, _, err := base.Resume(context.Background(), after)
		if err != nil {
			t.Fatal(err)
		}
		assertStoreIndexed(t, family)
		scratch, err := NewBuilder(after)
		if err != nil {
			t.Fatal(err)
		}
		stored := family.NumNodes()
		if family.ReduceNode(after.Schema, scratch.FDD().Root) != nb.root {
			t.Fatal("resume after aborted builds differs from scratch construction")
		}
		if family.NumNodes() != stored {
			t.Fatal("the scratch diagram holds nodes the resumed one lacks")
		}
		if !reflect.DeepEqual(nb.Effective(), scratch.Effective()) {
			t.Fatal("resume after aborted builds has different effective bits")
		}
		again, _, err := base.Resume(context.Background(), after)
		if err != nil {
			t.Fatal(err)
		}
		if again.FDD().Root != nb.FDD().Root {
			t.Fatal("resuming the same edit twice returned different roots")
		}
		assertStoreIndexed(t, family)
	}
}

// TestBudgetChargesLastAppend pins that construction charges the
// append of its last rule. A lone catch-all charges exactly one unit,
// its terminal. The paper's two firewalls charge 51 units between them
// (deterministic: one per append subproblem visited that some packet
// without a first match reaches, plus one per node created); a build
// that charged only before each append, never after the last, would
// charge 35 for the pair (what the pair without its last rules charges)
// and nothing for the lone rule.
func TestBudgetChargesLastAppend(t *testing.T) {
	charged := func(p *rule.Policy) int64 {
		t.Helper()
		b := guard.NewBudget(guard.Limits{})
		if _, err := ConstructContext(guard.WithBudget(context.Background(), b), p); err != nil {
			t.Fatal(err)
		}
		return b.Usage().Nodes
	}
	schema := paper.TeamA().Schema
	lone, err := rule.NewPolicy(schema, []rule.Rule{rule.CatchAll(schema, rule.Accept)})
	if err != nil {
		t.Fatal(err)
	}
	if got := charged(lone); got != 1 {
		t.Fatalf("a lone catch-all charged %d units, want 1", got)
	}
	if got := charged(paper.TeamA()) + charged(paper.TeamB()); got != 51 {
		t.Fatalf("the paper pair charged %d units, want 51", got)
	}
}
