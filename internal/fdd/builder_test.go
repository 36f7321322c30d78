package fdd

import (
	"context"
	"errors"
	"testing"

	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// sameFunction checks graph isomorphism of two reduced FDDs by reducing
// both roots into one fresh store: the reduced ordered form is canonical
// per decision function, so isomorphic diagrams intern to the same node.
func sameFunction(t *testing.T, a, b *FDD) bool {
	t.Helper()
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("schemas differ")
	}
	in := NewStore()
	return in.ReduceNode(a.Schema, a.Root) == in.ReduceNode(b.Schema, b.Root)
}

func TestBuilderMatchesConstruct(t *testing.T) {
	p := synth.Synthetic(synth.Config{Rules: 120, Seed: 7})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	f, eff, err := ConstructEffectiveContext(context.Background(), p)
	if err != nil {
		t.Fatalf("ConstructEffectiveContext: %v", err)
	}
	if !sameFunction(t, b.FDD(), f) {
		t.Fatalf("builder FDD differs from Construct FDD")
	}
	if len(eff) != len(b.Effective()) {
		t.Fatalf("effective length: %d vs %d", len(b.Effective()), len(eff))
	}
	for i := range eff {
		if eff[i] != b.Effective()[i] {
			t.Fatalf("effective[%d]: builder %v, construct %v", i, b.Effective()[i], eff[i])
		}
	}
	if b.NumCheckpoints() == 0 {
		t.Fatalf("no checkpoints recorded for a %d-rule policy", p.Size())
	}
	if err := b.FDD().CheckInvariants(); err != nil {
		t.Fatalf("builder FDD invariants: %v", err)
	}
}

func TestResumeTailEdit(t *testing.T) {
	p := synth.Synthetic(synth.Config{Rules: 200, Seed: 11})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	// Flip a rule near the tail: the resume should reuse a deep
	// checkpoint and re-append only the suffix.
	i := p.Size() - 3
	r := p.Rules[i]
	r.Decision = flip(r.Decision)
	after, err := p.ReplaceRule(i, r)
	if err != nil {
		t.Fatalf("ReplaceRule: %v", err)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st.CheckpointRules == 0 {
		t.Fatalf("tail edit found no checkpoint (stats %+v)", st)
	}
	if st.RulesReappended >= p.Size()/2 {
		t.Fatalf("tail edit reappended %d of %d rules", st.RulesReappended, p.Size())
	}
	scratch, err := Construct(after)
	if err != nil {
		t.Fatalf("Construct(after): %v", err)
	}
	if !sameFunction(t, nb.FDD(), scratch) {
		t.Fatalf("resumed FDD differs from scratch construction")
	}
	if err := nb.FDD().CheckInvariants(); err != nil {
		t.Fatalf("resumed FDD invariants: %v", err)
	}
}

func TestResumeHeadEditRebuildsFromZero(t *testing.T) {
	p := synth.Synthetic(synth.Config{Rules: 100, Seed: 13})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	r := p.Rules[0]
	r.Decision = flip(r.Decision)
	after, err := p.ReplaceRule(0, r)
	if err != nil {
		t.Fatalf("ReplaceRule: %v", err)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st.CheckpointRules != 0 || st.RulesReappended != after.Size() {
		t.Fatalf("head edit should rebuild everything, got %+v", st)
	}
	scratch, err := Construct(after)
	if err != nil {
		t.Fatalf("Construct(after): %v", err)
	}
	if !sameFunction(t, nb.FDD(), scratch) {
		t.Fatalf("head-edit resume differs from scratch construction")
	}
}

func TestResumeChain(t *testing.T) {
	// Resumed builders are themselves resumable; walk a chain of edits
	// and check each link against scratch.
	p := synth.Synthetic(synth.Config{Rules: 150, Seed: 17})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	cur := p
	for step := 0; step < 4; step++ {
		i := cur.Size() - 2 - step
		r := cur.Rules[i]
		r.Decision = flip(r.Decision)
		next, err := cur.ReplaceRule(i, r)
		if err != nil {
			t.Fatalf("step %d ReplaceRule: %v", step, err)
		}
		nb, _, err := b.Resume(context.Background(), next)
		if err != nil {
			t.Fatalf("step %d Resume: %v", step, err)
		}
		scratch, err := Construct(next)
		if err != nil {
			t.Fatalf("step %d Construct: %v", step, err)
		}
		if !sameFunction(t, nb.FDD(), scratch) {
			t.Fatalf("step %d: resumed FDD differs from scratch", step)
		}
		b, cur = nb, next
	}
}

func TestResumeSharesSubgraphs(t *testing.T) {
	// The point of resuming in the shared store: the base and resumed
	// FDDs must share untouched subgraphs pointer-identically, which is
	// what the direct diff short-circuits on.
	p := synth.Synthetic(synth.Config{Rules: 200, Seed: 19})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	i := p.Size() - 2
	r := p.Rules[i]
	r.Decision = flip(r.Decision)
	after, err := p.ReplaceRule(i, r)
	if err != nil {
		t.Fatalf("ReplaceRule: %v", err)
	}
	nb, _, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	baseNodes := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if baseNodes[n] {
			return
		}
		baseNodes[n] = true
		for _, e := range n.Edges {
			walk(e.To)
		}
	}
	walk(b.FDD().Root)
	shared := 0
	seen := make(map[*Node]bool)
	var walk2 func(n *Node)
	walk2 = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if baseNodes[n] {
			shared++
		}
		for _, e := range n.Edges {
			walk2(e.To)
		}
	}
	walk2(nb.FDD().Root)
	if shared == 0 {
		t.Fatalf("tail-edit resume shares no nodes with the base FDD (%d base, %d resumed)",
			len(baseNodes), len(seen))
	}
}

func TestResumeErrors(t *testing.T) {
	p := synth.Synthetic(synth.Config{Rules: 50, Seed: 23})
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	if _, _, err := b.Resume(context.Background(), &rule.Policy{Schema: p.Schema}); err == nil {
		t.Fatalf("Resume accepted an empty policy")
	}
	// Dropping the catch-all makes the suffix non-comprehensive: resume
	// must fail with ErrIncomplete exactly like scratch construction.
	trunc, err := p.DeleteRule(p.Size() - 1)
	if err != nil {
		t.Fatalf("DeleteRule: %v", err)
	}
	if _, serr := Construct(trunc); serr == nil {
		t.Skip("truncated synthetic policy happens to stay comprehensive")
	}
	if _, _, err := b.Resume(context.Background(), trunc); err == nil {
		t.Fatalf("Resume built an FDD for a non-comprehensive policy")
	}
	// Canceled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	head := p.Rules[0]
	head.Decision = flip(head.Decision)
	after, err := p.ReplaceRule(0, head)
	if err != nil {
		t.Fatalf("ReplaceRule: %v", err)
	}
	if _, _, err := b.Resume(ctx, after); err == nil {
		t.Fatalf("Resume ignored a canceled context")
	}
}

func TestCheckpointThinning(t *testing.T) {
	cps := []checkpoint{}
	for i := 0; i < 500; i++ {
		cps = appendCheckpoint(cps, checkpoint{rules: i*checkpointEvery + 1})
	}
	if len(cps) > maxCheckpoints {
		t.Fatalf("thinning failed: %d checkpoints, cap %d", len(cps), maxCheckpoints)
	}
	// Monotone and the deepest entry survives every thinning round.
	last := -1
	for _, cp := range cps {
		if cp.rules <= last {
			t.Fatalf("checkpoints not strictly increasing: %d after %d", cp.rules, last)
		}
		last = cp.rules
	}
	if last != 499*checkpointEvery+1 {
		t.Fatalf("deepest checkpoint lost: last is %d", last)
	}
}

func flip(d rule.Decision) rule.Decision {
	if d == rule.Accept {
		return rule.Discard
	}
	return rule.Accept
}

// TestIncompleteErrorText pins the completeness check's message: it
// names the first uncovered node's field, the canonical union of its
// edge labels (here gathered from three edges, two of them touching)
// and the field's domain.
func TestIncompleteErrorText(t *testing.T) {
	schema := quickSchema()
	full := schema.FullSet(0)
	mk := func(b interval.Set, d rule.Decision) rule.Rule {
		return rule.Rule{Pred: rule.Predicate{full, b, full}, Decision: d}
	}
	p := &rule.Policy{Schema: schema, Rules: []rule.Rule{
		mk(interval.SetOf(8, 9), rule.Accept),
		mk(interval.SetOf(10, 20), rule.Discard),
		mk(interval.SetOf(30, 31), rule.Accept),
	}}
	_, err := NewBuilder(p)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("NewBuilder: %v, want ErrIncomplete", err)
	}
	const want = "fdd: policy is not comprehensive: node labeled b covers only {[8, 20], [30, 31]} of [0, 63]"
	if err.Error() != want {
		t.Fatalf("error text:\n got %q\nwant %q", err.Error(), want)
	}
}
