package synth

import (
	"context"
	"errors"
	"slices"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/rule"
)

// Measured construction work for Adversarial(n), in budget-charged units
// (one per undecided append subproblem visited plus one per node created;
// deterministic — the generator takes no seed), with the reduced FDD's
// node count alongside:
//
//	n=8  -> 809 (108)        n=16 -> ~8.5e3 (843)     n=24 -> ~3.6e4 (2,762)
//	n=32 -> ~8.4e4 (5,637)   n=40 -> ~1.7e5 (9,579)   n=48 -> ~2.8e5 (14,573)
//
// Construction interns every node as it appends, so its work tracks the
// size of the reduced diagram, which grows roughly as n³ here. These
// tests pin that behavior so a generator change that accidentally tames
// (or explodes) the workload fails loudly.

func TestAdversarialIsDeterministic(t *testing.T) {
	t.Parallel()
	a, b := Adversarial(8), Adversarial(8)
	if rule.FormatPolicy(a) != rule.FormatPolicy(b) {
		t.Fatal("Adversarial must be deterministic in n")
	}
	if a.Size() != 8 {
		t.Fatalf("Size = %d, want 8", a.Size())
	}
}

func TestAdversarialCompletesUnderGenerousBudget(t *testing.T) {
	t.Parallel()
	b := guard.NewBudget(guard.Limits{MaxFDDNodes: 1 << 20})
	ctx := guard.WithBudget(context.Background(), b)
	f, err := fdd.ConstructContext(ctx, Adversarial(16))
	if err != nil {
		t.Fatalf("n=16 should fit in 1M nodes: %v", err)
	}
	if f == nil {
		t.Fatal("nil FDD")
	}
	// Pin the measured work band: ~8.5k charged nodes at n=16. A factor-4
	// drift either way means the generator stopped producing (or wildly
	// overshoots) its documented workload.
	if u := b.Usage(); u.Nodes < 2_100 || u.Nodes > 33_600 {
		t.Fatalf("n=16 charged %d nodes, expected the ~8.5e3 band", u.Nodes)
	}
	// The reduced diagram itself is large — the property the generator
	// exists for.
	if nodes := f.Stats().Nodes; nodes < 400 {
		t.Fatalf("n=16 reduced FDD has %d nodes, expected ~843", nodes)
	}
}

func TestAdversarialWorkGrowsSuperlinearly(t *testing.T) {
	t.Parallel()
	charged := func(n int) int64 {
		b := guard.NewBudget(guard.Limits{})
		ctx := guard.WithBudget(context.Background(), b)
		if _, err := fdd.ConstructContext(ctx, Adversarial(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return b.Usage().Nodes
	}
	c8, c12 := charged(8), charged(12)
	// 8->12 rules must multiply work by far more than the rule ratio
	// (measured: 809 -> 3,163, a 3.9x jump for 1.5x rules).
	if c12 < 3*c8 {
		t.Fatalf("work should blow up: n=8 charged %d, n=12 charged %d", c8, c12)
	}
}

// TestAdversarialTripsBudgetDeterministically is the regression fixture
// for the budget mechanism itself: Adversarial(48) needs ~2.8e5 nodes,
// so a 50k budget must always trip mid-construction with the typed
// error, and the charge accounting must stop near the limit (bounded
// overshoot — the batched charging may run over by the in-flight
// batches, not by the rest of the construction).
func TestAdversarialTripsBudgetDeterministically(t *testing.T) {
	t.Parallel()
	const limit = 50_000
	b := guard.NewBudget(guard.Limits{MaxFDDNodes: limit})
	ctx := guard.WithBudget(context.Background(), b)
	f, err := fdd.ConstructContext(ctx, Adversarial(48))
	if f != nil {
		t.Fatal("aborted construction must not return a diagram")
	}
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("err = %v, want budget error", err)
	}
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != guard.KindNodes {
		t.Fatalf("want fdd_nodes trip, got %v", err)
	}
	u := b.Usage()
	if u.Nodes <= limit {
		t.Fatalf("charged %d, expected past the %d limit", u.Nodes, limit)
	}
	if u.Nodes > 2*limit {
		t.Fatalf("charged %d nodes against a %d limit: abort is not prompt", u.Nodes, limit)
	}
}

// TestNoOpRulesAreCharged pins that the budget bounds construction CPU,
// not just the nodes it creates: a rule shadowed by an earlier one
// changes nothing, yet while some packets still lack a first match its
// append walks every subproblem it overlaps that holds one. The
// adversarial boxes followed by 1,000 copies of the first box, and only
// then the catch-all, must trip the budget with the typed error, even
// though the boxes with their catch-all fit and the copies create no
// node at all. Once a catch-all has decided every packet, an append
// walks nothing: 1,000 rules after it charge nothing beyond the prefix.
func TestNoOpRulesAreCharged(t *testing.T) {
	t.Parallel()
	const limit = 50_000
	prefix := Adversarial(24) // 36,373 charged, 2,762 reduced nodes, ends in a catch-all
	build := func(p *rule.Policy, limit int64) (*fdd.FDD, *guard.Budget, error) {
		b := guard.NewBudget(guard.Limits{MaxFDDNodes: limit})
		f, err := fdd.ConstructContext(guard.WithBudget(context.Background(), b), p)
		return f, b, err
	}
	_, pb, err := build(prefix, limit)
	if err != nil {
		t.Fatalf("the prefix alone must fit in %d nodes: %v", limit, err)
	}
	policy := func(rules ...[]rule.Rule) *rule.Policy {
		p, err := rule.NewPolicy(prefix.Schema, slices.Concat(rules...))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	boxes, catchAll := prefix.Rules[:prefix.Size()-1], prefix.Rules[prefix.Size()-1:]

	after := make([]rule.Rule, 1000)
	for i := range after {
		after[i] = rule.CatchAll(prefix.Schema, rule.Accept)
	}
	_, ab, err := build(policy(prefix.Rules, after), limit)
	if err != nil {
		t.Fatalf("1,000 rules after the catch-all must fit in %d nodes: %v", limit, err)
	}
	if got, want := ab.Usage().Nodes, pb.Usage().Nodes; got != want {
		t.Fatalf("1,000 rules after a catch-all charged %d units, the prefix alone %d", got, want)
	}

	copies := make([]rule.Rule, 1000)
	for i := range copies {
		copies[i] = boxes[0]
	}
	f, b, err := build(policy(boxes, copies, catchAll), limit)
	if f != nil {
		t.Fatal("aborted construction must not return a diagram")
	}
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != guard.KindNodes {
		t.Fatalf("want fdd_nodes trip, got %v", err)
	}
	if u := b.Usage(); u.Nodes > 2*limit {
		t.Fatalf("charged %d nodes against a %d limit: abort is not prompt", u.Nodes, limit)
	}
}
