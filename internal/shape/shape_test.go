package shape

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

func construct(t *testing.T, p *rule.Policy) *fdd.FDD {
	t.Helper()
	f, err := fdd.Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMakeSemiIsomorphicPaperExample(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	fa, fb := construct(t, pa), construct(t, pb)

	sa, sb, err := MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("outputs are not semi-isomorphic")
	}
	if err := sa.CheckInvariants(); err != nil {
		t.Fatalf("sa: %v", err)
	}
	if err := sb.CheckInvariants(); err != nil {
		t.Fatalf("sb: %v", err)
	}

	// Shaping must not change semantics of either diagram.
	sm := packet.NewSampler(pa.Schema, 1)
	for i := 0; i < 3000; i++ {
		pkt := sm.BiasedPair(pa, pb)
		wantA, _ := packet.Oracle(pa, pkt)
		wantB, _ := packet.Oracle(pb, pkt)
		if got, ok := sa.Decide(pkt); !ok || got != wantA {
			t.Fatalf("sa semantics changed on %v: got %v ok=%v want %v", pkt, got, ok, wantA)
		}
		if got, ok := sb.Decide(pkt); !ok || got != wantB {
			t.Fatalf("sb semantics changed on %v: got %v ok=%v want %v", pkt, got, ok, wantB)
		}
	}
}

func TestMakeSemiIsomorphicDoesNotMutateInputs(t *testing.T) {
	t.Parallel()
	fa, fb := construct(t, paper.TeamA()), construct(t, paper.TeamB())
	beforeA, beforeB := fa.Stats(), fb.Stats()
	if _, _, err := MakeSemiIsomorphic(fa, fb); err != nil {
		t.Fatal(err)
	}
	if fa.Stats() != beforeA || fb.Stats() != beforeB {
		t.Fatal("inputs were mutated")
	}
}

func TestMakeSemiIsomorphicSchemaMismatch(t *testing.T) {
	t.Parallel()
	s1 := field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	s2 := field.MustSchema(field.Field{Name: "y", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	f1 := construct(t, rule.MustPolicy(s1, []rule.Rule{rule.CatchAll(s1, rule.Accept)}))
	f2 := construct(t, rule.MustPolicy(s2, []rule.Rule{rule.CatchAll(s2, rule.Accept)}))
	if _, _, err := MakeSemiIsomorphic(f1, f2); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

// TestNodeInsertionPaths exercises step 1: one diagram tests a field the
// other never mentions, forcing node insertion on one side.
func TestNodeInsertionPaths(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
	)
	// pa tests only x; pb tests only y.
	pa := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4), s.FullSet(1)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	pb := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{s.FullSet(0), interval.SetOf(3, 6)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	// Reduce drops full-domain nodes, producing diagrams that genuinely
	// skip fields.
	fa := construct(t, pa).Reduce()
	fb := construct(t, pb).Reduce()

	sa, sb, err := MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("not semi-isomorphic after node insertion")
	}
	sm := packet.NewSampler(s, 2)
	for i := 0; i < 1000; i++ {
		pkt := sm.Uniform()
		wantA, _ := packet.Oracle(pa, pkt)
		wantB, _ := packet.Oracle(pb, pkt)
		if got, _ := sa.Decide(pkt); got != wantA {
			t.Fatalf("sa wrong on %v", pkt)
		}
		if got, _ := sb.Decide(pkt); got != wantB {
			t.Fatalf("sb wrong on %v", pkt)
		}
	}
}

// TestTerminalVsSubtree exercises insertion when one side is already a
// bare terminal (a constant policy).
func TestTerminalVsSubtree(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
	)
	constant := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	split := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4)}, Decision: rule.Discard},
		rule.CatchAll(s, rule.Accept),
	})
	fa := construct(t, constant).Reduce() // a single terminal node
	fb := construct(t, split)
	sa, sb, err := MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("not semi-isomorphic")
	}
	for v := uint64(0); v <= 9; v++ {
		if got, _ := sa.Decide(rule.Packet{v}); got != rule.Accept {
			t.Fatalf("constant side changed at %d", v)
		}
		want := rule.Accept
		if v <= 4 {
			want = rule.Discard
		}
		if got, _ := sb.Decide(rule.Packet{v}); got != want {
			t.Fatalf("split side changed at %d", v)
		}
	}
}

func TestSemiIsomorphicDetectsDifferences(t *testing.T) {
	t.Parallel()
	fa := construct(t, paper.TeamA())
	fb := construct(t, paper.TeamB())
	if compare.SemiIsomorphic(fa, fb) {
		t.Fatal("unshaped diagrams reported semi-isomorphic")
	}
	// A diagram is trivially semi-isomorphic to its own copy.
	if !compare.SemiIsomorphic(fa, fa.Clone()) {
		t.Fatal("clone should be semi-isomorphic")
	}
}

// TestPropShapingRandomPolicies fuzzes the full shaping pipeline.
func TestPropShapingRandomPolicies(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(31))
	schema := field.MustSchema(
		field.Field{Name: "a", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
		field.Field{Name: "b", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
		field.Field{Name: "c", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
	)
	randPolicy := func() *rule.Policy {
		n := 1 + r.Intn(8)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			pred := make(rule.Predicate, 3)
			for fi := 0; fi < 3; fi++ {
				if r.Intn(3) == 0 {
					pred[fi] = schema.FullSet(fi)
					continue
				}
				lo := uint64(r.Intn(64))
				hi := lo + uint64(r.Intn(64-int(lo)))
				pred[fi] = interval.SetOf(lo, hi)
			}
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, rule.Rule{Pred: pred, Decision: d})
		}
		rules = append(rules, rule.CatchAll(schema, rule.Accept))
		return rule.MustPolicy(schema, rules)
	}

	for trial := 0; trial < 25; trial++ {
		pa, pb := randPolicy(), randPolicy()
		fa, fb := construct(t, pa), construct(t, pb)
		// Reduce one side sometimes, to exercise node insertion.
		if trial%3 == 0 {
			fa = fa.Reduce()
		}
		sa, sb, err := MakeSemiIsomorphic(fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		if !compare.SemiIsomorphic(sa, sb) {
			t.Fatalf("trial %d: not semi-isomorphic", trial)
		}
		if err := sa.CheckInvariants(); err != nil {
			t.Fatalf("trial %d sa: %v", trial, err)
		}
		if err := sb.CheckInvariants(); err != nil {
			t.Fatalf("trial %d sb: %v", trial, err)
		}
		sm := packet.NewSampler(schema, int64(trial))
		for i := 0; i < 400; i++ {
			pkt := sm.BiasedPair(pa, pb)
			wantA, _ := packet.Oracle(pa, pkt)
			wantB, _ := packet.Oracle(pb, pkt)
			if got, ok := sa.Decide(pkt); !ok || got != wantA {
				t.Fatalf("trial %d: sa wrong on %v", trial, pkt)
			}
			if got, ok := sb.Decide(pkt); !ok || got != wantB {
				t.Fatalf("trial %d: sb wrong on %v", trial, pkt)
			}
		}
	}
}

// sameTree reports whether two shaped trees are identical: the same
// fields, edge labels and decisions, edge by edge.
func sameTree(a, b *fdd.Node) bool {
	if a.IsTerminal() || b.IsTerminal() {
		return a.IsTerminal() && b.IsTerminal() && a.Decision == b.Decision
	}
	if a.Field != b.Field || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if !a.Edges[i].Label.Equal(b.Edges[i].Label) || !sameTree(a.Edges[i].To, b.Edges[i].To) {
			return false
		}
	}
	return true
}

// TestParallelShapingMatchesSequential: shaping's per-root-edge fan-out
// gives exactly the single-worker result, diagrams and operation counts
// (merged from each worker as it finishes) alike, and the merged split
// count is every split the workers charged to the budget.
func TestParallelShapingMatchesSequential(t *testing.T) {
	fa := construct(t, synth.Synthetic(synth.Config{Rules: 60, Seed: 21}))
	fb := construct(t, synth.Synthetic(synth.Config{Rules: 60, Seed: 22}))
	type result struct {
		sa, sb *fdd.FDD
		attrs  map[string]any
	}
	run := func(procs int) result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		b := guard.NewBudget(guard.Limits{})
		ctx, tr := trace.New(guard.WithBudget(context.Background(), b), "test", "")
		sa, sb, err := MakeSemiIsomorphicContext(ctx, fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		sp, ok := tr.Snapshot().Root.Find("shape")
		if !ok {
			t.Fatal("shape span missing")
		}
		if splits := b.Usage().Splits; splits == 0 || sp.Attrs["edgeSplits"] != int(splits) {
			t.Fatalf("%d workers: edgeSplits attr %v, budget charged %d splits", procs, sp.Attrs["edgeSplits"], splits)
		}
		return result{sa, sb, sp.Attrs}
	}
	seq, par := run(1), run(4)
	if !sameTree(seq.sa.Root, par.sa.Root) || !sameTree(seq.sb.Root, par.sb.Root) {
		t.Fatal("parallel shaping gave different diagrams")
	}
	if !reflect.DeepEqual(seq.attrs, par.attrs) {
		t.Fatalf("shaping counts differ: sequential %v, parallel %v", seq.attrs, par.attrs)
	}
}
