package resolve

import (
	"context"
	"fmt"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// The paper's Method 1 as Section 6.1 states it, kept as the reference
// Plan.Method1 is held to: shape A's and B's diagrams to semi-isomorphism,
// rewrite the terminals of A's shaped copy per the resolution, and
// generate from the result.

// shapedPair shapes copies of the two diagrams the plan's report
// compares.
func (p *Plan) shapedPair() (*fdd.FDD, *fdd.FDD, error) {
	ctx := context.Background()
	ca, _, err := p.eng.Compile(ctx, p.A)
	if err != nil {
		return nil, nil, err
	}
	cb, _, err := p.eng.Compile(ctx, p.B)
	if err != nil {
		return nil, nil, err
	}
	return shape.MakeSemiIsomorphic(ca.FDD, cb.FDD)
}

// shapedMethod1 generates the final firewall from A's corrected shaped
// diagram.
func (p *Plan) shapedMethod1() (*rule.Policy, error) {
	if !p.Resolved() {
		return nil, fmt.Errorf("resolve: method 1: unresolved discrepancies remain")
	}
	sa, sb, err := p.shapedPair()
	if err != nil {
		return nil, err
	}
	if err := p.correctTerminals(sa, sb); err != nil {
		return nil, err
	}
	return gen.Generate(sa)
}

// correctTerminals walks the semi-isomorphic pair; wherever the terminals
// differ, the path region belongs to exactly one discrepancy row, whose
// agreed decision replaces sa's terminal. After this, sa and sb corrected
// the same way would be identical — the paper's observation in
// Section 6.1, Step 1.
func (p *Plan) correctTerminals(sa, sb *fdd.FDD) error {
	pred := rule.FullPredicate(sa.Schema)
	var walk func(a, b *fdd.Node) error
	walk = func(a, b *fdd.Node) error {
		if a.IsTerminal() {
			if a.Decision == b.Decision {
				return nil
			}
			idx := p.findRegion(pred)
			if idx < 0 {
				return fmt.Errorf("resolve: differing path %v matches no discrepancy row", pred)
			}
			a.Decision = p.Decisions[idx]
			return nil
		}
		saved := pred[a.Field]
		defer func() { pred[a.Field] = saved }()
		for i := range a.Edges {
			pred[a.Field] = a.Edges[i].Label
			if err := walk(a.Edges[i].To, b.Edges[i].To); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(sa.Root, sb.Root)
}

// findRegion returns the index of the discrepancy row containing the path
// region, or -1. Merged rows are unions of whole path regions, so
// overlap implies containment.
func (p *Plan) findRegion(pathPred rule.Predicate) int {
	for i, d := range p.Report.Discrepancies {
		contained := true
		for f := range pathPred {
			if !d.Pred[f].ContainsSet(pathPred[f]) {
				contained = false
				break
			}
		}
		if contained {
			return i
		}
	}
	return -1
}

// correctedFDDs shapes copies of both firewalls' FDDs and applies the
// resolution to the terminals of each.
func (p *Plan) correctedFDDs() (*fdd.FDD, *fdd.FDD, error) {
	if !p.Resolved() {
		return nil, nil, fmt.Errorf("resolve: unresolved discrepancies remain")
	}
	sa, sb, err := p.shapedPair()
	if err != nil {
		return nil, nil, err
	}
	if err := p.correctTerminals(sa, sb); err != nil {
		return nil, nil, err
	}
	// Correct sb symmetrically: on differing paths its terminal gets the
	// same agreed decision sa's terminal just received.
	if err := p.correctTerminals(sb, sa); err != nil {
		return nil, nil, err
	}
	return sa, sb, nil
}

// TestCorrectedFDDsBecomeIdentical checks Section 6.1's observation:
// after applying the resolution to both semi-isomorphic FDDs, they are
// exactly the same diagram (same shape, same terminal decisions).
func TestCorrectedFDDsBecomeIdentical(t *testing.T) {
	t.Parallel()
	plan := paperPlan(t)
	sa, sb, err := plan.correctedFDDs()
	if err != nil {
		t.Fatal(err)
	}
	if !compare.SemiIsomorphic(sa, sb) {
		t.Fatal("corrected diagrams lost semi-isomorphism")
	}
	var walk func(a, b *fdd.Node)
	walk = func(a, b *fdd.Node) {
		if a.IsTerminal() {
			if a.Decision != b.Decision {
				t.Fatalf("corrected terminals differ: %v vs %v", a.Decision, b.Decision)
			}
			return
		}
		for i := range a.Edges {
			walk(a.Edges[i].To, b.Edges[i].To)
		}
	}
	walk(sa.Root, sb.Root)

	// And the corrected diagram implements the agreed semantics.
	sm := packet.NewSampler(plan.A.Schema, 47)
	agreed := paper.AgreedFirewall()
	for i := 0; i < 2000; i++ {
		pkt := sm.BiasedPair(plan.A, plan.B)
		want, _ := packet.Oracle(agreed, pkt)
		got, ok := sa.Decide(pkt)
		if !ok || got != want {
			t.Fatalf("corrected FDD wrong on %v: %v vs %v", pkt, got, want)
		}
	}
}

func TestCorrectedFDDsRequireResolution(t *testing.T) {
	t.Parallel()
	plan, err := NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.correctedFDDs(); err == nil {
		t.Fatal("unresolved plan should fail")
	}
}

// resolveMixed decides discrepancy row i by the i-th two-bit digit of
// mix (cycling after 32 rows): A's decision, B's, or one of two decisions
// neither team chose.
func resolveMixed(t testing.TB, plan *Plan, mix uint64) {
	t.Helper()
	err := plan.ResolveAll(func(i int, d compare.Discrepancy) rule.Decision {
		switch mix >> (2 * (i % 32)) & 3 {
		case 0:
			return d.A
		case 1:
			return d.B
		}
		var others []rule.Decision
		for _, c := range []rule.Decision{rule.Accept, rule.Discard, rule.AcceptLog, rule.DiscardLog} {
			if c != d.A && c != d.B {
				others = append(others, c)
			}
		}
		return others[mix>>(2*(i%32))&1]
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkMethod1MatchesShaped holds Method 1 to the shaped reference, byte
// for byte, and to Verify.
func checkMethod1MatchesShaped(t testing.TB, plan *Plan) {
	t.Helper()
	got, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.shapedMethod1()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rule.FormatPolicy(got), rule.FormatPolicy(want); g != w {
		t.Fatalf("method 1 (%d rules) differs from the shaped reference (%d rules) over %d rows:\n%s\nwant:\n%s",
			got.Size(), want.Size(), len(plan.Report.Discrepancies), g, w)
	}
	if err := plan.Verify(got); err != nil {
		t.Fatal(err)
	}
}

// TestMethod1MatchesShaped: Method 1 generated from the reference
// semantics' diagram is the firewall the paper's shaped, corrected
// diagram generates, byte for byte: on the paper's Table 4 plan, and on
// real-life policies up to the paper's 661 rules against their
// Section 8.2.1 perturbations, with decisions mixing A's, B's and
// decisions neither team chose.
func TestMethod1MatchesShaped(t *testing.T) {
	t.Parallel()
	t.Run("paper", func(t *testing.T) {
		checkMethod1MatchesShaped(t, paperPlan(t))
	})
	for _, n := range []int{20, 100, 300, 661} {
		if n == 661 && testing.Short() {
			continue
		}
		a := synth.RealLife(n, int64(n))
		for _, pct := range []float64{3, 10, 25} {
			t.Run(fmt.Sprintf("reallife%d/perturb%g", n, pct), func(t *testing.T) {
				b, _ := synth.Perturb(a, pct, int64(n)+int64(pct))
				for _, mix := range []uint64{0, ^uint64(0) / 3, 0x9c6e_3b1d_52a7_f480} {
					plan, err := NewPlan(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if len(plan.Report.Discrepancies) == 0 && pct >= 10 {
						t.Fatal("perturbed pair diffs equivalent; the case checks nothing")
					}
					resolveMixed(t, plan, mix)
					checkMethod1MatchesShaped(t, plan)
				}
			})
		}
	}
}

// FuzzMethod1MatchesShaped is TestMethod1MatchesShaped over random
// real-life pairs, perturbation rates and decision mixes.
func FuzzMethod1MatchesShaped(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint64(0))
	f.Add(int64(7), uint8(40), uint8(25), uint64(0x5555_5555_5555_5555))
	f.Add(int64(3), uint8(60), uint8(50), uint64(0x9c6e_3b1d_52a7_f480))
	f.Add(int64(11), uint8(2), uint8(100), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, size, pct uint8, mix uint64) {
		a := synth.RealLife(2+int(size)%80, seed)
		b, _ := synth.Perturb(a, float64(pct%101), seed+1)
		plan, err := NewPlan(a, b)
		if err != nil {
			t.Fatal(err)
		}
		resolveMixed(t, plan, mix)
		checkMethod1MatchesShaped(t, plan)
	})
}
