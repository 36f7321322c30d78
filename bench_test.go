// Package diversefw's root benchmark suite regenerates every quantity in
// the paper's evaluation as a testing.B benchmark, one group per table or
// figure (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results):
//
//   - BenchmarkTable3* — the running example's full pipeline
//   - BenchmarkFig12* — perturbation comparison on real-life-sized bases
//   - BenchmarkFig13* — synthetic pairs, per-phase cost vs. rule count
//   - BenchmarkEffectiveness — the Section 8.1 redesign workload
//   - BenchmarkBDD* — the Section 7.5 baseline
//   - BenchmarkResolution* — Section 6's two generation methods
//   - BenchmarkAblation* — cost of the design choices DESIGN.md calls out
//
// Run with: go test -bench=. -benchmem
package diversefw

import (
	"context"
	"fmt"
	"testing"

	"diversefw/internal/anomaly"
	"diversefw/internal/backtoback"
	"diversefw/internal/bdd"
	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/impact"
	"diversefw/internal/paper"
	"diversefw/internal/query"
	"diversefw/internal/redundancy"
	"diversefw/internal/resolve"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/spec"
	"diversefw/internal/stateful"
	"diversefw/internal/synth"
)

// paperDiff runs the paper's pipeline — construction, shaping, the
// lockstep comparison — which the figure benchmarks reproduce;
// compare.Diff runs the product walk instead of the last two phases.
func paperDiff(pa, pb *rule.Policy) (*compare.Report, error) {
	fa, err := fdd.Construct(pa)
	if err != nil {
		return nil, err
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		return nil, err
	}
	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		return nil, err
	}
	return compare.CompareSemiIsomorphic(sa, sb), nil
}

// BenchmarkTable3_PaperExample runs the complete pipeline — construction,
// shaping, comparison — on the Tables 1-2 firewalls.
func BenchmarkTable3_PaperExample(b *testing.B) {
	pa, pb := paper.TeamA(), paper.TeamB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := paperDiff(pa, pb)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Discrepancies) != 3 {
			b.Fatalf("got %d rows", len(report.Discrepancies))
		}
	}
}

// benchDiff measures the paper's pipeline (paperDiff) on a fixed pair.
func benchDiff(b *testing.B, pa, pb *rule.Policy) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paperDiff(pa, pb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 reproduces the real-life experiment: a base firewall of
// 661 or 42 rules compared against a perturbed version, for x in
// {5, 20, 50} (the full 5..50 sweep is in cmd/fwbench).
func BenchmarkFig12(b *testing.B) {
	for _, base := range []int{661, 42} {
		orig := synth.RealLife(base, 1)
		for _, x := range []int{5, 20, 50} {
			perturbed, _ := synth.Perturb(orig, float64(x), int64(x))
			b.Run(fmt.Sprintf("base=%d/x=%d", base, x), func(b *testing.B) {
				benchDiff(b, orig, perturbed)
			})
		}
	}
}

// BenchmarkFig13 reproduces the synthetic experiment: independently
// generated pairs of up to 3,000 rules.
func BenchmarkFig13(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000, 3000} {
		pa := synth.Synthetic(synth.Config{Rules: n, Seed: 1})
		pb := synth.Synthetic(synth.Config{Rules: n, Seed: 2})
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			benchDiff(b, pa, pb)
		})
	}
}

// BenchmarkFig13_Phases splits one Fig. 13 point into the paper's three
// curves: construction, shaping, comparison.
func BenchmarkFig13_Phases(b *testing.B) {
	const n = 1000
	pa := synth.Synthetic(synth.Config{Rules: n, Seed: 1})
	pb := synth.Synthetic(synth.Config{Rules: n, Seed: 2})

	b.Run("construction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fdd.Construct(pa); err != nil {
				b.Fatal(err)
			}
			if _, err := fdd.Construct(pb); err != nil {
				b.Fatal(err)
			}
		}
	})

	fa, err := fdd.Construct(pa)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shaping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := shape.MakeSemiIsomorphic(fa, fb); err != nil {
				b.Fatal(err)
			}
		}
	})

	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("comparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compare.CompareSemiIsomorphic(sa, sb)
		}
	})
}

// BenchmarkEffectiveness reproduces the Section 8.1 workload: the 87-rule
// firewall with seeded errors compared against a redesign.
func BenchmarkEffectiveness(b *testing.B) {
	reference := synth.RealLife(87, 3)
	original, _ := synth.InjectErrors(reference, synth.ErrorConfig{
		OrderingErrors: 12, MissingRules: 4, Seed: 8,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := paperDiff(original, reference)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Discrepancies) == 0 {
			b.Fatal("seeded errors must surface")
		}
	}
}

// BenchmarkBDDBaseline reproduces the Section 7.5 comparison point: the
// BDD diff of two 50-rule synthetic firewalls (whose cube count explodes
// into the millions) vs. the FDD pipeline on the same pair.
func BenchmarkBDDBaseline(b *testing.B) {
	pa := synth.Synthetic(synth.Config{Rules: 50, Seed: 1})
	pb := synth.Synthetic(synth.Config{Rules: 50, Seed: 2})
	b.Run("bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := bdd.DiffPolicies(pa, pb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fdd", func(b *testing.B) {
		benchDiff(b, pa, pb)
	})
}

// paperPlanB builds the resolved plan of the running example.
func paperPlanB(b *testing.B) *resolve.Plan {
	b.Helper()
	plan, err := resolve.NewPlan(paper.TeamA(), paper.TeamB())
	if err != nil {
		b.Fatal(err)
	}
	resolutions := paper.ResolvedDiscrepancies()
	err = plan.ResolveAll(func(i int, d compare.Discrepancy) rule.Decision {
		for _, res := range resolutions {
			match := true
			for f := range d.Pred {
				if !d.Pred[f].Equal(res.Pred[f]) {
					match = false
					break
				}
			}
			if match {
				return res.Resolved
			}
		}
		b.Fatalf("unmatched discrepancy %d", i)
		return 0
	})
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkResolution_Method1 measures Table 5 generation (corrected FDD
// -> compact firewall).
func BenchmarkResolution_Method1(b *testing.B) {
	plan := paperPlanB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Method1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolution_Method2 measures Tables 6-7 generation (corrections
// + original, redundancy removed).
func BenchmarkResolution_Method2(b *testing.B) {
	plan := paperPlanB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Method2(true); err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Method2(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures the structured-design rule generator ([12])
// on a realistic FDD.
func BenchmarkGenerate(b *testing.B) {
	p := synth.Synthetic(synth.Config{Rules: 200, Seed: 5})
	f, err := fdd.Construct(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedundancyRemoval measures complete redundancy removal ([19])
// on a policy seeded with shadowed and downward-redundant rules.
func BenchmarkRedundancyRemoval(b *testing.B) {
	base := synth.Synthetic(synth.Config{Rules: 60, Seed: 7})
	// Duplicate a slice of rules to guarantee redundancy.
	rules := append([]rule.Rule{}, base.Rules[:10]...)
	rules = append(rules, base.Rules...)
	p, err := rule.NewPolicy(base.Schema, rules)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := fdd.NewBuilder(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := redundancy.RemoveAll(context.Background(), bld); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ReduceBeforeShape quantifies the design choice of
// shaping reduced DAGs instead of raw construction trees: the unreduced
// variant re-expands each diagram (Simplify) before shaping.
func BenchmarkAblation_ReduceBeforeShape(b *testing.B) {
	const n = 200
	pa := synth.Synthetic(synth.Config{Rules: n, Seed: 1})
	pb := synth.Synthetic(synth.Config{Rules: n, Seed: 2})
	fa, err := fdd.Construct(pa)
	if err != nil {
		b.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		b.Fatal(err)
	}
	// Expanded trees simulate the paper's unreduced construction output.
	ta, tb := fa.Simplify(), fb.Simplify()

	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := shape.MakeSemiIsomorphic(fa, fb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unreduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := shape.MakeSemiIsomorphic(ta, tb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Marking quantifies the generator's marking step: the
// number of simple rules emitted with weight-based marking vs. without it
// (every interval expanded, no deferred default edge).
func BenchmarkAblation_Marking(b *testing.B) {
	p := synth.Synthetic(synth.Config{Rules: 200, Seed: 5})
	f, err := fdd.Construct(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marked", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			g, err := gen.Generate(f)
			if err != nil {
				b.Fatal(err)
			}
			total += g.Size()
		}
		b.ReportMetric(float64(total)/float64(b.N), "rules/op")
	})
	b.Run("unmarked", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			g, err := gen.GenerateUnmarked(f)
			if err != nil {
				b.Fatal(err)
			}
			total += g.Size()
		}
		b.ReportMetric(float64(total)/float64(b.N), "rules/op")
	})
}

// BenchmarkDiffN compares the direct N-way comparison (Section 7.3) with
// pairwise cross comparison on three versions of one policy.
func BenchmarkDiffN(b *testing.B) {
	base := synth.Synthetic(synth.Config{Rules: 120, Seed: 100})
	v1, _ := synth.Perturb(base, 8, 201)
	v2, _ := synth.Perturb(base, 8, 202)
	v3, _ := synth.Perturb(base, 8, 203)
	policies := []*rule.Policy{v1, v2, v3}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compare.DiffN(policies); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compare.CrossCompare(policies); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBackToBack contrasts the Section 9 baseline: a 10,000-packet
// back-to-back test run vs. the exact comparison of the same pair.
func BenchmarkBackToBack(b *testing.B) {
	base := synth.RealLife(200, 5)
	perturbed, _ := synth.Perturb(base, 15, 9)
	b.Run("backtoback-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := backtoback.Run(base, perturbed, 10000, int64(i), backtoback.Biased); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		benchDiff(b, base, perturbed)
	})
}

// BenchmarkStatefulDiff measures comparing two stateful firewalls over
// the tag-extended schema.
func BenchmarkStatefulDiff(b *testing.B) {
	newA := synth.Synthetic(synth.Config{Rules: 80, Seed: 1})
	newB, _ := synth.Perturb(newA, 10, 2)
	sa, err := stateful.TrackingPolicy(newA)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := stateful.TrackingPolicy(newB)
	if err != nil {
		b.Fatal(err)
	}
	fwA, err := stateful.New(sa)
	if err != nil {
		b.Fatal(err)
	}
	fwB, err := stateful.New(sb)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stateful.Diff(fwA, fwB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures an exact firewall query ([20]) against a
// realistic policy.
func BenchmarkQuery(b *testing.B) {
	p := synth.Synthetic(synth.Config{Rules: 661, Seed: 1})
	f, err := fdd.Construct(p)
	if err != nil {
		b.Fatal(err)
	}
	q := query.Query{
		Select:   3, // dport
		Where:    rule.FullPredicate(p.Schema),
		Decision: rule.Accept,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Run(f, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnomalyDetect measures the pairwise anomaly baseline ([1]) on
// a 661-rule policy.
func BenchmarkAnomalyDetect(b *testing.B) {
	p := synth.Synthetic(synth.Config{Rules: 661, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anomaly.Detect(p)
	}
}

// BenchmarkImpactAnalysis measures change-impact analysis of one rule
// insertion into a 661-rule policy (the Section 8.1 tool-support case).
func BenchmarkImpactAnalysis(b *testing.B) {
	before := synth.RealLife(661, 1)
	after, err := before.InsertRule(0, before.Rules[40])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im, err := impact.Analyze(before, after)
		if err != nil {
			b.Fatal(err)
		}
		_ = im.Attribute()
	}
}

// BenchmarkSpecCheck measures verifying the mechanized paper spec against
// the agreed firewall.
func BenchmarkSpecCheck(b *testing.B) {
	s, err := spec.PaperSpec(paper.Schema())
	if err != nil {
		b.Fatal(err)
	}
	p := paper.AgreedFirewall()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Check(p)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfied() {
			b.Fatal("spec must hold")
		}
	}
}

// BenchmarkConstruction isolates the construction algorithm at the
// paper's real-life sizes.
func BenchmarkConstruction(b *testing.B) {
	for _, n := range []int{42, 661, 3000} {
		p := synth.Synthetic(synth.Config{Rules: n, Seed: 1})
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fdd.Construct(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
