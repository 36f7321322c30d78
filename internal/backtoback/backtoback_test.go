package backtoback

import (
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// diffWalks are the two ways to diff two policies: compare.Diff's
// product walk and the paper's shape-and-lockstep reference. The
// sampling tests below hold both to the policies' packet decisions.
var diffWalks = []struct {
	name string
	diff func(pa, pb *rule.Policy) (*compare.Report, error)
}{{"product", compare.Diff}, {"lockstep", lockstepDiff}}

// lockstepDiff is the paper's comparison (Sections 3-5): construct both
// FDDs, shape them to semi-isomorphism, walk them in lockstep.
func lockstepDiff(pa, pb *rule.Policy) (*compare.Report, error) {
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

func TestRunValidation(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	other := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if _, err := Run(paper.TeamA(), other, 10, 1, Uniform); err == nil {
		t.Fatal("schema mismatch should fail")
	}
	if _, err := Run(paper.TeamA(), paper.TeamB(), 10, 1, Strategy(9)); err == nil {
		t.Fatal("unknown strategy should fail")
	}
}

// TestUniformSamplingMissesSliverRegions is the paper's incompleteness
// argument in numbers: all three Table 3 regions require D to equal one
// specific address out of 2^32, so uniform testing with a realistic
// budget finds none of them.
func TestUniformSamplingMissesSliverRegions(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	res, err := Run(pa, pb, 50000, 7, Uniform)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWalks {
		report, err := w.diff(pa, pb)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		found, total := Coverage(report, res)
		if total != 3 {
			t.Fatalf("%s: total = %d", w.name, total)
		}
		if found != 0 {
			// Astronomically unlikely (P < 50000 * 2^-32 per region).
			t.Fatalf("%s: uniform sampling hit %d sliver regions", w.name, found)
		}
	}
}

// TestBiasedSamplingFindsSome: rule-aware test generation does hit the
// regions — but the witnesses are point samples, not region descriptions,
// and completeness is still not guaranteed.
func TestBiasedSamplingFindsSome(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	res, err := Run(pa, pb, 5000, 7, Biased)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWalks {
		report, err := w.diff(pa, pb)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		found, total := Coverage(report, res)
		if found == 0 {
			t.Fatalf("%s: biased sampling should find at least one region", w.name)
		}
		if found > total {
			t.Fatalf("%s: found %d > total %d", w.name, found, total)
		}
		// Every witness must be a genuine disagreement inside some region.
		for _, pkt := range res.Witnesses {
			inRegion := false
			for _, d := range report.Discrepancies {
				if d.Pred.Matches(pkt) {
					inRegion = true
					break
				}
			}
			if !inRegion {
				t.Fatalf("%s: witness %v outside every exact region", w.name, pkt)
			}
		}
	}
}

func TestEquivalentPoliciesProduceNoWitnesses(t *testing.T) {
	t.Parallel()
	a := paper.TeamA()
	res, err := Run(a, a.Clone(), 2000, 3, Biased)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witnesses) != 0 {
		t.Fatalf("equivalent policies produced %d witnesses", len(res.Witnesses))
	}
}

func TestStrategyString(t *testing.T) {
	t.Parallel()
	if Uniform.String() != "uniform" || Biased.String() != "biased" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() != "strategy#9" {
		t.Fatal("unknown strategy name wrong")
	}
}
