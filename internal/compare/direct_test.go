package compare

import (
	"context"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// encodeReport renders a report's discrepancy rows as a policy whose
// decision encodes the (A, B) pair, with an agreeing catch-all. Rows are
// disjoint regions, so first-match order is irrelevant and two reports
// describe the same discrepancy function iff their encodings are
// equivalent policies — this is how we compare the direct walk against
// the lockstep pipeline without assuming identical row partitioning.
func encodeReport(t *testing.T, schema *rule.Policy, r *Report) *rule.Policy {
	t.Helper()
	rules := make([]rule.Rule, 0, len(r.Discrepancies)+1)
	for _, d := range r.Discrepancies {
		if d.A >= 1<<5 || d.B >= 1<<5 {
			t.Fatalf("decision too large to encode: %v/%v", d.A, d.B)
		}
		rules = append(rules, rule.Rule{
			Pred:     d.Pred.Clone(),
			Decision: d.A<<5 | d.B,
		})
	}
	rules = append(rules, rule.CatchAll(schema.Schema, 1<<12))
	return rule.MustPolicy(schema.Schema, rules)
}

func TestDirectDiffMatchesLockstep(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		pa := synth.Synthetic(synth.Config{Rules: 40, Seed: int64(trial*2 + 1)})
		pb := synth.Synthetic(synth.Config{Rules: 40, Seed: int64(trial*2 + 2)})
		fa, err := fdd.Construct(pa)
		if err != nil {
			t.Fatalf("trial %d: construct a: %v", trial, err)
		}
		fb, err := fdd.Construct(pb)
		if err != nil {
			t.Fatalf("trial %d: construct b: %v", trial, err)
		}
		lock, err := lockstepFDDs(context.Background(), fa, fb)
		if err != nil {
			t.Fatalf("trial %d: lockstep: %v", trial, err)
		}
		direct, err := DiffFDDsDirect(fa, fb)
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		if lock.Equivalent() != direct.Equivalent() {
			t.Fatalf("trial %d: equivalence disagrees (lockstep %v, direct %v)",
				trial, lock.Equivalent(), direct.Equivalent())
		}
		eq, err := Equivalent(encodeReport(t, pa, lock), encodeReport(t, pa, direct))
		if err != nil {
			t.Fatalf("trial %d: comparing encodings: %v", trial, err)
		}
		if !eq {
			t.Fatalf("trial %d: direct and lockstep reports describe different discrepancy sets", trial)
		}
	}
}

func TestDirectDiffSharedSubgraphShortCircuit(t *testing.T) {
	// A diagram diffed against itself is all pointer-shared: one
	// short-circuit at the root, nothing walked.
	p := synth.Synthetic(synth.Config{Rules: 80, Seed: 5})
	f, err := fdd.Construct(p)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	r, err := DiffFDDsDirect(f, f)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if !r.Equivalent() {
		t.Fatalf("self-diff found %d discrepancies", len(r.Discrepancies))
	}
	if r.PathsCompared != 0 {
		t.Fatalf("self-diff compared %d terminal pairs; pointer identity should short-circuit", r.PathsCompared)
	}
}

func TestDirectDiffSchemaMismatch(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 10, Seed: 1})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	other := &fdd.FDD{Schema: field.PaperExample(), Root: fa.Root}
	if _, err := DiffFDDsDirect(fa, other); err == nil {
		t.Fatalf("direct diff accepted mismatched schemas")
	}
}

func TestDirectDiffCancelAndBudget(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 200, Seed: 31})
	pb := synth.Synthetic(synth.Config{Rules: 200, Seed: 32})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatalf("construct a: %v", err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatalf("construct b: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiffFDDsDirectContext(ctx, fa, fb); err == nil {
		t.Fatalf("direct diff ignored a canceled context")
	}
	bctx := guard.WithBudget(context.Background(), guard.NewBudget(guard.Limits{MaxFDDNodes: 1}))
	_, err = DiffFDDsDirectContext(bctx, fa, fb)
	if err == nil {
		t.Fatalf("direct diff ignored an exhausted budget")
	}
}
