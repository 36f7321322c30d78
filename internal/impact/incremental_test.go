package impact

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// randomEdits builds a 1–4 step edit script against p. Edits avoid the
// final catch-all often enough that most scripts stay comprehensive, but
// deliberate deletions of it are generated too — resume must then fail
// exactly like scratch construction.
func randomEdits(rng *rand.Rand, p *rule.Policy) []Edit {
	n := 1 + rng.Intn(4)
	edits := make([]Edit, 0, n)
	donorPool := synth.Synthetic(synth.Config{Rules: 30, Seed: rng.Int63()})
	size := p.Size() // evolves as edits apply in sequence
	for len(edits) < n {
		switch rng.Intn(10) {
		case 0, 1, 2: // replace
			edits = append(edits, Edit{Kind: ReplaceRule, Index: rng.Intn(size),
				Rule: donorPool.Rules[rng.Intn(donorPool.Size())]})
		case 3, 4, 5: // insert (occasionally append)
			idx := rng.Intn(size + 1)
			if rng.Intn(5) == 0 {
				idx = appendIndex
			}
			edits = append(edits, Edit{Kind: InsertRule, Index: idx,
				Rule: donorPool.Rules[rng.Intn(donorPool.Size())]})
			size++
		case 6, 7: // swap
			edits = append(edits, Edit{Kind: SwapRules,
				Index: rng.Intn(size), J: rng.Intn(size)})
		default: // delete (may remove the catch-all)
			if size < 3 {
				continue
			}
			edits = append(edits, Edit{Kind: DeleteRule, Index: rng.Intn(size)})
			size--
		}
	}
	return edits
}

// differentialTrials is the size of the incremental differentials'
// corpus: trial i is differentialCase(i).
const differentialTrials = 220

// differentialCase returns trial's before policy, its random edit
// script, and the edited policy.
func differentialCase(t *testing.T, trial int) (before *rule.Policy, edits []Edit, after *rule.Policy) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(trial)))
	n := 36 + rng.Intn(48)
	before = synth.Synthetic(synth.Config{Rules: n, Seed: int64(trial + 1)})
	edits = randomEdits(rng, before)
	after, err := Apply(before, edits)
	if err != nil {
		t.Fatalf("trial %d: Apply: %v (edits %v)", trial, err, edits)
	}
	return before, edits, after
}

// TestIncrementalDifferential is the tentpole's correctness proof:
// across hundreds of randomized policy/edit-script pairs, resuming the
// before policy's builder yields an FDD graph-isomorphic to scratch
// construction of the edited policy (reducing both roots into one fresh
// store interns them to the same node — the reduced ordered FDD is
// canonical per decision function), with identical effective-rule bits,
// and fails if and only if scratch fails.
func TestIncrementalDifferential(t *testing.T) {
	for trial := 0; trial < differentialTrials; trial++ {
		before, edits, after := differentialCase(t, trial)
		base, err := fdd.NewBuilder(before)
		if err != nil {
			t.Fatalf("trial %d: NewBuilder(before): %v", trial, err)
		}
		resumed, st, rerr := base.Resume(context.Background(), after)
		scratch, seff, serr := fdd.ConstructEffectiveContext(context.Background(), after)
		if (rerr == nil) != (serr == nil) {
			t.Fatalf("trial %d: resume err %v, scratch err %v (edits %v)", trial, rerr, serr, edits)
		}
		if rerr != nil {
			continue // e.g. the script deleted the catch-all
		}
		if st.CheckpointRules+st.RulesReappended != after.Size() {
			t.Fatalf("trial %d: inconsistent stats %+v for %d rules", trial, st, after.Size())
		}
		in := fdd.NewStore()
		if in.ReduceNode(after.Schema, resumed.FDD().Root) != in.ReduceNode(after.Schema, scratch.Root) {
			t.Fatalf("trial %d: resumed FDD not isomorphic to scratch (edits %v)", trial, edits)
		}
		reff := resumed.Effective()
		for i := range seff {
			if reff[i] != seff[i] {
				t.Fatalf("trial %d: effective[%d] resume %v scratch %v", trial, i, reff[i], seff[i])
			}
		}
	}
}

// TestTrimmedResumeDifferential runs TestIncrementalDifferential's
// corpus through a base built trimmed at birth: its diagram and
// effective bits must be the untrimmed builder's, and resuming it must
// give the same decision rules, effective bits and resume stats as
// resuming an untrimmed builder and as scratch construction, fail
// exactly when they fail, and leave the base's diagram root in place
// with the untrimmed builder's checkpoints rebuilt.
func TestTrimmedResumeDifferential(t *testing.T) {
	for trial := 0; trial < differentialTrials; trial++ {
		before, edits, after := differentialCase(t, trial)
		kept, err := fdd.NewBuilder(before)
		if err != nil {
			t.Fatalf("trial %d: NewBuilder(before): %v", trial, err)
		}
		trimmed, err := fdd.NewTrimmedBuilderContext(context.Background(), before)
		if err != nil {
			t.Fatalf("trial %d: NewTrimmedBuilderContext(before): %v", trial, err)
		}
		if !reflect.DeepEqual(trimmed.FDD().Rules(), kept.FDD().Rules()) || !reflect.DeepEqual(trimmed.Effective(), kept.Effective()) {
			t.Fatalf("trial %d: the base trimmed at birth differs from the untrimmed one", trial)
		}
		root := trimmed.FDD().Root
		want, wst, werr := kept.Resume(context.Background(), after)
		got, st, gerr := trimmed.Resume(context.Background(), after)
		scratch, seff, serr := fdd.ConstructEffectiveContext(context.Background(), after)
		if (gerr == nil) != (werr == nil) || (gerr == nil) != (serr == nil) {
			t.Fatalf("trial %d: trimmed resume err %v, untrimmed %v, scratch %v (edits %v)",
				trial, gerr, werr, serr, edits)
		}
		if trimmed.FDD().Root != root {
			t.Fatalf("trial %d: resuming a trimmed base replaced its root", trial)
		}
		if gerr != nil {
			continue
		}
		if st != wst {
			t.Fatalf("trial %d: trimmed resume stats %+v, untrimmed %+v", trial, st, wst)
		}
		if trimmed.NumCheckpoints() != kept.NumCheckpoints() {
			t.Fatalf("trial %d: replay rebuilt %d checkpoints, untrimmed builder holds %d",
				trial, trimmed.NumCheckpoints(), kept.NumCheckpoints())
		}
		rules := got.FDD().Rules()
		if !reflect.DeepEqual(rules, want.FDD().Rules()) || !reflect.DeepEqual(rules, scratch.Rules()) {
			t.Fatalf("trial %d: trimmed resume's rules differ (edits %v)", trial, edits)
		}
		if !reflect.DeepEqual(got.Effective(), want.Effective()) || !reflect.DeepEqual(got.Effective(), seff) {
			t.Fatalf("trial %d: trimmed resume's effective bits differ", trial)
		}
	}
}

// boundaryEdits builds a 1–4 step script of the edits whose untouched
// prefix is easiest to get wrong: swaps with the second index below the
// first, inserts at 0, deletes of the rule just before the catch-all,
// and replaces anywhere.
func boundaryEdits(rng *rand.Rand, p *rule.Policy) []Edit {
	edits := make([]Edit, 1+rng.Intn(4))
	donor := p.Rules[rng.Intn(p.Size())]
	size := p.Size()
	for k := range edits {
		switch rng.Intn(4) {
		case 0:
			i := 1 + rng.Intn(size-1)
			edits[k] = Edit{Kind: SwapRules, Index: i, J: rng.Intn(i)}
		case 1:
			edits[k] = Edit{Kind: InsertRule, Index: 0, Rule: donor}
			size++
		case 2:
			edits[k] = Edit{Kind: DeleteRule, Index: size - 2}
			size--
		default:
			edits[k] = Edit{Kind: ReplaceRule, Index: rng.Intn(size), Rule: donor}
		}
	}
	return edits
}

// TestHintedResumeDifferential holds a resume told the script's
// untouched prefix (UntouchedPrefix, as the engine's edit path passes it)
// to the resume that compares every rule and to scratch construction:
// the hint never exceeds the true common prefix, and the two resumes
// land on the same root of their family with the same stats and
// effective bits, and on scratch's rules.
func TestHintedResumeDifferential(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < differentialTrials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		before := synth.Synthetic(synth.Config{Rules: 36 + rng.Intn(48), Seed: int64(trial + 1)})
		edits := boundaryEdits(rng, before)
		after, err := Apply(before, edits)
		if err != nil {
			t.Fatalf("trial %d: Apply: %v (edits %v)", trial, err, edits)
		}
		kept := UntouchedPrefix(before.Size(), edits)
		common := 0
		for common < min(before.Size(), after.Size()) && reflect.DeepEqual(before.Rules[common], after.Rules[common]) {
			common++
		}
		if kept > common {
			t.Fatalf("trial %d: hint %d past the common prefix %d (edits %v)", trial, kept, common, edits)
		}
		base, err := fdd.NewBuilder(before)
		if err != nil {
			t.Fatalf("trial %d: NewBuilder(before): %v", trial, err)
		}
		hinted, hst, herr := base.ResumePrefix(ctx, after, kept)
		plain, pst, perr := base.Resume(ctx, after)
		scratch, seff, serr := fdd.ConstructEffectiveContext(ctx, after)
		if (herr == nil) != (perr == nil) || (herr == nil) != (serr == nil) {
			t.Fatalf("trial %d: hinted resume err %v, unhinted %v, scratch %v (edits %v)", trial, herr, perr, serr, edits)
		}
		if herr != nil {
			continue // the script deleted the catch-all
		}
		if hst != pst || hinted.FDD().Root != plain.FDD().Root {
			t.Fatalf("trial %d: hinted resume (%+v) differs from unhinted (%+v) (edits %v)", trial, hst, pst, edits)
		}
		if !reflect.DeepEqual(hinted.FDD().Rules(), scratch.Rules()) ||
			!reflect.DeepEqual(hinted.Effective(), plain.Effective()) || !reflect.DeepEqual(hinted.Effective(), seff) {
			t.Fatalf("trial %d: hinted resume differs from scratch (edits %v)", trial, edits)
		}
	}
}
