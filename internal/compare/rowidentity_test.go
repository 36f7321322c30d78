package compare

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// The serving engine answers every diff with the direct product walk and
// caches one report per pair; /v1/diff, /v1/impact and /v1/resolve hand
// out row numbers from that report. The tests below pin that the direct
// walk emits exactly the rows of the paper's shape-and-lockstep pipeline,
// in the same order — not just the same packet set — so which walk (or
// which endpoint) produced a cached report can never change a row number.
// Both walks build the reduced, canonical difference diagram of the same
// discrepancy function, so its row enumeration cannot depend on the walk.

// assertSameRows diffs fa and fb with both walks and fails unless the
// discrepancy rows are deeply equal. It returns the row count, so a
// family can check it compared something.
func assertSameRows(t *testing.T, name string, fa, fb *fdd.FDD) int {
	t.Helper()
	lock, err := DiffFDDsContext(context.Background(), fa, fb)
	if err != nil {
		t.Fatalf("%s: lockstep: %v", name, err)
	}
	direct, err := DiffFDDsDirectContext(context.Background(), fa, fb)
	if err != nil {
		t.Fatalf("%s: direct: %v", name, err)
	}
	if !reflect.DeepEqual(lock.Discrepancies, direct.Discrepancies) {
		n := len(lock.Discrepancies)
		if len(direct.Discrepancies) < n {
			n = len(direct.Discrepancies)
		}
		first := n
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(lock.Discrepancies[i], direct.Discrepancies[i]) {
				first = i
				break
			}
		}
		t.Fatalf("%s: rows differ (lockstep %d, direct %d, first difference at row %d)",
			name, len(lock.Discrepancies), len(direct.Discrepancies), first)
	}
	return len(lock.Discrepancies)
}

// assertSamePolicyRows is assertSameRows for two policies, each
// constructed from scratch in its own store.
func assertSamePolicyRows(t *testing.T, name string, pa, pb *rule.Policy) int {
	t.Helper()
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatalf("%s: construct a: %v", name, err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatalf("%s: construct b: %v", name, err)
	}
	return assertSameRows(t, name, fa, fb)
}

// requireRows fails a family whose pairs were all equivalent: identical
// empty reports prove nothing about row order.
func requireRows(t *testing.T, rows int) {
	t.Helper()
	if rows == 0 {
		t.Fatal("no pair in the family had a discrepancy")
	}
}

// TestRowIdentityRealLifePerturbed covers the cold-diff pair: a variant
// of a 661-rule real-life-shaped base against a 5-50% perturbation of it.
func TestRowIdentityRealLifePerturbed(t *testing.T) {
	if testing.Short() {
		t.Skip("661-rule pairs take seconds")
	}
	t.Parallel()
	rows := 0
	for k := 0; k < 8; k++ {
		base := synth.RealLife(661, int64(k+1))
		r := rand.New(rand.NewSource(int64(100 + k)))
		a, _ := synth.Perturb(base, 1+4*r.Float64(), r.Int63())
		x := 5 + 45*float64(k)/7
		b, _ := synth.Perturb(a, x, r.Int63())
		rows += assertSamePolicyRows(t, fmt.Sprintf("base %d x=%.0f%%", k+1, x), a, b)
	}
	requireRows(t, rows)
}

// TestRowIdentityCrossCompareTeams covers the N-team design: six
// perturbations of a 40-rule base, every one of the 15 pairs.
func TestRowIdentityCrossCompareTeams(t *testing.T) {
	t.Parallel()
	const teams = 6
	rows := 0
	for k := 0; k < 8; k++ {
		base := synth.RealLife(40, int64(k+1))
		r := rand.New(rand.NewSource(int64(200 + k)))
		fs := make([]*fdd.FDD, teams)
		for i := range fs {
			p, _ := synth.Perturb(base, 5+5*float64(i)+5*r.Float64(), r.Int63())
			f, err := fdd.Construct(p)
			if err != nil {
				t.Fatalf("base %d team %d: %v", k+1, i+1, err)
			}
			fs[i] = f
		}
		for i := 0; i < teams; i++ {
			for j := i + 1; j < teams; j++ {
				rows += assertSameRows(t, fmt.Sprintf("base %d team%d/team%d", k+1, i+1, j+1), fs[i], fs[j])
			}
		}
	}
	requireRows(t, rows)
}

// TestRowIdentityBuilderFamily covers the edit path: a base and its
// Resume after 1-3 edits share one node store, so the direct walk
// short-circuits on the shared subgraphs while lockstep unrolls them.
func TestRowIdentityBuilderFamily(t *testing.T) {
	t.Parallel()
	base := synth.RealLife(120, 7)
	donor := synth.RealLife(120, 8)
	b, err := fdd.NewBuilder(base)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(300))
	rows := 0
	for trial := 0; trial < 16; trial++ {
		after := base
		n := 1 + r.Intn(3)
		for e := 0; e < n; e++ {
			last := after.Size() - 1 // keep the catch-all last
			pos := r.Intn(last)
			switch r.Intn(4) {
			case 0:
				after, err = after.ReplaceRule(pos, donor.Rules[r.Intn(donor.Size()-1)])
			case 1:
				after, err = after.DeleteRule(pos)
			case 2:
				after, err = after.InsertRule(pos, donor.Rules[r.Intn(donor.Size()-1)])
			default:
				after, err = after.SwapRules(pos, r.Intn(last))
			}
			if err != nil {
				t.Fatalf("trial %d: edit: %v", trial, err)
			}
		}
		nb, _, err := b.Resume(context.Background(), after)
		if err != nil {
			t.Fatalf("trial %d: resume: %v", trial, err)
		}
		name := fmt.Sprintf("trial %d (%d edits)", trial, n)
		rows += assertSameRows(t, name, b.FDD(), nb.FDD())
		rows += assertSameRows(t, name+" reversed", nb.FDD(), b.FDD())
	}
	requireRows(t, rows)
}

// TestRowIdentityAdversarial covers the construction blow-up staircase,
// against a perturbation of itself and against a smaller staircase (not
// at n=16, whose lockstep against n=14 alone takes seconds).
func TestRowIdentityAdversarial(t *testing.T) {
	t.Parallel()
	rows := 0
	for n := 8; n <= 16; n += 4 {
		a := synth.Adversarial(n)
		b, _ := synth.Perturb(a, 30, int64(n))
		rows += assertSamePolicyRows(t, fmt.Sprintf("adversarial(%d) perturbed", n), a, b)
		if n < 16 {
			rows += assertSamePolicyRows(t, fmt.Sprintf("adversarial(%d) vs (%d)", n, n-2), a, synth.Adversarial(n-2))
		}
	}
	requireRows(t, rows)
}

// TestRowIdentityMultiDecision covers decision sets beyond
// accept/discard: random three-field policies over all four decisions.
func TestRowIdentityMultiDecision(t *testing.T) {
	t.Parallel()
	schema := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
		field.Field{Name: "z", Domain: interval.MustNew(0, 7), Kind: field.KindInt},
	)
	decisions := []rule.Decision{rule.Accept, rule.Discard, rule.AcceptLog, rule.DiscardLog}
	r := rand.New(rand.NewSource(400))
	span := func(hi int) interval.Set {
		lo := r.Intn(hi + 1)
		return interval.SetOf(uint64(lo), uint64(lo+r.Intn(hi+1-lo)))
	}
	randPolicy := func() *rule.Policy {
		n := 3 + r.Intn(10)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			rules = append(rules, rule.Rule{
				Pred:     rule.Predicate{span(63), span(31), span(7)},
				Decision: decisions[r.Intn(len(decisions))],
			})
		}
		rules = append(rules, rule.CatchAll(schema, decisions[r.Intn(len(decisions))]))
		return rule.MustPolicy(schema, rules)
	}
	rows := 0
	for trial := 0; trial < 40; trial++ {
		rows += assertSamePolicyRows(t, fmt.Sprintf("trial %d", trial), randPolicy(), randPolicy())
	}
	requireRows(t, rows)
}

// TestRowIdentityFrontendCorpus covers the lowered real-config corpus:
// every pair of its well-formed configs, and each against a
// perturbation of itself.
func TestRowIdentityFrontendCorpus(t *testing.T) {
	t.Parallel()
	schema := field.IPv4FiveTuple()
	corpus := []struct{ file, format string }{
		{"web-dmz.rules", "iptables"},
		{"home-router.nft", "nftables"},
		{"web-sg.json", "secgroup"},
	}
	ps := make([]*rule.Policy, len(corpus))
	for i, c := range corpus {
		text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "frontends", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if ps[i], err = frontend.Parse(c.format, schema, string(text), frontend.Options{}); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
	}
	rows := 0
	for i := range ps {
		for j := range ps {
			if i != j {
				rows += assertSamePolicyRows(t, corpus[i].file+" vs "+corpus[j].file, ps[i], ps[j])
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			q, _ := synth.Perturb(ps[i], 50, seed)
			rows += assertSamePolicyRows(t, fmt.Sprintf("%s perturbed (seed %d)", corpus[i].file, seed), ps[i], q)
		}
	}
	requireRows(t, rows)
}
