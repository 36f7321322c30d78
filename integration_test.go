// End-to-end integration tests: the complete diverse firewall design
// workflow driven through the public API, on realistic synthetic
// policies, with every output cross-checked against the brute-force
// oracle.
package diversefw

import (
	"context"
	"testing"

	"diversefw/internal/anomaly"
	"diversefw/internal/backtoback"
	"diversefw/internal/compare"
	"diversefw/internal/core"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/impact"
	"diversefw/internal/packet"
	"diversefw/internal/query"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestFullDiverseDesignWorkflow runs design -> compare -> resolve ->
// generate -> verify on two realistic versions, then exercises change
// impact, queries, and audits on the final firewall.
func TestFullDiverseDesignWorkflow(t *testing.T) {
	t.Parallel()

	// Design phase: a reference intent and two team versions derived from
	// it (the Section 8.2.1 model of independent teams).
	reference := synth.Synthetic(synth.Config{Rules: 80, Seed: 1000})
	teamA, _ := synth.Perturb(reference, 10, 2001)
	teamB, _ := synth.Perturb(reference, 10, 2002)

	session, err := core.NewSession(field.IPv4FiveTuple())
	if err != nil {
		t.Fatal(err)
	}
	if err := session.AddVersion("team-a", teamA); err != nil {
		t.Fatal(err)
	}
	if err := session.AddVersion("team-b", teamB); err != nil {
		t.Fatal(err)
	}

	// Comparison phase.
	reports, err := session.Compare()
	if err != nil {
		t.Fatal(err)
	}
	report := reports[0].Report
	if report.Equivalent() {
		t.Skip("perturbations happened to agree; nothing to resolve")
	}

	// Every discrepancy region is genuine (oracle agrees on decisions).
	sm := packet.NewSampler(teamA.Schema, 99)
	for i := 0; i < 3000; i++ {
		pkt := sm.BiasedPair(teamA, teamB)
		da, _ := packet.Oracle(teamA, pkt)
		db, _ := packet.Oracle(teamB, pkt)
		hit := false
		for _, d := range report.Discrepancies {
			if d.Pred.Matches(pkt) {
				hit = true
				if d.A != da || d.B != db {
					t.Fatalf("region decisions wrong for %v", pkt)
				}
			}
		}
		if hit != (da != db) {
			t.Fatalf("region coverage wrong for %v", pkt)
		}
	}

	// Resolution phase: the reference is the ground truth arbiter (the
	// "teams discuss" step, mechanized for the test).
	plan, err := session.Plan(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = plan.ResolveAll(func(i int, d compare.Discrepancy) rule.Decision {
		w := make(rule.Packet, len(d.Pred))
		for f, s := range d.Pred {
			v, _ := s.Min()
			w[f] = v
		}
		dec, _ := packet.Oracle(reference, w)
		return dec
	})
	if err != nil {
		t.Fatal(err)
	}

	final1, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}
	final2, err := plan.Method2(true)
	if err != nil {
		t.Fatal(err)
	}
	for name, final := range map[string]*rule.Policy{"method1": final1, "method2": final2} {
		if err := plan.Verify(final); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	eq, err := compare.Equivalent(final1, final2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("the two generation methods disagree")
	}

	// The final firewall has no redundant rules left after Method 2's
	// compaction... (Method 1 output may; check semantics only.) Spot
	// check: a second session with both finals is all-equivalent.
	s2, err := core.NewSession(field.IPv4FiveTuple())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddVersion("m1", final1); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddVersion("m2", final2); err != nil {
		t.Fatal(err)
	}
	allEq, err := s2.AllEquivalent()
	if err != nil {
		t.Fatal(err)
	}
	if !allEq {
		t.Fatal("finals should be equivalent")
	}

	// Change-impact on the final firewall: swapping two conflicting rules
	// is either a no-op or exactly reported; verify against the oracle.
	if final1.Size() >= 3 {
		after, err := final1.SwapRules(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		im, err := core.AnalyzeChange(final1, after)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			pkt := sm.BiasedPair(final1, after)
			db, _ := packet.Oracle(final1, pkt)
			da, _ := packet.Oracle(after, pkt)
			hit := false
			for _, d := range im.Report.Discrepancies {
				if d.Pred.Matches(pkt) {
					hit = true
				}
			}
			if hit != (da != db) {
				t.Fatalf("impact coverage wrong for %v", pkt)
			}
		}
	}

	// Query the final firewall: accepted destination ports must be the
	// exact projection of accepting regions.
	ports, err := query.RunPolicy(final1, query.Query{
		Select:   3,
		Where:    rule.FullPredicate(final1.Schema),
		Decision: rule.Accept,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		pkt := sm.Biased(final1)
		d, _ := packet.Oracle(final1, pkt)
		if d == rule.Accept && !ports.Contains(pkt[3]) {
			t.Fatalf("port %d accepted but missing from query result", pkt[3])
		}
	}
}

// TestBaselinesAgreeOnEquivalence: every implemented analysis agrees when
// two policies are equivalent — the exact diff, back-to-back testing, and
// redundancy of a concatenation.
func TestBaselinesAgreeOnEquivalence(t *testing.T) {
	t.Parallel()
	p := synth.Synthetic(synth.Config{Rules: 60, Seed: 3})
	q := p.Clone()

	eq, err := compare.Equivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("clone not equivalent")
	}

	res, err := backtoback.Run(p, q, 5000, 1, backtoback.Biased)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Witnesses) != 0 {
		t.Fatal("back-to-back found witnesses between equivalent policies")
	}

	// Prepending p's own first rule is redundant; the complete check
	// must find and remove it without changing semantics.
	dup, err := p.InsertRule(0, p.Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	bld, err := fdd.NewBuilder(dup)
	if err != nil {
		t.Fatal(err)
	}
	compacted, removed, err := redundancy.RemoveAll(context.Background(), bld)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("duplicate rule not detected")
	}
	eq, err = compare.Equivalent(compacted, p)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("compaction changed semantics")
	}

	// The anomaly detector flags the duplicate pair too (as pairwise
	// redundancy or shadowing, depending on decisions).
	found := false
	for _, a := range anomaly.Detect(dup) {
		if a.I == 0 && a.J == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("anomaly detector missed the duplicated rule")
	}

	// And impact analysis sees no functional change from the insertion.
	im, err := impact.Analyze(p, dup)
	if err != nil {
		t.Fatal(err)
	}
	if !im.None() {
		t.Fatal("duplicate insertion reported as impactful")
	}
}
