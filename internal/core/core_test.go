package core

import (
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
)

func TestSessionValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSession(nil); err == nil {
		t.Fatal("nil schema should fail")
	}
	s, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("", paper.TeamA()); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := s.AddVersion("A", nil); err == nil {
		t.Fatal("nil policy should fail")
	}
	other := field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	wrong := rule.MustPolicy(other, []rule.Rule{rule.CatchAll(other, rule.Accept)})
	if err := s.AddVersion("A", wrong); err == nil {
		t.Fatal("wrong schema should fail")
	}
	if err := s.AddVersion("A", paper.TeamA()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("A", paper.TeamB()); err == nil {
		t.Fatal("duplicate name should fail")
	}
	// Non-comprehensive designs are rejected at submission.
	partial := rule.MustPolicy(paper.Schema(), []rule.Rule{{
		Pred: rule.Predicate{
			interval.SetOf(0, 0), paper.Schema().FullSet(1), paper.Schema().FullSet(2),
			paper.Schema().FullSet(3), paper.Schema().FullSet(4),
		},
		Decision: rule.Accept,
	}})
	if err := s.AddVersion("partial", partial); err == nil {
		t.Fatal("non-comprehensive version should fail")
	}
	if _, err := s.Compare(); err == nil {
		t.Fatal("comparing with one version should fail")
	}
}

func TestSessionTwoTeamWorkflow(t *testing.T) {
	t.Parallel()
	s, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("Team A", paper.TeamA()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("Team B", paper.TeamB()); err != nil {
		t.Fatal(err)
	}
	reports, err := s.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
	if len(reports[0].Report.Discrepancies) != 3 {
		t.Fatalf("got %d discrepancies, want 3", len(reports[0].Report.Discrepancies))
	}
	eq, err := s.AllEquivalent()
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("teams disagree; AllEquivalent should be false")
	}

	// Resolution phase through the session.
	plan, err := s.Plan(0, 1)
	if err != nil {
		t.Fatal(err)
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
		return rule.Discard
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := plan.Method1()
	if err != nil {
		t.Fatal(err)
	}

	// A new session with the final firewall on both sides is equivalent.
	s2, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddVersion("final-1", final); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddVersion("final-2", final.Clone()); err != nil {
		t.Fatal(err)
	}
	eq, err = s2.AllEquivalent()
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("identical finals should be equivalent")
	}
}

func TestSessionThreeTeams(t *testing.T) {
	t.Parallel()
	s, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name string
		p    *rule.Policy
	}{
		{"A", paper.TeamA()},
		{"B", paper.TeamB()},
		{"C", paper.AgreedFirewall()},
	} {
		if err := s.AddVersion(v.name, v.p); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := s.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("3 teams should give 3 pair reports, got %d", len(reports))
	}
	if len(s.Versions()) != 3 {
		t.Fatal("versions lost")
	}

	// Direct N-way comparison (Section 7.3) on the same session.
	nrep, err := s.CompareDirect()
	if err != nil {
		t.Fatal(err)
	}
	if nrep.Equivalent() {
		t.Fatal("three differing versions reported equivalent")
	}
	for _, d := range nrep.Discrepancies {
		if len(d.Decisions) != 3 {
			t.Fatalf("row carries %d decisions, want 3", len(d.Decisions))
		}
	}
}

func TestCompareDirectNeedsTwoVersions(t *testing.T) {
	t.Parallel()
	s, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("only", paper.TeamA()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompareDirect(); err == nil {
		t.Fatal("one version should fail")
	}
}

func TestAddVersionFDD(t *testing.T) {
	t.Parallel()
	s, err := NewSession(paper.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// One team designs with rules, the other directly as an FDD
	// (Section 7.2).
	fb, err := fdd.Construct(paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion("A", paper.TeamA()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersionFDD("B", fb.Reduce()); err != nil {
		t.Fatal(err)
	}
	reports, err := s.Compare()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports[0].Report.Discrepancies) != 3 {
		t.Fatalf("FDD-submitted version must diff identically; got %d rows",
			len(reports[0].Report.Discrepancies))
	}
	if err := s.AddVersionFDD("nil", nil); err == nil {
		t.Fatal("nil FDD should fail")
	}
}

// TestAddVersionFDDDifferentFieldOrder covers Section 7.2's second case:
// a team designs its FDD with the fields in a different order. The
// diagram is still a valid (non-ordered, relative to the session) FDD and
// must be accepted and compared correctly.
func TestAddVersionFDDDifferentFieldOrder(t *testing.T) {
	t.Parallel()
	schema := paper.Schema()
	// A hand-built FDD testing D (field 2) before I (field 0):
	// D=γ: I=0 -> discard, I=1 -> accept; D≠γ: accept.
	gamma := interval.SetOf(paper.Gamma, paper.Gamma)
	notGamma := schema.FullSet(paper.FieldD).Subtract(gamma)
	iNode := &fdd.Node{Field: paper.FieldI, Edges: []fdd.Edge{
		{Label: interval.SetOf(0, 0), To: fdd.Terminal(rule.Discard)},
		{Label: interval.SetOf(1, 1), To: fdd.Terminal(rule.Accept)},
	}}
	f := &fdd.FDD{Schema: schema, Root: &fdd.Node{Field: paper.FieldD, Edges: []fdd.Edge{
		{Label: gamma, To: iNode},
		{Label: notGamma, To: fdd.Terminal(rule.Accept)},
	}}}
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("diagram is not ordered; strict check should fail")
	}
	if err := f.CheckSemanticInvariants(); err != nil {
		t.Fatalf("semantic check should pass: %v", err)
	}

	s, err := NewSession(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersionFDD("out-of-order", f); err != nil {
		t.Fatal(err)
	}
	// The registered version must preserve the diagram's semantics.
	p := s.Versions()[0].Policy
	cases := []struct {
		pkt  rule.Packet
		want rule.Decision
	}{
		{rule.Packet{0, 5, paper.Gamma, 25, 0}, rule.Discard},
		{rule.Packet{1, 5, paper.Gamma, 25, 0}, rule.Accept},
		{rule.Packet{0, 5, 7, 25, 0}, rule.Accept},
	}
	for _, c := range cases {
		got, _, ok := p.Decide(c.pkt)
		if !ok || got != c.want {
			t.Fatalf("packet %v: got %v (ok=%v), want %v", c.pkt, got, ok, c.want)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	t.Parallel()
	s, _ := NewSession(paper.Schema())
	_ = s.AddVersion("A", paper.TeamA())
	_ = s.AddVersion("B", paper.TeamB())
	for _, pair := range [][2]int{{0, 0}, {-1, 1}, {0, 5}} {
		if _, err := s.Plan(pair[0], pair[1]); err == nil {
			t.Fatalf("pair %v should fail", pair)
		}
	}
	if _, err := s.Plan(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDiffAndAnalyzeChangeFacade(t *testing.T) {
	t.Parallel()
	report, err := Diff(paper.TeamA(), paper.TeamB())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Discrepancies) != 3 {
		t.Fatalf("facade Diff rows = %d", len(report.Discrepancies))
	}
	after, err := paper.TeamA().SwapRules(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	im, err := AnalyzeChange(paper.TeamA(), after)
	if err != nil {
		t.Fatal(err)
	}
	if im.None() {
		t.Fatal("swap should have impact")
	}
}
