package fdd

import (
	"context"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
)

func smallSchema() *field.Schema {
	return field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 9), Kind: field.KindInt},
	)
}

// checkAgainstOracle verifies that the FDD decides exactly like the
// policy's first-match oracle on biased samples.
func checkAgainstOracle(t *testing.T, f *FDD, p *rule.Policy, n int, seed int64) {
	t.Helper()
	sm := packet.NewSampler(p.Schema, seed)
	for i := 0; i < n; i++ {
		pkt := sm.Biased(p)
		want, okW := packet.Oracle(p, pkt)
		got, okG := f.Decide(pkt)
		if okW != okG || (okW && want != got) {
			t.Fatalf("packet %v: oracle %v(%v), fdd %v(%v)", pkt, want, okW, got, okG)
		}
	}
}

func TestConstructPaperTeamA(t *testing.T) {
	t.Parallel()
	p := paper.TeamA()
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, p, 2000, 1)
}

func TestConstructPaperTeamB(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, p, 2000, 2)
}

func TestConstructSpecificDecisions(t *testing.T) {
	t.Parallel()
	f, err := Construct(paper.TeamA())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pkt  rule.Packet
		want rule.Decision
	}{
		{"mail from clean host", rule.Packet{0, 1, paper.Gamma, 25, paper.TCP}, rule.Accept},
		{"mail from malicious host (A accepts: rule 1 first)", rule.Packet{0, paper.Alpha, paper.Gamma, 25, paper.TCP}, rule.Accept},
		{"malicious to other host", rule.Packet{0, paper.Alpha, 5, 80, paper.TCP}, rule.Discard},
		{"outgoing", rule.Packet{1, paper.Alpha, 5, 80, paper.UDP}, rule.Accept},
		{"web to mail server", rule.Packet{0, 1, paper.Gamma, 80, paper.TCP}, rule.Accept},
	}
	for _, c := range cases {
		got, ok := f.Decide(c.pkt)
		if !ok || got != c.want {
			t.Errorf("%s: got %v (ok=%v), want %v", c.name, got, ok, c.want)
		}
	}
}

func TestConstructEmptyPolicyFails(t *testing.T) {
	t.Parallel()
	p := rule.MustPolicy(smallSchema(), nil)
	if _, err := Construct(p); err == nil {
		t.Fatal("empty policy should fail")
	}
}

func TestConstructNonComprehensiveFails(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4), s.FullSet(1)}, Decision: rule.Accept},
	})
	if _, err := Construct(p); err == nil {
		t.Fatal("non-comprehensive policy should fail")
	}
}

func TestConstructJointlyComprehensiveWithoutCatchAll(t *testing.T) {
	t.Parallel()
	// Two rules that only jointly cover the space — comprehensive even
	// though neither is a catch-all.
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4), s.FullSet(1)}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(3, 9), s.FullSet(1)}, Decision: rule.Discard},
	})
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, p, 500, 3)
}

func TestConstructEffectiveFlags(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	full := s.FullSet(1)
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4), full}, Decision: rule.Accept},
		{Pred: rule.Predicate{interval.SetOf(2, 3), full}, Decision: rule.Discard}, // shadowed by rule 0
		{Pred: rule.FullPredicate(s), Decision: rule.Discard},
	})
	_, eff, err := ConstructEffectiveContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if eff[i] != want[i] {
			t.Errorf("effective[%d] = %v, want %v", i, eff[i], want[i])
		}
	}
}

func TestRulesArePartition(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.Rules()
	if len(rules) != f.NumPaths() {
		t.Fatalf("got %d rules for %d paths", len(rules), f.NumPaths())
	}
	// Every sampled packet matches exactly one extracted rule, and that
	// rule's decision agrees with the policy.
	sm := packet.NewSampler(p.Schema, 4)
	for i := 0; i < 1000; i++ {
		pkt := sm.Biased(p)
		matches := 0
		var d rule.Decision
		for _, r := range rules {
			if r.Matches(pkt) {
				matches++
				d = r.Decision
			}
		}
		if matches != 1 {
			t.Fatalf("packet %v matches %d extracted rules, want 1", pkt, matches)
		}
		want, _ := packet.Oracle(p, pkt)
		if d != want {
			t.Fatalf("packet %v: extracted rule says %v, policy says %v", pkt, d, want)
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	simple := f.Simplify()
	if !simple.IsSimple() {
		t.Fatal("Simplify output is not simple")
	}
	if err := simple.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, simple, p, 2000, 5)
}

func TestSimplifyEdgesSortedAndSingleInterval(t *testing.T) {
	t.Parallel()
	f, err := Construct(paper.TeamA())
	if err != nil {
		t.Fatal(err)
	}
	simple := f.Simplify()
	var walk func(n *Node)
	walk = func(n *Node) {
		var prev uint64
		for i, e := range n.Edges {
			if e.Label.NumIntervals() != 1 {
				t.Fatalf("edge with %d intervals after Simplify", e.Label.NumIntervals())
			}
			lo, _ := e.Label.Min()
			if i > 0 && lo <= prev {
				t.Fatal("edges not sorted by interval start")
			}
			hi, _ := e.Label.Max()
			prev = hi
			walk(e.To)
		}
	}
	walk(simple.Root)
}

func TestReducePreservesSemanticsAndShrinks(t *testing.T) {
	t.Parallel()
	p := paper.TeamB()
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	red := f.Reduce()
	checkAgainstOracle(t, red, p, 2000, 6)
	if red.Stats().Nodes > f.Stats().Nodes {
		t.Fatalf("Reduce grew the FDD: %d -> %d nodes", f.Stats().Nodes, red.Stats().Nodes)
	}
}

func TestReduceMergesIsomorphicSubgraphs(t *testing.T) {
	t.Parallel()
	// x in 0-4 -> accept; x in 5-9 -> accept — both subtrees are the same
	// terminal, so reduction collapses the whole diagram to one terminal.
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	red := f.Reduce()
	if !red.Root.IsTerminal() {
		t.Fatalf("constant policy should reduce to a terminal, got %d nodes", red.Stats().Nodes)
	}
	if red.Root.Decision != rule.Accept {
		t.Fatalf("decision = %v", red.Root.Decision)
	}
}

func TestDecideOnPartialDiagram(t *testing.T) {
	t.Parallel()
	// Hand-built partial diagram: only x in [0,4] is covered.
	s := smallSchema()
	f := &FDD{
		Schema: s,
		Root: &Node{Field: 0, Edges: []Edge{
			{Label: interval.SetOf(0, 4), To: Terminal(rule.Accept)},
		}},
	}
	if _, ok := f.Decide(rule.Packet{7, 0}); ok {
		t.Fatal("packet off a partial diagram should report !ok")
	}
	if d, ok := f.Decide(rule.Packet{3, 0}); !ok || d != rule.Accept {
		t.Fatalf("covered packet = %v, %v", d, ok)
	}
}

func TestCheckInvariantsCatchesViolations(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	full0, full1 := s.FullSet(0), s.FullSet(1)

	cases := []struct {
		name string
		f    *FDD
	}{
		{"nil root", &FDD{Schema: s}},
		{"incomplete", &FDD{Schema: s, Root: &Node{Field: 0, Edges: []Edge{
			{Label: interval.SetOf(0, 4), To: Terminal(rule.Accept)},
		}}}},
		{"overlapping", &FDD{Schema: s, Root: &Node{Field: 0, Edges: []Edge{
			{Label: interval.SetOf(0, 5), To: Terminal(rule.Accept)},
			{Label: interval.SetOf(5, 9), To: Terminal(rule.Discard)},
		}}}},
		{"bad field", &FDD{Schema: s, Root: &Node{Field: 7, Edges: []Edge{
			{Label: full0, To: Terminal(rule.Accept)},
		}}}},
		{"repeated field", &FDD{Schema: s, Root: &Node{Field: 0, Edges: []Edge{
			{Label: full0, To: &Node{Field: 0, Edges: []Edge{
				{Label: full0, To: Terminal(rule.Accept)},
			}}},
		}}}},
		{"out of order", &FDD{Schema: s, Root: &Node{Field: 1, Edges: []Edge{
			{Label: full1, To: &Node{Field: 0, Edges: []Edge{
				{Label: full0, To: Terminal(rule.Accept)},
			}}},
		}}}},
		{"bad decision", &FDD{Schema: s, Root: Terminal(0)}},
		{"empty label", &FDD{Schema: s, Root: &Node{Field: 0, Edges: []Edge{
			{Label: interval.Set{}, To: Terminal(rule.Accept)},
			{Label: full0, To: Terminal(rule.Accept)},
		}}}},
		{"no edges", &FDD{Schema: s, Root: &Node{Field: 0}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if err := c.f.CheckInvariants(); err == nil {
				t.Fatal("invariant violation not detected")
			}
		})
	}
}

func TestCloneIsIndependent(t *testing.T) {
	t.Parallel()
	f, err := Construct(paper.TeamA())
	if err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	// Mutate the clone's root drastically.
	g.Root.Edges = nil
	g.Root.Field = TerminalField
	g.Root.Decision = rule.Discard
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("mutating clone corrupted the original: %v", err)
	}
}

func TestStats(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 4), interval.SetOf(0, 4)}, Decision: rule.Discard},
		{Pred: rule.FullPredicate(s), Decision: rule.Accept},
	})
	f, err := Construct(p)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Paths != f.NumPaths() {
		t.Fatalf("Stats.Paths %d != NumPaths %d", st.Paths, f.NumPaths())
	}
	if st.Depth != 2 {
		t.Fatalf("depth = %d, want 2", st.Depth)
	}
	if st.Terminals == 0 || st.Nodes <= st.Terminals {
		t.Fatalf("odd stats: %+v", st)
	}
}
