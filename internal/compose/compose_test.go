package compose

import (
	"context"
	"math/rand"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/rule"
)

func schema1() *field.Schema {
	return field.MustSchema(field.Field{Name: "x", Domain: interval.MustNew(0, 99), Kind: field.KindInt})
}

func pol(t *testing.T, rules ...rule.Rule) *rule.Policy {
	t.Helper()
	p, err := rule.NewPolicy(schema1(), rules)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func r1(lo, hi uint64, d rule.Decision) rule.Rule {
	return rule.Rule{Pred: rule.Predicate{interval.SetOf(lo, hi)}, Decision: d}
}

func TestSerialDecisions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		d1, d2, want rule.Decision
	}{
		{rule.Accept, rule.Accept, rule.Accept},
		{rule.Accept, rule.Discard, rule.Discard},
		{rule.Discard, rule.Accept, rule.Discard},
		{rule.Discard, rule.Discard, rule.Discard},
		{rule.AcceptLog, rule.Accept, rule.AcceptLog},
		{rule.Accept, rule.AcceptLog, rule.AcceptLog},
		{rule.AcceptLog, rule.Discard, rule.DiscardLog},
		{rule.DiscardLog, rule.Accept, rule.DiscardLog},
	}
	for _, c := range cases {
		if got := SerialDecisions(c.d1, c.d2); got != c.want {
			t.Errorf("SerialDecisions(%v, %v) = %v, want %v", c.d1, c.d2, got, c.want)
		}
	}
}

func TestCombineSerialPointwise(t *testing.T) {
	t.Parallel()
	// Hop 1 accepts [0,60]; hop 2 accepts [40,99]. Serially only [40,60]
	// passes.
	p1 := pol(t, r1(0, 60, rule.Accept), rule.CatchAll(schema1(), rule.Discard))
	p2 := pol(t, r1(40, 99, rule.Accept), rule.CatchAll(schema1(), rule.Discard))
	combined, err := Serial(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v <= 99; v++ {
		want := rule.Discard
		if v >= 40 && v <= 60 {
			want = rule.Accept
		}
		got, _, ok := combined.Decide(rule.Packet{v})
		if !ok || got != want {
			t.Fatalf("x=%d: got %v, want %v", v, got, want)
		}
	}
}

func TestCombineAgainstOracle(t *testing.T) {
	t.Parallel()
	p1 := pol(t,
		r1(0, 30, rule.AcceptLog),
		r1(31, 70, rule.Accept),
		rule.CatchAll(schema1(), rule.Discard),
	)
	p2 := pol(t,
		r1(20, 50, rule.Discard),
		rule.CatchAll(schema1(), rule.Accept),
	)
	combined, err := Combine(p1, p2, SerialDecisions)
	if err != nil {
		t.Fatal(err)
	}
	sm := packet.NewSampler(schema1(), 3)
	for i := 0; i < 1000; i++ {
		pkt := sm.Uniform()
		d1, _ := packet.Oracle(p1, pkt)
		d2, _ := packet.Oracle(p2, pkt)
		want := SerialDecisions(d1, d2)
		got, _ := packet.Oracle(combined, pkt)
		if got != want {
			t.Fatalf("packet %v: got %v, want %v (%v, %v)", pkt, got, want, d1, d2)
		}
	}
}

func TestSerialChainOfThree(t *testing.T) {
	t.Parallel()
	p1 := pol(t, r1(0, 80, rule.Accept), rule.CatchAll(schema1(), rule.Discard))
	p2 := pol(t, r1(20, 99, rule.Accept), rule.CatchAll(schema1(), rule.Discard))
	p3 := pol(t, r1(0, 50, rule.Accept), rule.CatchAll(schema1(), rule.Discard))
	combined, err := Serial(p1, p2, p3)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v <= 99; v++ {
		want := rule.Discard
		if v >= 20 && v <= 50 {
			want = rule.Accept
		}
		got, _, _ := combined.Decide(rule.Packet{v})
		if got != want {
			t.Fatalf("x=%d: got %v, want %v", v, got, want)
		}
	}
}

func TestCombineValidation(t *testing.T) {
	t.Parallel()
	p := pol(t, rule.CatchAll(schema1(), rule.Accept))
	other := field.MustSchema(field.Field{Name: "y", Domain: interval.MustNew(0, 9), Kind: field.KindInt})
	q := rule.MustPolicy(other, []rule.Rule{rule.CatchAll(other, rule.Accept)})
	if _, err := Combine(p, q, SerialDecisions); err == nil {
		t.Fatal("schema mismatch should fail")
	}
	if _, err := Combine(p, p, nil); err == nil {
		t.Fatal("nil combiner should fail")
	}
	if _, err := Serial(); err == nil {
		t.Fatal("empty chain should fail")
	}
}

// TestPropSerialAssociative: serial composition is associative —
// (p1 ; p2) ; p3 ≡ p1 ; (p2 ; p3) — on random chains.
func TestPropSerialAssociative(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(17))
	randPolicy := func() *rule.Policy {
		n := 1 + r.Intn(4)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			lo := uint64(r.Intn(100))
			hi := lo + uint64(r.Intn(100-int(lo)))
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, r1(lo, hi, d))
		}
		rules = append(rules, rule.CatchAll(schema1(), rule.Accept))
		p, err := rule.NewPolicy(schema1(), rules)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for trial := 0; trial < 10; trial++ {
		p1, p2, p3 := randPolicy(), randPolicy(), randPolicy()
		left12, err := Combine(p1, p2, SerialDecisions)
		if err != nil {
			t.Fatal(err)
		}
		left, err := Combine(left12, p3, SerialDecisions)
		if err != nil {
			t.Fatal(err)
		}
		right23, err := Combine(p2, p3, SerialDecisions)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Combine(p1, right23, SerialDecisions)
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(0); v <= 99; v++ {
			dl, _, _ := left.Decide(rule.Packet{v})
			dr, _, _ := right.Decide(rule.Packet{v})
			if dl != dr {
				t.Fatalf("trial %d: associativity broken at %d: %v vs %v", trial, v, dl, dr)
			}
		}
	}
}

func TestSerialSinglePolicyIsIdentity(t *testing.T) {
	t.Parallel()
	p := pol(t, r1(0, 10, rule.Discard), rule.CatchAll(schema1(), rule.Accept))
	got, err := Serial(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v <= 99; v++ {
		want, _, _ := p.Decide(rule.Packet{v})
		d, _, _ := got.Decide(rule.Packet{v})
		if d != want {
			t.Fatalf("x=%d changed", v)
		}
	}
}

// TestProductSharedNodesUnderSerial pins the pointer-identity
// short-circuit to the pair diff. A base and a resumed edit of one
// builder family share every subgraph the edit left alone; under the
// serial combiner a shared pair (n, n) still decides
// SerialDecisions(d, d) = d below n, not "agree", so the product must
// descend into it. Every packet of the small schema is checked.
func TestProductSharedNodesUnderSerial(t *testing.T) {
	t.Parallel()
	s := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 15), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 15), Kind: field.KindInt},
	)
	rr := func(x0, x1, y0, y1 uint64, d rule.Decision) rule.Rule {
		return rule.Rule{Pred: rule.Predicate{interval.SetOf(x0, x1), interval.SetOf(y0, y1)}, Decision: d}
	}
	base := rule.MustPolicy(s, []rule.Rule{
		rr(0, 3, 0, 7, rule.AcceptLog),
		rr(4, 7, 8, 15, rule.Discard),
		rr(8, 11, 2, 9, rule.Accept),
		rr(12, 15, 0, 3, rule.DiscardLog),
		rr(10, 13, 10, 15, rule.Discard),
		rule.CatchAll(s, rule.Accept),
	})
	edit, err := base.ReplaceRule(4, rr(10, 13, 10, 15, rule.AcceptLog))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fdd.NewBuilder(base)
	if err != nil {
		t.Fatal(err)
	}
	eb, _, err := b.Resume(context.Background(), edit)
	if err != nil {
		t.Fatal(err)
	}
	fa, fe := b.FDD(), eb.FDD()
	inBase := map[*fdd.Node]bool{}
	var mark func(n *fdd.Node)
	mark = func(n *fdd.Node) {
		inBase[n] = true
		for _, e := range n.Edges {
			mark(e.To)
		}
	}
	mark(fa.Root)
	shared := false
	for _, e := range fe.Root.Edges {
		shared = shared || (!e.To.IsTerminal() && inBase[e.To])
	}
	if !shared {
		t.Fatal("the edit shares no nonterminal subgraph with its base; the test needs one")
	}

	got, err := compare.Product(context.Background(), fa, fe, SerialDecisions)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x <= 15; x++ {
		for y := uint64(0); y <= 15; y++ {
			pkt := rule.Packet{x, y}
			da, _ := packet.Oracle(base, pkt)
			de, _ := packet.Oracle(edit, pkt)
			if d, _ := got.Decide(pkt); d != SerialDecisions(da, de) {
				t.Fatalf("packet %v: product decides %v, want SerialDecisions(%v, %v) = %v",
					pkt, d, da, de, SerialDecisions(da, de))
			}
		}
	}
}
