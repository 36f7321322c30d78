package bdd

import (
	"math/rand"
	"testing"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// diffWalks are the two ways to diff two policies: compare.Diff's
// product walk and the paper's shape-and-lockstep reference. The
// independent check below holds both.
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

func TestTerminalsAndVar(t *testing.T) {
	t.Parallel()
	m := NewManager(2)
	v0 := m.Var(0)
	if !m.Eval(v0, []bool{true, false}) || m.Eval(v0, []bool{false, true}) {
		t.Fatal("Var(0) evaluation wrong")
	}
	if m.Var(0) != v0 {
		t.Fatal("hash-consing should return the same node")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Var should panic")
		}
	}()
	NewManager(1).Var(5)
}

func TestBooleanOps(t *testing.T) {
	t.Parallel()
	m := NewManager(3)
	a, b := m.Var(0), m.Var(1)
	assign := func(x, y bool) []bool { return []bool{x, y, false} }
	for _, x := range []bool{false, true} {
		for _, y := range []bool{false, true} {
			if m.Eval(m.And(a, b), assign(x, y)) != (x && y) {
				t.Errorf("And(%v, %v) wrong", x, y)
			}
			if m.Eval(m.Or(a, b), assign(x, y)) != (x || y) {
				t.Errorf("Or(%v, %v) wrong", x, y)
			}
			if m.Eval(m.Xor(a, b), assign(x, y)) != (x != y) {
				t.Errorf("Xor(%v, %v) wrong", x, y)
			}
			if m.Eval(m.Not(a), assign(x, y)) != !x {
				t.Errorf("Not(%v) wrong", x)
			}
		}
	}
}

func TestCanonicity(t *testing.T) {
	t.Parallel()
	m := NewManager(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a∧b)∨c built two different ways must be the same node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Or(c, m.And(b, a))
	if f1 != f2 {
		t.Fatal("equivalent functions got different nodes")
	}
	// x ⊕ x = false, ¬¬x = x.
	if m.Xor(f1, f1) != False {
		t.Fatal("x^x != false")
	}
	if m.Not(m.Not(f1)) != f1 {
		t.Fatal("double negation not canonical")
	}
}

func TestCubeCountAndSatFraction(t *testing.T) {
	t.Parallel()
	m := NewManager(2)
	a, b := m.Var(0), m.Var(1)
	or := m.Or(a, b)
	// Paths to true: a=1 (one cube), a=0∧b=1 (one cube) = 2 cubes.
	if got := m.CubeCount(or); got != 2 {
		t.Fatalf("CubeCount(or) = %v", got)
	}
	if got := m.SatFraction(or); got != 0.75 {
		t.Fatalf("SatFraction(or) = %v", got)
	}
	if m.CubeCount(False) != 0 || m.CubeCount(True) != 1 {
		t.Fatal("terminal cube counts wrong")
	}
}

func smallSchema() *field.Schema {
	return field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 15), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 7), Kind: field.KindInt},
	)
}

func TestEncoderInterval(t *testing.T) {
	t.Parallel()
	e := NewEncoder(smallSchema())
	if e.M.NumVars() != 4+3 {
		t.Fatalf("vars = %d, want 7", e.M.NumVars())
	}
	n := e.Interval(0, 3, 9)
	// Exhaustively check the encoding over field x.
	for v := uint64(0); v <= 15; v++ {
		assign := assignmentFor(e, rule.Packet{v, 0})
		want := v >= 3 && v <= 9
		if got := e.M.Eval(n, assign); got != want {
			t.Fatalf("Interval(3, 9) at %d = %v, want %v", v, got, want)
		}
	}
}

// assignmentFor bit-blasts a packet into a variable assignment.
func assignmentFor(e *Encoder, pkt rule.Packet) []bool {
	assign := make([]bool, e.M.NumVars())
	for f, v := range pkt {
		bits := e.FieldBits(f)
		w := len(bits)
		for i, varIdx := range bits {
			assign[varIdx] = v>>uint(w-1-i)&1 == 1
		}
	}
	return assign
}

func TestEncodePolicyMatchesOracle(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(2, 9), interval.SetOf(0, 3)}, Decision: rule.Discard},
		{Pred: rule.Predicate{interval.SetOf(5, 12), s.FullSet(1)}, Decision: rule.Accept},
		rule.CatchAll(s, rule.Discard),
	})
	e := NewEncoder(s)
	n, err := e.EncodePolicy(p, func(d rule.Decision) bool { return d == rule.Accept })
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x <= 15; x++ {
		for y := uint64(0); y <= 7; y++ {
			pkt := rule.Packet{x, y}
			d, _, _ := p.Decide(pkt)
			want := d == rule.Accept
			if got := e.M.Eval(n, assignmentFor(e, pkt)); got != want {
				t.Fatalf("packet %v: bdd %v, oracle %v", pkt, got, want)
			}
		}
	}
}

func TestEncodePolicyNonComprehensive(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{
		{Pred: rule.Predicate{interval.SetOf(0, 3), s.FullSet(1)}, Decision: rule.Accept},
	})
	e := NewEncoder(s)
	if _, err := e.EncodePolicy(p, func(d rule.Decision) bool { return d == rule.Accept }); err == nil {
		t.Fatal("non-comprehensive policy should fail")
	}
}

func TestDiffPoliciesAgreesWithFDDPipeline(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	e, res, err := DiffPolicies(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	// The XOR set must contain exactly the disagreement packets.
	sm := packet.NewSampler(pa.Schema, 3)
	for i := 0; i < 2000; i++ {
		pkt := sm.BiasedPair(pa, pb)
		da, _ := packet.Oracle(pa, pkt)
		db, _ := packet.Oracle(pb, pkt)
		want := da != db
		if got := e.M.Eval(res.Diff, assignmentFor(e, pkt)); got != want {
			t.Fatalf("packet %v: diff BDD %v, oracle disagreement %v", pkt, got, want)
		}
	}
	if res.Fraction <= 0 {
		t.Fatal("teams disagree on a nonzero fraction")
	}
}

// TestSection75Explosion reproduces the paper's quantitative claim: the
// BDD flattening of the example diff is dramatically larger than the FDD
// pipeline's three rows.
func TestSection75Explosion(t *testing.T) {
	t.Parallel()
	pa, pb := paper.TeamA(), paper.TeamB()
	_, res, err := DiffPolicies(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range diffWalks {
		report, err := w.diff(pa, pb)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fddRows := float64(len(report.Discrepancies))
		if fddRows == 0 || res.Cubes < 20*fddRows {
			t.Fatalf("%s: expected bit-level cube explosion: %v cubes vs %v FDD rows", w.name, res.Cubes, fddRows)
		}
	}
}

func TestDiffPoliciesSchemaMismatch(t *testing.T) {
	t.Parallel()
	s := smallSchema()
	p := rule.MustPolicy(s, []rule.Rule{rule.CatchAll(s, rule.Accept)})
	if _, _, err := DiffPolicies(p, paper.TeamA()); err == nil {
		t.Fatal("schema mismatch should fail")
	}
}

// TestPropBDDvsOracle fuzzes the encoder on random small policies.
func TestPropBDDvsOracle(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(41))
	s := smallSchema()
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(6)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			lo1 := uint64(r.Intn(16))
			hi1 := lo1 + uint64(r.Intn(16-int(lo1)))
			lo2 := uint64(r.Intn(8))
			hi2 := lo2 + uint64(r.Intn(8-int(lo2)))
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, rule.Rule{
				Pred:     rule.Predicate{interval.SetOf(lo1, hi1), interval.SetOf(lo2, hi2)},
				Decision: d,
			})
		}
		rules = append(rules, rule.CatchAll(s, rule.Discard))
		p := rule.MustPolicy(s, rules)

		e := NewEncoder(s)
		node, err := e.EncodePolicy(p, func(d rule.Decision) bool { return d == rule.Accept })
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x <= 15; x++ {
			for y := uint64(0); y <= 7; y++ {
				pkt := rule.Packet{x, y}
				d, _, _ := p.Decide(pkt)
				if got := e.M.Eval(node, assignmentFor(e, pkt)); got != (d == rule.Accept) {
					t.Fatalf("trial %d packet %v wrong", trial, pkt)
				}
			}
		}
	}
}
