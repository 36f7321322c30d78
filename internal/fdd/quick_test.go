package fdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/packet"
	"diversefw/internal/rule"
)

// policyArg is a quick.Generator producing a random comprehensive policy
// over a 3-field schema with domain [0, 63] per field.
type policyArg struct {
	p *rule.Policy
}

func quickSchema() *field.Schema {
	return field.MustSchema(
		field.Field{Name: "a", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
		field.Field{Name: "b", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
		field.Field{Name: "c", Domain: interval.MustNew(0, 63), Kind: field.KindInt},
	)
}

func (policyArg) Generate(r *rand.Rand, _ int) reflect.Value {
	schema := quickSchema()
	n := 1 + r.Intn(10)
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		pred := make(rule.Predicate, 3)
		for fi := 0; fi < 3; fi++ {
			switch r.Intn(4) {
			case 0:
				pred[fi] = schema.FullSet(fi)
			case 1:
				// Multi-interval set.
				lo1 := uint64(r.Intn(30))
				hi1 := lo1 + uint64(r.Intn(10))
				lo2 := hi1 + 2 + uint64(r.Intn(10))
				hi2 := lo2 + uint64(r.Intn(10))
				if hi2 > 63 {
					hi2 = 63
				}
				if lo2 > 63 {
					pred[fi] = interval.SetOf(lo1, hi1)
				} else {
					pred[fi] = interval.NewSet(interval.MustNew(lo1, hi1), interval.MustNew(lo2, hi2))
				}
			default:
				lo := uint64(r.Intn(64))
				hi := lo + uint64(r.Intn(64-int(lo)))
				pred[fi] = interval.SetOf(lo, hi)
			}
		}
		d := rule.Accept
		if r.Intn(2) == 0 {
			d = rule.Discard
		}
		rules = append(rules, rule.Rule{Pred: pred, Decision: d})
	}
	rules = append(rules, rule.CatchAll(schema, rule.DiscardLog))
	return reflect.ValueOf(policyArg{p: rule.MustPolicy(schema, rules)})
}

var _ quick.Generator = policyArg{}

// TestPropQuickConstructInvariants: every constructed FDD satisfies the
// full invariant set and decides like the first-match oracle.
func TestPropQuickConstructInvariants(t *testing.T) {
	t.Parallel()
	f := func(a policyArg, seed int64) bool {
		fd, err := Construct(a.p)
		if err != nil {
			t.Logf("construct: %v", err)
			return false
		}
		if err := fd.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		sm := packet.NewSampler(a.p.Schema, seed)
		for i := 0; i < 50; i++ {
			pkt := sm.Biased(a.p)
			want, _ := packet.Oracle(a.p, pkt)
			got, ok := fd.Decide(pkt)
			if !ok || got != want {
				t.Logf("packet %v: %v vs %v", pkt, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropQuickRulesRoundTrip: extracting f.rules and constructing again
// yields an equivalent diagram (the rules are a faithful, order-free
// representation).
func TestPropQuickRulesRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(a policyArg, seed int64) bool {
		fd, err := Construct(a.p)
		if err != nil {
			return false
		}
		back, err := rule.NewPolicy(a.p.Schema, fd.Rules())
		if err != nil {
			t.Logf("rules invalid: %v", err)
			return false
		}
		fd2, err := Construct(back)
		if err != nil {
			t.Logf("reconstruct: %v", err)
			return false
		}
		sm := packet.NewSampler(a.p.Schema, seed)
		for i := 0; i < 50; i++ {
			pkt := sm.Biased(a.p)
			d1, _ := fd.Decide(pkt)
			d2, _ := fd2.Decide(pkt)
			if d1 != d2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropQuickReduceIdempotent: reduction is idempotent and size
// monotone.
func TestPropQuickReduceIdempotent(t *testing.T) {
	t.Parallel()
	f := func(a policyArg) bool {
		fd, err := Construct(a.p)
		if err != nil {
			return false
		}
		r1 := fd.Reduce()
		r2 := r1.Reduce()
		if r2.Stats().Nodes != r1.Stats().Nodes {
			t.Logf("reduce not idempotent: %d -> %d nodes", r1.Stats().Nodes, r2.Stats().Nodes)
			return false
		}
		return r1.Stats().Nodes <= fd.Stats().Nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// isomorphicDAG reports whether two reduced diagrams are structurally
// identical up to node identity: same fields, same edge labels in the
// same order, same terminal decisions. It memoizes on node pairs so
// shared subgraphs are compared once.
func isomorphicDAG(a, b *Node) bool {
	memo := make(map[[2]*Node]bool)
	var walk func(a, b *Node) bool
	walk = func(a, b *Node) bool {
		pair := [2]*Node{a, b}
		if v, ok := memo[pair]; ok {
			return v
		}
		ok := a.Field == b.Field && a.Decision == b.Decision && len(a.Edges) == len(b.Edges)
		for i := 0; ok && i < len(a.Edges); i++ {
			ok = a.Edges[i].Label.Equal(b.Edges[i].Label) && walk(a.Edges[i].To, b.Edges[i].To)
		}
		memo[pair] = ok
		return ok
	}
	return walk(a, b)
}

// TestPropQuickReduceDifferential: the hash-consed store-based Reduce
// and the retained string-signature reduction (reduceLegacy) produce
// structurally identical diagrams — not merely equivalent ones — on
// random policies. The diagrams are expanded with Simplify first so both
// reducers start from the same unreduced tree.
func TestPropQuickReduceDifferential(t *testing.T) {
	t.Parallel()
	count := 0
	f := func(a policyArg, seed int64) bool {
		fd, err := Construct(a.p)
		if err != nil {
			return false
		}
		tree := fd.Simplify()
		newRed := tree.Reduce()
		oldRed := tree.reduceLegacy()
		if !isomorphicDAG(newRed.Root, oldRed.Root) {
			t.Logf("reductions differ structurally:\nnew: %+v\nold: %+v", newRed.Stats(), oldRed.Stats())
			return false
		}
		if newRed.Stats() != oldRed.Stats() {
			t.Logf("stats differ: %+v vs %+v", newRed.Stats(), oldRed.Stats())
			return false
		}
		sm := packet.NewSampler(a.p.Schema, seed)
		for i := 0; i < 30; i++ {
			pkt := sm.Biased(a.p)
			d1, ok1 := newRed.Decide(pkt)
			d2, ok2 := oldRed.Decide(pkt)
			if !ok1 || !ok2 || d1 != d2 {
				t.Logf("packet %v: new %v old %v", pkt, d1, d2)
				return false
			}
		}
		count++
		return true
	}
	// The acceptance bar is agreement on >= 200 random policies.
	if err := quick.Check(f, &quick.Config{MaxCount: 220}); err != nil {
		t.Fatal(err)
	}
	if count < 200 {
		t.Fatalf("only %d policies exercised, want >= 200", count)
	}
}

// TestPropQuickCodecRoundTrip: Marshal/Unmarshal preserves semantics for
// arbitrary constructed diagrams.
func TestPropQuickCodecRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(a policyArg, seed int64) bool {
		fd, err := Construct(a.p)
		if err != nil {
			return false
		}
		var sb strings.Builder
		if err := Marshal(&sb, fd); err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := Unmarshal(strings.NewReader(sb.String()), a.p.Schema)
		if err != nil {
			t.Logf("unmarshal: %v\n%s", err, sb.String())
			return false
		}
		sm := packet.NewSampler(a.p.Schema, seed)
		for i := 0; i < 50; i++ {
			pkt := sm.Biased(a.p)
			d1, _ := fd.Decide(pkt)
			d2, ok := back.Decide(pkt)
			if !ok || d1 != d2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// reduceLegacy is the original string-signature reduction: hash-consing
// by fmt.Sprintf keys in a map[string]*Node. It is retained solely as
// the differential-testing oracle for the Store-based Reduce (see
// TestPropQuickReduceDifferential); new code must use Reduce.
func (f *FDD) reduceLegacy() *FDD {
	canon := make(map[string]*Node) // signature -> canonical node
	sigOf := make(map[*Node]string) // canonical node -> its signature
	var reduce func(n *Node) *Node
	reduce = func(n *Node) *Node {
		if n.IsTerminal() {
			sig := fmt.Sprintf("t%d", int(n.Decision))
			if c, ok := canon[sig]; ok {
				return c
			}
			c := Terminal(n.Decision)
			canon[sig] = c
			sigOf[c] = sig
			return c
		}

		// Reduce children first, then merge edges that lead to the same
		// canonical child.
		merged := make(map[*Node]*Edge)
		var order []*Node
		for _, e := range n.Edges {
			child := reduce(e.To)
			if prev, ok := merged[child]; ok {
				prev.Label = prev.Label.Union(e.Label)
				continue
			}
			ne := &Edge{Label: e.Label, To: child}
			merged[child] = ne
			order = append(order, child)
		}
		edges := make([]Edge, 0, len(order))
		for _, child := range order {
			edges = append(edges, *merged[child])
		}
		// A node whose edges all lead to one child tests nothing, provided
		// the merged edge covers the whole domain (it always does in a
		// complete FDD, but Reduce also runs on partial diagrams during
		// construction, where an incomplete node must be preserved).
		if len(edges) == 1 && edges[0].Label.Equal(f.Schema.FullSet(n.Field)) {
			return edges[0].To
		}

		// Canonical signature: field plus (label, child-signature) pairs in
		// label order.
		sort.Slice(edges, func(i, j int) bool {
			a, _ := edges[i].Label.Min()
			b, _ := edges[j].Label.Min()
			return a < b
		})
		var sb strings.Builder
		fmt.Fprintf(&sb, "n%d", n.Field)
		for _, e := range edges {
			fmt.Fprintf(&sb, "|%s>%s", e.Label, sigOf[e.To])
		}
		sig := sb.String()
		if c, ok := canon[sig]; ok {
			return c
		}
		c := &Node{Field: n.Field, Edges: edges}
		canon[sig] = c
		sigOf[c] = sig
		return c
	}
	return &FDD{Schema: f.Schema, Root: reduce(f.Root)}
}
