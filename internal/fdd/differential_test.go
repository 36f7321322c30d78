package fdd

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// The differential gate for construction: the canonical, memoized append
// must build exactly the diagram the Fig. 7 reference (reference_test.go)
// builds — the same node in one store, with the same effective bits —
// and a Resume must land where a scratch build does.

// assertMatchesReference builds p both ways and compares them node for
// node in the builder's own family store. It then applies 1-3 random
// edits and checks that resuming the builder matches a scratch build
// of the edited policy.
func assertMatchesReference(t *testing.T, name string, p *rule.Policy, r *rand.Rand) {
	t.Helper()
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("%s: NewBuilder: %v", name, err)
	}
	ref, refEff := referenceBuild(NewInterner(), p)
	stored := b.StoreNodes()
	if got := b.core.in.ReduceNode(p.Schema, ref); got != b.FDD().Root {
		t.Fatalf("%s: canonical root differs from the reduced Fig. 7 reference", name)
	}
	if b.StoreNodes() != stored {
		t.Fatalf("%s: reducing the reference added %d nodes to the family store",
			name, b.StoreNodes()-stored)
	}
	if !reflect.DeepEqual(b.Effective(), refEff) {
		t.Fatalf("%s: effective bits differ\ncanonical %v\nreference %v", name, b.Effective(), refEff)
	}

	after := editPolicy(p, r, 1+r.Intn(3))
	resumed, _, rerr := b.Resume(context.Background(), after)
	scratch, serr := NewBuilder(after)
	if (rerr == nil) != (serr == nil) {
		t.Fatalf("%s: resume err %v, scratch err %v", name, rerr, serr)
	}
	if rerr != nil {
		return
	}
	if resumed.core.in.ReduceNode(after.Schema, scratch.FDD().Root) != resumed.FDD().Root {
		t.Fatalf("%s: resumed root differs from scratch construction", name)
	}
	if !reflect.DeepEqual(resumed.Effective(), scratch.Effective()) {
		t.Fatalf("%s: resumed effective bits differ from scratch", name)
	}
}

// editPolicy applies n random schema-valid edits (replace, insert,
// delete, swap), drawing donor rules from the policy with a flipped
// decision. Edits invalid at their position are skipped.
func editPolicy(p *rule.Policy, r *rand.Rand, n int) *rule.Policy {
	for ; n > 0 && p.Size() >= 2; n-- {
		pos := r.Intn(p.Size())
		donor := p.Rules[r.Intn(p.Size())]
		donor.Decision = flip(donor.Decision)
		var next *rule.Policy
		var err error
		switch r.Intn(4) {
		case 0:
			next, err = p.ReplaceRule(pos, donor)
		case 1:
			next, err = p.InsertRule(pos, donor)
		case 2:
			next, err = p.DeleteRule(pos)
		default:
			next, err = p.SwapRules(pos, r.Intn(p.Size()))
		}
		if err == nil {
			p = next
		}
	}
	return p
}

func TestCanonicalAppendMatchesReferenceRealLife(t *testing.T) {
	t.Parallel()
	bases := 8
	if testing.Short() {
		bases = 2
	}
	r := rand.New(rand.NewSource(661))
	for k := 0; k < bases; k++ {
		base := synth.RealLife(661, int64(k+1))
		a, _ := synth.Perturb(base, 1+4*r.Float64(), r.Int63())
		b, _ := synth.Perturb(a, 5+45*float64(k)/7, r.Int63())
		assertMatchesReference(t, fmt.Sprintf("base %d", k+1), a, r)
		assertMatchesReference(t, fmt.Sprintf("base %d perturbed", k+1), b, r)
	}
}

func TestCanonicalAppendMatchesReferenceAdversarial(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(16))
	for _, n := range []int{4, 8, 12, 16} {
		assertMatchesReference(t, fmt.Sprintf("staircase(%d)", n), staircase(n), r)
	}
	for _, n := range []int{4, 8, 16, 24} {
		assertMatchesReference(t, fmt.Sprintf("Adversarial(%d)", n), synth.Adversarial(n), r)
	}
}

func TestCanonicalAppendMatchesReferenceMultiDecision(t *testing.T) {
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
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(40)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			rules = append(rules, rule.Rule{
				Pred:     rule.Predicate{span(63), span(31), span(7)},
				Decision: decisions[r.Intn(len(decisions))],
			})
		}
		rules = append(rules, rule.CatchAll(schema, decisions[r.Intn(len(decisions))]))
		assertMatchesReference(t, fmt.Sprintf("trial %d", trial), rule.MustPolicy(schema, rules), r)
	}
}

func TestCanonicalAppendMatchesReferenceFrontendCorpus(t *testing.T) {
	t.Parallel()
	schema := field.IPv4FiveTuple()
	corpus := []struct{ file, format string }{
		{"web-dmz.rules", "iptables"},
		{"home-router.nft", "nftables"},
		{"web-sg.json", "secgroup"},
	}
	r := rand.New(rand.NewSource(5))
	for _, c := range corpus {
		text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "frontends", c.file))
		if err != nil {
			t.Fatal(err)
		}
		p, err := frontend.Parse(c.format, schema, string(text), frontend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		assertMatchesReference(t, c.file, p, r)
		for seed := int64(1); seed <= 4; seed++ {
			q, _ := synth.Perturb(p, 50, seed)
			assertMatchesReference(t, fmt.Sprintf("%s perturbed (seed %d)", c.file, seed), q, r)
		}
	}
}

// TestBuilderStoreHoldsOnlyPromotedRoots pins the overlay: the family
// store holds exactly the nodes reachable from checkpoint roots and
// final roots — the same set the reference's periodic reductions
// intern — and never the intermediate diagrams between checkpoints,
// which would inflate every resident builder.
func TestBuilderStoreHoldsOnlyPromotedRoots(t *testing.T) {
	t.Parallel()
	p := synth.RealLife(400, 3)
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	refStore := NewInterner()
	referenceBuild(refStore, p)
	if b.StoreNodes() != refStore.NumNodes() {
		t.Fatalf("family store holds %d nodes, the reference's %d", b.StoreNodes(), refStore.NumNodes())
	}
	assertStoreIsReachable(t, b.core.in, b)

	r := rand.New(rand.NewSource(9))
	after := editPolicy(p, r, 2)
	for after.Size() == p.Size() && commonRulePrefix(p, after) == p.Size() {
		after = editPolicy(p, r, 2)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st.RulesReappended == 0 {
		t.Fatal("resume re-appended nothing")
	}
	assertStoreIsReachable(t, b.core.in, b, nb)
}

// assertStoreIsReachable checks that in holds exactly the nodes
// reachable from the builders' checkpoint and final roots.
func assertStoreIsReachable(t *testing.T, in *Interner, bs ...*Builder) {
	t.Helper()
	want := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if want[n] {
			return
		}
		want[n] = true
		for _, e := range n.Edges {
			walk(e.To)
		}
	}
	for _, b := range bs {
		walk(b.FDD().Root)
		for _, cp := range b.checkpoints {
			walk(cp.root)
		}
	}
	nodes := storeNodes(t, in)
	if len(nodes) != len(want) {
		t.Fatalf("store holds %d nodes, %d are reachable from promoted roots", len(nodes), len(want))
	}
	for _, n := range nodes {
		if !want[n] {
			t.Fatalf("store holds a node no promoted root reaches")
		}
	}
	assertStoreIndexed(t, in)
}

// assertStoreIndexed checks that every node of in can be found again
// the way intern looks for it: it carries in's serial and a dense id
// (storeNodes), and sits in the bucket of the hash it has under the
// store's current ids (or, for a terminal, in the decision table). A
// node adopted from an overlay keeps its overlay hash only if promotion
// forgot to re-hash it, and then a later equal node would miss it and
// be interned twice. No node may keep an append memo slot: builds clear
// every slot they write before they return.
func assertStoreIndexed(t *testing.T, in *Interner) {
	t.Helper()
	for i, n := range storeNodes(t, in) {
		if n.memoGen != 0 || n.memoOut != nil {
			t.Fatalf("store node %d keeps an append memo slot", i)
		}
		if n.IsTerminal() {
			if in.terms[n.Decision] != n {
				t.Fatalf("terminal %v is not the store's canonical terminal", n.Decision)
			}
			continue
		}
		h, _ := in.hashNode(n.Field, n.Edges)
		found := false
		for _, c := range bucket(in, h) {
			found = found || c == n
		}
		if !found {
			t.Fatalf("store node %d is not in the bucket of its hash", i)
		}
	}
}

// bucket returns the chain of in's nonterminals hashed to h: the
// bucket's first node, then its overflow.
func bucket(in *Interner, h uint64) []*Node {
	c, ok := in.buckets[h]
	if !ok {
		return nil
	}
	return append([]*Node{c}, in.overflow[h]...)
}

// storeNodes enumerates in's nodes through its own tables, the bucket
// chains and the terminal table, ordered by id. It checks the identity
// each node carries: in's serial, and ids dense from the store's first
// id to NumNodes()-1 past it, each held by exactly one node.
func storeNodes(t *testing.T, in *Interner) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, in.NumNodes())
	for h := range in.buckets {
		nodes = append(nodes, bucket(in, h)...)
	}
	for _, n := range in.terms {
		nodes = append(nodes, n)
	}
	if len(nodes) != in.NumNodes() {
		t.Fatalf("buckets and terminals hold %d nodes, the store counts %d", len(nodes), in.NumNodes())
	}
	slices.SortFunc(nodes, func(a, b *Node) int { return cmp.Compare(a.id, b.id) })
	for i, n := range nodes {
		if n.serial != in.serial || !in.Canonical(n) {
			t.Fatalf("store node %d carries serial %d, the store's is %d", i, n.serial, in.serial)
		}
		if n.id != in.idBase+uint32(i) {
			t.Fatalf("store node %d has id %d, want %d", i, n.id, in.idBase+uint32(i))
		}
	}
	return nodes
}

// staircase is the worst case of the copy-on-write reference append:
// n-1 half-domain intervals on one shared staircase in every field,
// plus a catch-all. Its unreduced partial FDD blows up while its reduced
// diagram stays small.
func staircase(n int) *rule.Policy {
	schema := field.IPv4FiveTuple()
	rules := make([]rule.Rule, 0, n)
	for i := 0; i < n-1; i++ {
		pred := make(rule.Predicate, schema.NumFields())
		for f := range pred {
			dom := schema.Domain(f)
			size := dom.Hi - dom.Lo + 1
			step := max(size/uint64(2*n), 1)
			lo := min(dom.Lo+uint64(i)*step, dom.Hi)
			hi := min(lo+size/2, dom.Hi)
			pred[f] = interval.SetFromInterval(interval.MustNew(lo, hi))
		}
		dec := rule.Accept
		if i%2 == 1 {
			dec = rule.Discard
		}
		rules = append(rules, rule.Rule{Pred: pred, Decision: dec})
	}
	rules = append(rules, rule.CatchAll(schema, rule.Discard))
	return rule.MustPolicy(schema, rules)
}
