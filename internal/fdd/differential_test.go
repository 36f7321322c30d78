package fdd

import (
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
// whether the build takes checkpoints or is trimmed at birth, and a
// Resume must land where a scratch build does.

// assertMatchesReference builds p with checkpoints, trimmed at birth
// and by the reference, and compares them node for node in the
// checkpointed builder's own family store. It then applies 1-3 random
// edits and checks that resuming either builder matches a scratch build
// of the edited policy.
func assertMatchesReference(t *testing.T, name string, p *rule.Policy, r *rand.Rand) {
	t.Helper()
	b, err := NewBuilder(p)
	if err != nil {
		t.Fatalf("%s: NewBuilder: %v", name, err)
	}
	ref, refEff := referenceBuild(NewStore(), p)
	stored := b.StoreNodes()
	if got := b.core.st.ReduceNode(p.Schema, ref); got != b.root {
		t.Fatalf("%s: canonical root differs from the reduced Fig. 7 reference", name)
	}
	if b.StoreNodes() != stored {
		t.Fatalf("%s: reducing the reference added %d nodes to the family store",
			name, b.StoreNodes()-stored)
	}
	if !reflect.DeepEqual(b.Effective(), refEff) {
		t.Fatalf("%s: effective bits differ\ncanonical %v\nreference %v", name, b.Effective(), refEff)
	}
	cold, err := NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: NewTrimmedBuilderContext: %v", name, err)
	}
	if !cold.trimmed || cold.NumCheckpoints() != 0 || cold.StoreNodes() != 0 {
		t.Fatalf("%s: a builder trimmed at birth holds resume state", name)
	}
	if b.core.st.ReduceNode(p.Schema, cold.FDD().Root) != b.root || b.StoreNodes() != stored {
		t.Fatalf("%s: the build trimmed at birth differs from the checkpointed build", name)
	}
	if !reflect.DeepEqual(cold.Effective(), b.Effective()) || cold.FDD().Stats() != b.FDD().Stats() {
		t.Fatalf("%s: the build trimmed at birth has other effective bits or stats", name)
	}

	after := editPolicy(p, r, 1+r.Intn(3))
	resumed, rst, rerr := b.Resume(context.Background(), after)
	coldResumed, cst, cerr := cold.Resume(context.Background(), after)
	scratch, serr := NewBuilder(after)
	if (rerr == nil) != (serr == nil) || (cerr == nil) != (serr == nil) {
		t.Fatalf("%s: resume err %v, resume trimmed at birth err %v, scratch err %v", name, rerr, cerr, serr)
	}
	if rerr != nil {
		return
	}
	if resumed.core.st.ReduceNode(after.Schema, scratch.FDD().Root) != resumed.root {
		t.Fatalf("%s: resumed root differs from scratch construction", name)
	}
	if !reflect.DeepEqual(resumed.Effective(), scratch.Effective()) {
		t.Fatalf("%s: resumed effective bits differ from scratch", name)
	}
	if resumed.core.st.ReduceNode(after.Schema, coldResumed.FDD().Root) != resumed.root || cst != rst ||
		!reflect.DeepEqual(coldResumed.Effective(), resumed.Effective()) {
		t.Fatalf("%s: resuming the builder trimmed at birth differs from resuming the checkpointed one", name)
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
	refStore := NewStore()
	referenceBuild(refStore, p)
	if b.StoreNodes() != refStore.NumNodes() {
		t.Fatalf("family store holds %d nodes, the reference's %d", b.StoreNodes(), refStore.NumNodes())
	}
	assertStoreIsReachable(t, b.core.st, b)

	r := rand.New(rand.NewSource(9))
	after := editPolicy(p, r, 2)
	for after.Size() == p.Size() && commonRulePrefix(p, after, 0) == p.Size() {
		after = editPolicy(p, r, 2)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st.RulesReappended == 0 {
		t.Fatal("resume re-appended nothing")
	}
	assertStoreIsReachable(t, b.core.st, b, nb)
}

// assertStoreIsReachable checks that st holds exactly the nodes
// reachable from the builders' checkpoint and final roots.
func assertStoreIsReachable(t *testing.T, st *Store, bs ...*Builder) {
	t.Helper()
	want := make(map[uint32]bool)
	var walk func(id uint32)
	walk = func(id uint32) {
		if want[id] {
			return
		}
		want[id] = true
		r := st.nodes[id]
		for _, e := range st.edges[r.edge0 : r.edge0+r.nEdges] {
			walk(e.to)
		}
	}
	for _, b := range bs {
		walk(b.root)
		for _, cp := range b.checkpoints {
			walk(cp.root)
		}
	}
	if ids := storeNodes(t, st); len(ids) != len(want) {
		t.Fatalf("store holds %d nodes, %d are reachable from promoted roots", len(ids), len(want))
	}
	assertStoreIndexed(t, st)
}

// assertStoreIndexed checks that every node of st can be found again
// the way intern looks for it: it sits in the unique table's chain for
// the hash it has under the store's current ids and labels. A node
// promoted from an overlay keeps its overlay hash only if promotion
// forgot to re-hash it, and then a later equal node would miss it and
// be interned twice. It also checks that no build left an overlay or a
// scratch frame open, that every child's id is below its parent's, that
// every label lies in the slab and is canonical, and that a node is
// decided exactly when it is a terminal or complete over decided
// children.
func assertStoreIndexed(t *testing.T, st *Store) {
	t.Helper()
	if st.overlay || overlayIndexed(st) || len(st.frame) != 0 || len(st.fivs) != 0 {
		t.Fatal("a build left the store's overlay or scratch frame open")
	}
	for _, id := range storeNodes(t, st) {
		r := st.nodes[id]
		h := st.termHash(r.dec)
		if r.field != TerminalField {
			h = st.hash(r.field, st.edges[r.edge0:r.edge0+r.nEdges])
		}
		if !slices.Contains(bucket(st, h), id) {
			t.Fatalf("store node %d is not in the chain of its hash", id)
		}
		decided := r.field == TerminalField || r.complete
		for _, e := range st.edges[r.edge0 : r.edge0+r.nEdges] {
			decided = decided && st.nodes[e.to].decided
		}
		if r.decided != decided {
			t.Fatalf("store node %d has decided %v, want %v", id, r.decided, decided)
		}
		for _, e := range st.edges[r.edge0 : r.edge0+r.nEdges] {
			if e.to >= id {
				t.Fatalf("store node %d has child %d, not below it", id, e.to)
			}
			if e.lo >= e.hi || int(e.hi) > len(st.ivs) {
				t.Fatalf("store node %d has label span [%d, %d) of %d intervals", id, e.lo, e.hi, len(st.ivs))
			}
			if lab := st.label(e); !lab.Equal(interval.NewSet(lab.Intervals()...)) {
				t.Fatalf("store node %d has a label that is not canonical", id)
			}
		}
	}
}

// overlayIndexed reports whether st's overlay index holds any node.
func overlayIndexed(st *Store) bool {
	return len(st.ohash) != 0 || slices.ContainsFunc(st.oheads, func(id uint32) bool { return id != 0 })
}

// bucket returns the chain of st's unique table for h, newest first.
func bucket(st *Store, h uint64) []uint32 {
	var ids []uint32
	for id, ok := st.table[h]; ok; {
		ids = append(ids, id)
		next := st.nodes[id].next
		id, ok = next-1, next != 0
	}
	return ids
}

// storeNodes enumerates st's nodes through its unique table, ordered by
// id, and checks that the chains hold every id from 0 to NumNodes()-1
// exactly once.
func storeNodes(t *testing.T, st *Store) []uint32 {
	t.Helper()
	ids := make([]uint32, 0, st.NumNodes())
	for h := range st.table {
		ids = append(ids, bucket(st, h)...)
	}
	slices.Sort(ids)
	if len(ids) != st.NumNodes() {
		t.Fatalf("the unique table holds %d nodes, the store counts %d", len(ids), st.NumNodes())
	}
	for i, id := range ids {
		if id != uint32(i) {
			t.Fatalf("the unique table's %dth node has id %d", i, id)
		}
	}
	return ids
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
