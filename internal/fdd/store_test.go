package fdd

import (
	"context"
	"testing"

	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// storeFDD builds a small complete 3-field diagram in which two
// structurally identical (but distinct *Node) field-2 subtrees hang
// under two *different* field-1 parents, so reduction must share the
// subtrees while keeping both parents.
func storeFDD() *FDD {
	schema := quickSchema()
	leaf := func() *Node {
		return &Node{Field: 2, Edges: []*Edge{
			{Label: interval.SetOf(0, 31), To: Terminal(rule.Accept)},
			{Label: interval.SetOf(32, 63), To: Terminal(rule.Discard)},
		}}
	}
	a := &Node{Field: 1, Edges: []*Edge{
		{Label: interval.SetOf(0, 31), To: leaf()},
		{Label: interval.SetOf(32, 63), To: Terminal(rule.DiscardLog)},
	}}
	b := &Node{Field: 1, Edges: []*Edge{
		{Label: interval.SetOf(0, 31), To: leaf()},
		{Label: interval.SetOf(32, 63), To: Terminal(rule.Accept)},
	}}
	root := &Node{Field: 0, Edges: []*Edge{
		{Label: interval.SetOf(0, 15), To: a},
		{Label: interval.SetOf(16, 63), To: b},
	}}
	return &FDD{Schema: schema, Root: root}
}

// TestInternerCollisionChaining forces every node into a single hash
// bucket and checks that collision chaining still dedupes by structure:
// isomorphic subtrees share, distinct ones do not.
func TestInternerCollisionChaining(t *testing.T) {
	f := storeFDD()
	in := NewInterner()
	in.hashOverride = func(*Node) uint64 { return 42 }
	red := in.Reduce(f)

	if err := red.CheckInvariants(); err != nil {
		t.Fatalf("invariants after colliding reduce: %v", err)
	}
	// All nonterminals chained in one bucket.
	if got := len(in.buckets); got != 1 {
		t.Fatalf("hash override must produce exactly 1 bucket, got %d", got)
	}
	chain := in.buckets[42]
	if len(chain) < 2 {
		t.Fatalf("chaining path not exercised: chain length %d", len(chain))
	}
	// Chained nodes are pairwise structurally distinct.
	for i := range chain {
		for j := i + 1; j < len(chain); j++ {
			if sameShape(chain[i], chain[j]) {
				t.Fatalf("bucket holds duplicate structures at %d and %d", i, j)
			}
		}
	}
	// The two isomorphic field-2 subtrees were shared despite the
	// collision, while their distinct parents were not merged.
	pa, pb := red.Root.Edges[0].To, red.Root.Edges[1].To
	if pa == pb {
		t.Fatal("distinct parents wrongly merged")
	}
	if pa.Edges[0].To != pb.Edges[0].To {
		t.Fatal("isomorphic subtrees not shared under hash collision")
	}
	// Same reduced shape as the default hash.
	plain := f.Reduce()
	if red.Stats() != plain.Stats() {
		t.Fatalf("colliding reduce %+v differs from plain reduce %+v", red.Stats(), plain.Stats())
	}
}

// TestInternerIncrementalReuse: reducing an already-canonical diagram
// through the same store returns the identical nodes (the fast path the
// incremental construction relies on), and a store never hands out two
// distinct nodes for one structure.
func TestInternerIncrementalReuse(t *testing.T) {
	f := storeFDD()
	in := NewInterner()
	r1 := in.Reduce(f)
	grew := in.NumNodes()
	r2 := in.Reduce(r1)
	if r2.Root != r1.Root {
		t.Fatal("re-reducing a canonical diagram must return the same root")
	}
	if in.NumNodes() != grew {
		t.Fatalf("re-reduction added nodes: %d -> %d", grew, in.NumNodes())
	}
	if !in.Canonical(r1.Root) {
		t.Fatal("reduced root not canonical in its own store")
	}
	// A structurally identical fresh diagram dedupes onto the same nodes.
	r3 := in.Reduce(storeFDD())
	if r3.Root != r1.Root {
		t.Fatal("identical structure must intern to the identical root")
	}
}

// TestCanonicalTerminalDedupes: terminals intern by decision.
func TestCanonicalTerminalDedupes(t *testing.T) {
	in := NewInterner()
	a := in.CanonicalTerminal(rule.Accept)
	b := in.CanonicalTerminal(rule.Accept)
	c := in.CanonicalTerminal(rule.Discard)
	if a != b {
		t.Fatal("equal decisions must share a terminal")
	}
	if a == c {
		t.Fatal("distinct decisions must not share a terminal")
	}
}

// TestPromoteAdoptsOverlayNodes drives the append loop by hand and
// checks each promotion: every node it adds to the family store is a
// node the overlay created (the same pointer, not a copy), the promoted
// root is canonical in the family, and the overlay comes back empty.
func TestPromoteAdoptsOverlayNodes(t *testing.T) {
	p := synth.RealLife(200, 5)
	family := NewInterner()
	ap := newAppender(p.Schema, family)
	ap.start(p.Rules[0].Pred, p.Rules[0].Decision)
	root := ap.path(0)
	for i := 1; i < p.Size(); i++ {
		r := p.Rules[i]
		root = ap.appendRule(root, r.Pred, r.Decision)
		if i%checkpointEvery != 0 && i != p.Size()-1 {
			continue
		}
		created := make(map[*Node]bool, ap.ov.NumNodes())
		for _, n := range ap.ov.nodes {
			created[n] = true
		}
		before := family.NumNodes()
		ap.promote(root)
		if !family.Canonical(root) {
			t.Fatalf("rule %d: promoted root is not canonical in the family", i)
		}
		for _, n := range family.nodes[before:] {
			if !created[n] {
				t.Fatalf("rule %d: promotion added a node the overlay did not create", i)
			}
		}
		if ap.ov.NumNodes() != 0 || len(ap.ov.ids) != 0 || len(ap.ov.buckets) != 0 {
			t.Fatalf("rule %d: overlay not emptied by promotion", i)
		}
	}
	assertStoreIndexed(t, family)
}

// TestBuildCollisionChaining runs a build and a Resume with every node
// hashed into one bucket, so adoption has to chain each moved node
// behind the family's existing ones. The result must be the diagram
// the default hash builds, and the store must stay deduplicated.
func TestBuildCollisionChaining(t *testing.T) {
	p := synth.RealLife(80, 6)
	after, err := p.DeleteRule(p.Size() - 5)
	if err != nil {
		t.Fatal(err)
	}
	core := &builderCore{in: NewInterner()}
	core.in.hashOverride = func(*Node) uint64 { return 42 }
	core.mu.Lock()
	b, err := core.build(context.Background(), nil, p, 0, nil, nil, nil)
	core.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.StoreNodes() != plain.StoreNodes() {
		t.Fatalf("single-bucket store holds %d nodes, the default-hash one %d", b.StoreNodes(), plain.StoreNodes())
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointRules == 0 {
		t.Fatal("resume used no checkpoint")
	}
	if len(core.in.buckets) != 1 || len(core.in.buckets[42]) < 2 {
		t.Fatalf("hash override did not chain the family store: %d buckets", len(core.in.buckets))
	}
	assertStoreIsReachable(t, core.in, b, nb)
	plainAfter, err := NewBuilder(after)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]*Builder{{b, plain}, {nb, plainAfter}} {
		got, want := c[0].FDD(), c[1].FDD()
		if !sameFunction(t, got, want) || got.Stats() != want.Stats() {
			t.Fatal("single-bucket build differs from the default-hash build")
		}
	}
}
