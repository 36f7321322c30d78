package fdd

import (
	"context"
	"math"
	"reflect"
	"slices"
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
		return &Node{Field: 2, Edges: []Edge{
			{Label: interval.SetOf(0, 31), To: Terminal(rule.Accept)},
			{Label: interval.SetOf(32, 63), To: Terminal(rule.Discard)},
		}}
	}
	a := &Node{Field: 1, Edges: []Edge{
		{Label: interval.SetOf(0, 31), To: leaf()},
		{Label: interval.SetOf(32, 63), To: Terminal(rule.DiscardLog)},
	}}
	b := &Node{Field: 1, Edges: []Edge{
		{Label: interval.SetOf(0, 31), To: leaf()},
		{Label: interval.SetOf(32, 63), To: Terminal(rule.Accept)},
	}}
	root := &Node{Field: 0, Edges: []Edge{
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
	in.hashOverride = func(int, []Edge) uint64 { return 42 }
	red := in.Reduce(f)

	if err := red.CheckInvariants(); err != nil {
		t.Fatalf("invariants after colliding reduce: %v", err)
	}
	// All nonterminals chained in one bucket.
	if got := len(in.buckets); got != 1 {
		t.Fatalf("hash override must produce exactly 1 bucket, got %d", got)
	}
	chain := bucket(in, 42)
	if len(chain) < 2 {
		t.Fatalf("chaining path not exercised: chain length %d", len(chain))
	}
	// Chained nodes are pairwise structurally distinct.
	for i := range chain {
		for j := i + 1; j < len(chain); j++ {
			if sameShape(chain[i], chain[j].Field, chain[j].Edges) {
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
// node the overlay created (the same pointer, not a copy), restamped
// with the family's serial and the next family ids; the promoted root
// is canonical in the family; the overlay comes back empty under a
// fresh serial, so a node it created but did not hand over is canonical
// nowhere; and no family node keeps a memo slot.
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
		created := storeNodes(t, ap.ov)
		isCreated := make(map[*Node]bool, len(created))
		for _, n := range created {
			isCreated[n] = true
		}
		before, overlaySerial := family.NumNodes(), ap.ov.serial
		ap.promote(root)
		if !family.Canonical(root) {
			t.Fatalf("rule %d: promoted root is not canonical in the family", i)
		}
		for _, n := range storeNodes(t, family)[before:] {
			if !isCreated[n] {
				t.Fatalf("rule %d: promotion added a node the overlay did not create", i)
			}
		}
		if ap.ov.NumNodes() != 0 || len(ap.ov.terms) != 0 || len(ap.ov.buckets) != 0 || len(ap.ov.overflow) != 0 {
			t.Fatalf("rule %d: overlay not emptied by promotion", i)
		}
		if ap.ov.serial == overlaySerial {
			t.Fatalf("rule %d: overlay kept its serial across the reset", i)
		}
		for _, n := range created {
			if ap.ov.Canonical(n) || (!family.Canonical(n) && n.serial != overlaySerial) {
				t.Fatalf("rule %d: an overlay node changed owner outside adoption", i)
			}
		}
		if len(ap.slots) != 0 {
			t.Fatalf("rule %d: promotion left %d memo slots recorded", i, len(ap.slots))
		}
		assertStoreIndexed(t, family)
	}
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
	core.in.hashOverride = func(int, []Edge) uint64 { return 42 }
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
	if len(core.in.buckets) != 1 || len(bucket(core.in, 42)) < 2 {
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

// TestAppendGenerationWrap drives the append loop by hand from a
// generation just short of wrapping around. Generation 0 marks an empty
// memo slot, so the wrap must empty every slot and memo entry before
// reusing small generations; the diagram and effective bits must come
// out as a scratch build makes them.
func TestAppendGenerationWrap(t *testing.T) {
	p := synth.RealLife(120, 8)
	family := NewInterner()
	ap := newAppender(p.Schema, family)
	ap.gen = math.MaxUint16 - 40
	ap.start(p.Rules[0].Pred, p.Rules[0].Decision)
	root := ap.path(0)
	effective := []bool{true}
	for i := 1; i < p.Size(); i++ {
		r := p.Rules[i]
		next := ap.appendRule(root, r.Pred, r.Decision)
		effective = append(effective, next != root)
		root = next
		if i%checkpointEvery == 0 {
			ap.promote(root)
		}
	}
	ap.promote(root)
	if ap.gen >= math.MaxUint16-40 {
		t.Fatalf("generation %d did not wrap", ap.gen)
	}
	scratch, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	if family.ReduceNode(p.Schema, scratch.FDD().Root) != root {
		t.Fatal("appending across the generation wrap built a different diagram")
	}
	if !reflect.DeepEqual(effective, scratch.Effective()) {
		t.Fatal("appending across the generation wrap changed the effective bits")
	}
	assertStoreIndexed(t, family)
}

// TestCanonicalizeProbesBeforeCopying pins the store's edge contract:
// canonicalizing edges that name an existing node allocates nothing,
// and a new node gets its own exact-size copy, so the caller's slice is
// scratch the store never retains.
func TestCanonicalizeProbesBeforeCopying(t *testing.T) {
	f := storeFDD()
	in := NewInterner()
	root := in.Reduce(f).Root
	full := f.Schema.FullSet(root.Field)
	scratch := make([]Edge, len(root.Edges), 8)
	allocs := testing.AllocsPerRun(100, func() {
		copy(scratch, root.Edges)
		if in.Canonicalize(root.Field, scratch, full) != root {
			t.Fatal("equal edges interned to a different node")
		}
	})
	if allocs != 0 {
		t.Fatalf("a dedupe hit allocated %.0f times", allocs)
	}

	// Swapping the children makes a new node.
	copy(scratch, root.Edges)
	scratch[0].To, scratch[1].To = scratch[1].To, scratch[0].To
	n := in.Canonicalize(root.Field, scratch, full)
	if n == root || !in.Canonical(n) {
		t.Fatal("distinct edges did not make a new canonical node")
	}
	if len(n.Edges) != 2 || cap(n.Edges) != 2 || &n.Edges[0] == &scratch[0] {
		t.Fatal("the new node does not own an exact-size copy of its edges")
	}
	want := slices.Clone(n.Edges)
	for i := range scratch {
		scratch[i] = Edge{}
	}
	for i := range want {
		if n.Edges[i].To != want[i].To || !n.Edges[i].Label.Equal(want[i].Label) {
			t.Fatal("overwriting the caller's edges changed the stored node")
		}
	}
}
