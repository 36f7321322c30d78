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

// sameStored reports whether the stored nodes a and b have the same
// field, decision, children and labels.
func sameStored(st *Store, a, b uint32) bool {
	ra, rb := st.nodes[a], st.nodes[b]
	if ra.field != rb.field || ra.dec != rb.dec || ra.nEdges != rb.nEdges {
		return false
	}
	for i := uint32(0); i < ra.nEdges; i++ {
		ea, eb := st.edges[ra.edge0+i], st.edges[rb.edge0+i]
		if ea.to != eb.to || !st.label(ea).Equal(st.label(eb)) {
			return false
		}
	}
	return true
}

// TestStoreCollisionChaining forces every node into a single hash chain
// and checks that chaining still dedupes by structure: isomorphic
// subtrees share, distinct ones do not.
func TestStoreCollisionChaining(t *testing.T) {
	f := storeFDD()
	st := NewStore()
	st.hashOverride = func(uint64) uint64 { return 42 }
	red := st.Reduce(f)

	if err := red.CheckInvariants(); err != nil {
		t.Fatalf("invariants after colliding reduce: %v", err)
	}
	// All nodes chained under one hash.
	if got := len(st.table); got != 1 {
		t.Fatalf("hash override must produce exactly 1 table entry, got %d", got)
	}
	chain := bucket(st, 42)
	if len(chain) < 2 || len(chain) != st.NumNodes() {
		t.Fatalf("chaining path not exercised: chain length %d of %d nodes", len(chain), st.NumNodes())
	}
	// Chained nodes are pairwise structurally distinct.
	for i := range chain {
		for j := i + 1; j < len(chain); j++ {
			if sameStored(st, chain[i], chain[j]) {
				t.Fatalf("chain holds duplicate structures at %d and %d", i, j)
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

// TestStoreIncrementalReuse: reducing an already-canonical diagram
// through the same store returns the identical root (the fast path the
// incremental construction relies on) and adds no node, and a store
// never hands out two distinct nodes for one structure.
func TestStoreIncrementalReuse(t *testing.T) {
	f := storeFDD()
	st := NewStore()
	r1 := st.ReduceNode(f.Schema, f.Root)
	grew := st.NumNodes()
	if r2 := st.ReduceNode(f.Schema, st.Diagram(f.Schema, r1).Root); r2 != r1 {
		t.Fatal("re-reducing a canonical diagram must return the same root")
	}
	if st.NumNodes() != grew {
		t.Fatalf("re-reduction added nodes: %d -> %d", grew, st.NumNodes())
	}
	// A structurally identical fresh diagram dedupes onto the same nodes.
	if r3 := st.ReduceNode(f.Schema, storeFDD().Root); r3 != r1 {
		t.Fatal("identical structure must intern to the identical root")
	}
	assertStoreIndexed(t, st)
}

// TestCanonicalTerminalDedupes: terminals intern by decision.
func TestCanonicalTerminalDedupes(t *testing.T) {
	st := NewStore()
	a := st.Terminal(rule.Accept)
	b := st.Terminal(rule.Accept)
	c := st.Terminal(rule.Discard)
	if a != b {
		t.Fatal("equal decisions must share a terminal")
	}
	if a == c {
		t.Fatal("distinct decisions must not share a terminal")
	}
}

// TestPromoteAdoptsOverlayNodes drives the append loop by hand and checks
// each promotion: the nodes it adds to the family are exactly the
// overlay nodes the root reaches, in id order, moved as they are (same
// field, decision and labels, children renumbered along), not
// re-interned; the promoted root is below the watermark; and the
// overlay comes back empty, its table too.
func TestPromoteAdoptsOverlayNodes(t *testing.T) {
	p := synth.RealLife(200, 5)
	family := NewStore()
	ap := newAppender(p.Schema, family)
	family.openOverlay(p.Size())
	ap.start(p.Rules[0].Pred, p.Rules[0].Decision)
	root := ap.path(0)
	for i := 1; i < p.Size(); i++ {
		r := p.Rules[i]
		root = ap.appendRule(root, r.Pred, r.Decision)
		if i%checkpointEvery != 0 && i != p.Size()-1 {
			continue
		}
		// The overlay nodes root reaches, ascending, and each one's
		// materialized subgraph.
		base := family.base
		var reached []uint32
		seen := make(map[uint32]bool)
		var walk func(id uint32)
		walk = func(id uint32) {
			if id < base || seen[id] {
				return
			}
			seen[id] = true
			r := family.nodes[id]
			for _, e := range family.edges[r.edge0 : r.edge0+r.nEdges] {
				walk(e.to)
			}
			reached = append(reached, id)
		}
		walk(root)
		slices.Sort(reached)
		before := make([]*Node, len(reached))
		for k, id := range reached {
			before[k] = family.Diagram(p.Schema, id).Root
		}
		root = ap.promote(root)
		if root >= family.base || family.overlayNodes() != 0 || overlayIndexed(family) {
			t.Fatalf("rule %d: promotion left the root or nodes in the overlay", i)
		}
		if family.NumNodes() != int(base)+len(reached) {
			t.Fatalf("rule %d: promotion added %d nodes, the root reached %d", i, family.NumNodes()-int(base), len(reached))
		}
		for k := range reached {
			got := family.Diagram(p.Schema, base+uint32(k)).Root
			if !reflect.DeepEqual(got, before[k]) {
				t.Fatalf("rule %d: family node %d is not the %dth overlay node the root reached", i, base+uint32(k), k)
			}
		}
		storeNodes(t, family)
	}
	family.closeOverlay()
	assertStoreIndexed(t, family)
}

// TestBuildCollisionChaining runs a build and a Resume with every node
// hashed into one chain, so promotion has to chain each moved node
// behind the family's existing ones. The result must be the diagram
// the default hash builds, and the store must stay deduplicated.
func TestBuildCollisionChaining(t *testing.T) {
	p := synth.RealLife(80, 6)
	after, err := p.DeleteRule(p.Size() - 5)
	if err != nil {
		t.Fatal(err)
	}
	core := &builderCore{st: NewStore()}
	core.st.hashOverride = func(uint64) uint64 { return 42 }
	core.mu.Lock()
	b, err := core.build(context.Background(), nil, p, 0, noNode, nil, nil, true)
	core.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.StoreNodes() != plain.StoreNodes() {
		t.Fatalf("single-chain store holds %d nodes, the default-hash one %d", b.StoreNodes(), plain.StoreNodes())
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointRules == 0 {
		t.Fatal("resume used no checkpoint")
	}
	if len(core.st.table) != 1 || len(bucket(core.st, 42)) < 2 {
		t.Fatalf("hash override did not chain the family store: %d table entries", len(core.st.table))
	}
	assertStoreIsReachable(t, core.st, b, nb)
	plainAfter, err := NewBuilder(after)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]*Builder{{b, plain}, {nb, plainAfter}} {
		got, want := c[0].FDD(), c[1].FDD()
		if !sameFunction(t, got, want) || got.Stats() != want.Stats() {
			t.Fatal("single-chain build differs from the default-hash build")
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
	family := NewStore()
	ap := newAppender(p.Schema, family)
	family.openOverlay(p.Size())
	ap.gen = math.MaxUint32 - 40
	ap.start(p.Rules[0].Pred, p.Rules[0].Decision)
	root := ap.path(0)
	effective := []bool{true}
	for i := 1; i < p.Size(); i++ {
		r := p.Rules[i]
		next := ap.appendRule(root, r.Pred, r.Decision)
		effective = append(effective, next != root)
		root = next
		if i%checkpointEvery == 0 {
			root = ap.promote(root)
		}
	}
	root = ap.promote(root)
	family.closeOverlay()
	if ap.gen >= math.MaxUint32-40 {
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

// TestCanonicalizeProbesBeforeCopying pins the store's edge contract: a node
// whose pushed edges name an existing node allocates nothing, and a new
// node copies its labels into the store, so the caller's interval
// storage is scratch the store never retains.
func TestCanonicalizeProbesBeforeCopying(t *testing.T) {
	f := storeFDD()
	st := NewStore()
	root := st.ReduceNode(f.Schema, f.Root)
	d := st.Diagram(f.Schema, root).Root
	children := make([]uint32, len(d.Edges))
	for i, e := range d.Edges {
		children[i] = st.ReduceNode(f.Schema, e.To)
	}
	full := f.Schema.FullSet(d.Field)
	allocs := testing.AllocsPerRun(100, func() {
		fr := st.Frame()
		for i, e := range d.Edges {
			st.Push(e.Label, children[i])
		}
		if st.Node(fr, d.Field, full) != root {
			t.Fatal("equal edges interned to a different node")
		}
	})
	if allocs != 0 {
		t.Fatalf("a dedupe hit allocated %.0f times", allocs)
	}

	// Swapping the children makes a new node; its labels are the
	// caller's intervals, which the caller then overwrites.
	buf := make([]interval.Interval, 0, 4)
	labels := make([]interval.Set, len(d.Edges))
	for i, e := range d.Edges {
		lo := len(buf)
		buf = e.Label.AppendIntervals(buf)
		labels[i] = interval.SetView(buf[lo:])
	}
	want := slices.Clone(buf)
	fr := st.Frame()
	st.Push(labels[0], children[1])
	st.Push(labels[1], children[0])
	n := st.Node(fr, d.Field, full)
	if n == root || n != uint32(st.NumNodes()-1) {
		t.Fatal("distinct edges did not make a new node")
	}
	clear(buf)
	got := st.Diagram(f.Schema, n).Root
	var stored []interval.Interval
	for _, e := range got.Edges {
		stored = e.Label.AppendIntervals(stored)
	}
	if !slices.Equal(stored, want) {
		t.Fatal("overwriting the caller's intervals changed the stored node")
	}
	assertStoreIndexed(t, st)
}
