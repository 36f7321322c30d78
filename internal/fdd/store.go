package fdd

import (
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// Interner is a hash-consing node store: an arena that assigns each
// canonical FDD node a dense uint32 id and dedupes nodes by a uint64
// structural hash of (field, [(label, child-id)...]) with collision
// chaining. It replaces the string-signature reduction (fmt.Sprintf keys
// in a map[string]*Node): hashing a node is a handful of multiplies over
// its interval bounds and child ids, no formatting and no string
// allocation, O(1) amortized per node.
//
// A node owned by the store is canonical: its children are canonical and
// no other stored node is structurally equal to it. Canonical nodes are
// never mutated, so a store can be shared by a whole builder family — a
// subgraph that is already canonical is recognized by a single map
// lookup and never re-walked or re-hashed.
//
// An overlay (newOverlay) is a store stacked on a parent: lookups
// consult the parent first and ids continue the parent's numbering, so a
// node is canonical in exactly one of the two and pointer equality still
// means functional equality across both. Construction interns its
// intermediate diagrams into an overlay and promotes only the checkpoint
// roots into the parent: adoptInto moves the overlay nodes a root
// reaches into the parent as they are, and reset empties the overlay's
// tables for the next batch.
//
// An Interner is not safe for concurrent use; parallel pipelines give
// each worker its own store and re-intern once at the stitch point.
type Interner struct {
	buckets map[uint64][]*Node      // structural hash -> chain of canonical nonterminals
	terms   map[rule.Decision]*Node // decision -> canonical terminal
	ids     map[*Node]uint32        // canonical node -> dense id
	nodes   []*Node                 // dense id - idBase -> canonical node
	// parent, when non-nil, makes this store an overlay of parent, which
	// must not change while the overlay is in use; idBase is parent's
	// node count at creation, the first id the overlay assigns.
	parent *Interner
	idBase uint32
	// hashOverride, when non-nil, replaces hashNode. Tests use it to
	// force every node into one bucket and exercise the chaining path.
	hashOverride func(*Node) uint64
}

// NewInterner returns an empty node store.
func NewInterner() *Interner {
	return &Interner{
		buckets: make(map[uint64][]*Node),
		terms:   make(map[rule.Decision]*Node),
		ids:     make(map[*Node]uint32),
	}
}

// newOverlay returns an empty store stacked on parent.
func newOverlay(parent *Interner) *Interner {
	in := NewInterner()
	in.parent = parent
	in.idBase = uint32(parent.NumNodes())
	in.hashOverride = parent.hashOverride
	return in
}

// adoptInto moves root and the nodes below it that this overlay owns
// into its parent, children first. No node is copied and no edge
// rewritten. A node canonical here never equals a parent node: intern
// consults the parent whenever all of a node's children are in it, and
// a node with a child canonical here cannot equal a parent node, whose
// children are all the parent's. So each moved node stays unique; only
// its hash changes, because ids do, and it is re-hashed under its
// parent id. The overlay must be reset before it is used again.
func (in *Interner) adoptInto(root *Node) {
	p := in.parent
	var adopt func(n *Node)
	adopt = func(n *Node) {
		if p.Canonical(n) {
			return
		}
		if n.IsTerminal() {
			p.terms[n.Decision] = n
			p.register(n)
			return
		}
		for _, e := range n.Edges {
			adopt(e.To)
		}
		h, _ := p.hashNode(n)
		p.buckets[h] = append(p.buckets[h], n)
		p.register(n)
	}
	adopt(root)
}

// reset empties the overlay, keeping its tables' capacity, and restarts
// its ids after the parent's current nodes.
func (in *Interner) reset() {
	clear(in.buckets)
	clear(in.terms)
	clear(in.ids)
	clear(in.nodes)
	in.nodes = in.nodes[:0]
	in.idBase = uint32(in.parent.NumNodes())
}

// NumNodes returns how many canonical nodes the store holds (an
// overlay counts only its own, not its parent's).
func (in *Interner) NumNodes() int { return len(in.nodes) }

// Canonical reports whether n is owned by (canonical in) this store.
func (in *Interner) Canonical(n *Node) bool {
	_, ok := in.ids[n]
	return ok
}

// id returns the dense id of a node canonical in this store or its
// parent, and whether the parent owns it.
func (in *Interner) id(n *Node) (id uint32, inParent bool) {
	if id, ok := in.ids[n]; ok {
		return id, false
	}
	if in.parent != nil {
		return in.parent.ids[n], true
	}
	return 0, false
}

// fnv64Offset is the FNV-64 offset basis, the seed of node hashes.
const fnv64Offset = 14695981039346656037

// mix64 folds v into the running hash h (FNV-1a style).
func mix64(h, v uint64) uint64 {
	const fnv64Prime = 1099511628211
	return (h ^ v) * fnv64Prime
}

// hashNode computes the structural hash of a nonterminal whose children
// are already canonical in this store (terminals are interned by
// decision in a separate table and never hashed). inParent reports that
// every child belongs to the parent store — only then can the parent
// hold an equal node, under the same hash.
func (in *Interner) hashNode(n *Node) (h uint64, inParent bool) {
	inParent = in.parent != nil
	h = mix64(fnv64Offset, uint64(n.Field))
	for _, e := range n.Edges {
		id, p := in.id(e.To)
		inParent = inParent && p
		h = e.Label.Hash(h)
		h = mix64(h, uint64(id))
	}
	if in.hashOverride != nil {
		h = in.hashOverride(n)
	}
	return h, inParent
}

// sameShape reports structural equality of two nodes whose children are
// canonical (so child comparison is pointer identity).
func sameShape(a, b *Node) bool {
	if a.Field != b.Field || a.Decision != b.Decision || len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i].To != b.Edges[i].To || !a.Edges[i].Label.Equal(b.Edges[i].Label) {
			return false
		}
	}
	return true
}

// intern returns the canonical nonterminal structurally equal to n,
// storing n itself if none exists. n's children must already be
// canonical and its edges in sorted order.
func (in *Interner) intern(n *Node) *Node {
	h, inParent := in.hashNode(n)
	if inParent {
		for _, c := range in.parent.buckets[h] {
			if sameShape(c, n) {
				return c
			}
		}
	}
	for _, c := range in.buckets[h] {
		if sameShape(c, n) {
			return c
		}
	}
	in.buckets[h] = append(in.buckets[h], n)
	in.register(n)
	return n
}

// register assigns n the next dense id.
func (in *Interner) register(n *Node) {
	in.ids[n] = in.idBase + uint32(len(in.nodes))
	in.nodes = append(in.nodes, n)
}

// CanonicalTerminal returns the store's canonical terminal labeled d.
func (in *Interner) CanonicalTerminal(d rule.Decision) *Node {
	if in.parent != nil {
		if c, ok := in.parent.terms[d]; ok {
			return c
		}
	}
	if c, ok := in.terms[d]; ok {
		return c
	}
	c := Terminal(d)
	in.terms[d] = c
	in.register(c)
	return c
}

// Canonicalize builds the canonical node for a nonterminal labeled
// fieldIdx with the given edges, whose children must already be
// canonical in this store. Edges leading to the same child are merged
// and the result is ordered by label; a node whose single merged edge
// covers full (the field's whole domain) tests nothing and is elided to
// its child. The edges slice and its Edge structs are consumed: the
// store may retain or relabel them.
//
// It is the primitive for building diagrams directly in reduced form —
// a bottom-up walk that canonicalizes each node as it is created (the
// lockstep comparison does this) never materializes an unreduced tree.
func (in *Interner) Canonicalize(fieldIdx int, edges []*Edge, full interval.Set) *Node {
	return in.canonicalize(fieldIdx, edges, full, false)
}

// canonicalize is Canonicalize; with shared set, the Edge structs are
// never modified, so the caller may pass edges that other canonical
// nodes hold (the edges slice is still consumed).
func (in *Interner) canonicalize(fieldIdx int, edges []*Edge, full interval.Set, shared bool) *Node {
	edges = mergeSameChild(edges, shared)
	if len(edges) == 1 && edges[0].Label.Equal(full) {
		return edges[0].To
	}
	sortEdges(edges)
	return in.intern(&Node{Field: fieldIdx, Edges: edges})
}

// mergeSameChild merges edges that lead to the same (canonical) child,
// in place in the slice. A merged edge is relabeled in place, or, when
// the edges are shared with other nodes, replaced by a fresh Edge.
// Small edge lists — the overwhelmingly common case — are merged by
// pointer scan; large ones through a map.
func mergeSameChild(edges []*Edge, shared bool) []*Edge {
	if len(edges) < 2 {
		return edges
	}
	merge := func(p, e *Edge) *Edge {
		if shared {
			return &Edge{Label: p.Label.Union(e.Label), To: p.To}
		}
		p.Label = p.Label.Union(e.Label)
		return p
	}
	out := edges[:0]
	if len(edges) <= 16 {
		for _, e := range edges {
			dup := false
			for i, p := range out {
				if p.To == e.To {
					out[i] = merge(p, e)
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, e)
			}
		}
		return out
	}
	seen := make(map[*Node]int, len(edges))
	for _, e := range edges {
		if i, ok := seen[e.To]; ok {
			out[i] = merge(out[i], e)
			continue
		}
		seen[e.To] = len(out)
		out = append(out, e)
	}
	return out
}

// Reduce hash-conses the diagram into the store and returns the reduced
// FDD. See (*FDD).Reduce for the reduction contract; the input is not
// modified.
func (in *Interner) Reduce(f *FDD) *FDD {
	return &FDD{Schema: f.Schema, Root: in.ReduceNode(f.Schema, f.Root)}
}

// ReduceNode reduces the subgraph rooted at root: isomorphic subgraphs
// are shared, edges to the same child are merged, and nodes whose single
// merged edge covers the whole field domain are elided. The returned
// node is canonical in the store. Nodes already canonical in this store
// are returned as-is without re-walking their subgraphs, so re-reducing
// a diagram that is mostly canonical copies only its new part.
func (in *Interner) ReduceNode(schema *field.Schema, root *Node) *Node {
	fulls := make([]interval.Set, schema.NumFields())
	for k := range fulls {
		fulls[k] = schema.FullSet(k)
	}
	// memo dedupes shared *input* nodes within this call: the input is
	// usually a DAG, and each distinct node should be reduced once.
	memo := make(map[*Node]*Node)
	var reduce func(n *Node) *Node
	reduce = func(n *Node) *Node {
		if in.Canonical(n) {
			return n
		}
		if n.IsTerminal() {
			return in.CanonicalTerminal(n.Decision)
		}
		if c, ok := memo[n]; ok {
			return c
		}
		// Reduce children first; Canonicalize merges duplicate-child
		// edges, elides nodes whose single merged edge spans the domain
		// (a node that tests nothing — but an *incomplete* single-edge
		// node, which Reduce meets on partial diagrams during
		// construction, is preserved), and dedupes against the store.
		edges := make([]*Edge, len(n.Edges))
		for i, e := range n.Edges {
			edges[i] = &Edge{Label: e.Label, To: reduce(e.To)}
		}
		c := in.Canonicalize(n.Field, edges, fulls[n.Field])
		memo[n] = c
		return c
	}
	return reduce(root)
}
