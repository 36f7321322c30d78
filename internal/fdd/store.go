package fdd

import (
	"sync/atomic"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// Interner is a hash-consing node store: it assigns each canonical FDD
// node a dense uint32 id and dedupes nodes by a uint64 structural hash
// of (field, [(label, child-id)...]) with collision chaining. Hashing a
// node is a handful of multiplies over its interval bounds and child
// ids, no formatting and no string allocation, O(1) amortized per node.
//
// A store keeps no side table from node to identity: a node it owns
// carries the store's serial and its own dense id, so "is n canonical
// here" and "what is n's id" are field reads. Serials come from one
// process-wide 64-bit counter and never repeat, so a node stamped by
// another store, or by an earlier generation of an overlay, never
// passes as canonical.
//
// A node owned by the store is canonical: its children are canonical and
// no other stored node is structurally equal to it. Canonical nodes are
// never mutated (apart from the append memo slot, which only a build
// holding the family lock writes and which every build clears before it
// returns), so a store can be shared by a whole builder family — a
// subgraph that is already canonical is recognized by one field read
// and never re-walked or re-hashed.
//
// An overlay (newOverlay) is a store stacked on a parent: lookups
// consult the parent first and ids continue the parent's numbering, so a
// node is canonical in exactly one of the two and pointer equality still
// means functional equality across both. Construction interns its
// intermediate diagrams into an overlay and promotes only the checkpoint
// roots into the parent: moveInto moves the overlay nodes a root
// reaches into the parent as they are, restamping their serial and id,
// and reset gives the overlay a fresh serial, which disowns every node
// that was not adopted in O(1).
//
// An Interner is not safe for concurrent use; parallel pipelines give
// each worker its own store and re-intern once at the stitch point.
type Interner struct {
	// buckets maps a structural hash to the first canonical nonterminal
	// with that hash; overflow chains any others, which a 64-bit hash
	// makes rare, so the common bucket costs no slice of its own.
	buckets  map[uint64]*Node
	overflow map[uint64][]*Node
	terms    map[rule.Decision]*Node // decision -> canonical terminal
	// serial is stamped on every node the store owns; count is how many
	// it owns, whose ids run from idBase to idBase+count-1.
	serial uint64
	count  int
	// parent, when non-nil, makes this store an overlay of parent, which
	// must not change while the overlay is in use; idBase is parent's
	// node count at creation (or last reset), the first id the overlay
	// assigns.
	parent *Interner
	idBase uint32
	// hashOverride, when non-nil, replaces the structural hash. Tests
	// use it to force every node into one bucket and exercise the
	// chaining path.
	hashOverride func(field int, edges []Edge) uint64
}

// storeSerials hands out store serials. Zero is never handed out, so a
// node no store owns (serial 0) is canonical nowhere.
var storeSerials atomic.Uint64

// NewInterner returns an empty node store.
func NewInterner() *Interner {
	return &Interner{
		buckets: make(map[uint64]*Node),
		terms:   make(map[rule.Decision]*Node),
		serial:  storeSerials.Add(1),
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

// moveInto moves root and the nodes below it that dst does not own into
// dst, children first. No node is copied and no edge rewritten: each
// moved node is restamped with dst's serial and dst's next id, and
// re-hashed under that id. The caller guarantees that no moved node
// equals a node dst already holds, and that no other goroutine reads
// the moved nodes' store identity while they move.
//
// Promotion moves an overlay's nodes into its parent, and there the
// guarantee holds by construction: intern consults the parent whenever
// all of a node's children are in it, and a node with a child canonical
// in the overlay cannot equal a parent node, whose children are all the
// parent's. The overlay must be reset before it is used again.
func moveInto(dst *Interner, root *Node) {
	var move func(n *Node)
	move = func(n *Node) {
		if dst.Canonical(n) {
			return
		}
		if n.IsTerminal() {
			dst.terms[n.Decision] = n
			dst.register(n)
			return
		}
		for i := range n.Edges {
			move(n.Edges[i].To)
		}
		h, _ := dst.hashNode(n.Field, n.Edges)
		dst.insert(h, n)
		dst.register(n)
	}
	move(root)
}

// reset empties the overlay for the next batch: a fresh serial disowns
// every node it holds (adopted ones already carry the parent's), the
// tables are cleared keeping their capacity, and ids restart after the
// parent's current nodes.
func (in *Interner) reset() {
	in.serial = storeSerials.Add(1)
	clear(in.buckets)
	clear(in.overflow)
	clear(in.terms)
	in.count = 0
	in.idBase = uint32(in.parent.NumNodes())
}

// NumNodes returns how many canonical nodes the store holds (an
// overlay counts only its own, not its parent's).
func (in *Interner) NumNodes() int { return in.count }

// Canonical reports whether n is owned by (canonical in) this store.
func (in *Interner) Canonical(n *Node) bool { return n.serial == in.serial }

// fnv64Offset is the FNV-64 offset basis, the seed of node hashes.
const fnv64Offset = 14695981039346656037

// mix64 folds v into the running hash h (FNV-1a style).
func mix64(h, v uint64) uint64 {
	const fnv64Prime = 1099511628211
	return (h ^ v) * fnv64Prime
}

// hashNode computes the structural hash of a nonterminal labeled field
// with the given edges, whose children are already canonical in this
// store or its parent (terminals are interned by decision in a separate
// table and never hashed). inParent reports that every child belongs to
// the parent store — only then can the parent hold an equal node, under
// the same hash.
func (in *Interner) hashNode(field int, edges []Edge) (h uint64, inParent bool) {
	inParent = in.parent != nil
	h = mix64(fnv64Offset, uint64(field))
	for i := range edges {
		e := &edges[i]
		inParent = inParent && e.To.serial == in.parent.serial
		h = e.Label.Hash(h)
		h = mix64(h, uint64(e.To.id))
	}
	if in.hashOverride != nil {
		h = in.hashOverride(field, edges)
	}
	return h, inParent
}

// sameShape reports whether the nonterminal c is labeled field and has
// exactly the given edges, whose children are canonical (so child
// comparison is pointer identity).
func sameShape(c *Node, field int, edges []Edge) bool {
	if c.Field != field || len(c.Edges) != len(edges) {
		return false
	}
	for i := range edges {
		if c.Edges[i].To != edges[i].To || !c.Edges[i].Label.Equal(edges[i].Label) {
			return false
		}
	}
	return true
}

// intern returns the canonical nonterminal labeled field with the given
// edges, whose children must already be canonical and which must be in
// sorted order. It probes by (field, edges) first: a node that already
// exists is returned and nothing is allocated. Only a new node is
// allocated, with its own exact-size copy of edges; the caller's slice
// is never retained.
func (in *Interner) intern(field int, edges []Edge, full interval.Set) *Node {
	h, inParent := in.hashNode(field, edges)
	if inParent {
		if c := in.parent.lookup(h, field, edges); c != nil {
			return c
		}
	}
	if c := in.lookup(h, field, edges); c != nil {
		return c
	}
	n := newNode(field, edges)
	n.complete = tiles(edges, full)
	in.insert(h, n)
	in.register(n)
	return n
}

// lookup returns the node in the bucket of hash h that is labeled field
// with exactly edges, or nil.
func (in *Interner) lookup(h uint64, field int, edges []Edge) *Node {
	c := in.buckets[h]
	if c == nil {
		return nil
	}
	if sameShape(c, field, edges) {
		return c
	}
	for _, c := range in.overflow[h] {
		if sameShape(c, field, edges) {
			return c
		}
	}
	return nil
}

// insert adds the nonterminal n, whose hash is h, to the bucket of h.
func (in *Interner) insert(h uint64, n *Node) {
	if _, taken := in.buckets[h]; !taken {
		in.buckets[h] = n
		return
	}
	if in.overflow == nil {
		in.overflow = make(map[uint64][]*Node)
	}
	in.overflow[h] = append(in.overflow[h], n)
}

// nodeBlock co-allocates a node with its edge array, one object instead
// of two. For 1 to 8 edges, 64+32k bytes is itself a size class, so the
// block costs exactly what the two allocations would.
type nodeBlock[E any] struct {
	n Node
	e E
}

// newNode returns a node labeled field holding an exact-size copy of
// edges.
func newNode(field int, edges []Edge) *Node {
	var n *Node
	var dst []Edge
	switch len(edges) {
	case 1:
		b := new(nodeBlock[[1]Edge])
		n, dst = &b.n, b.e[:]
	case 2:
		b := new(nodeBlock[[2]Edge])
		n, dst = &b.n, b.e[:]
	case 3:
		b := new(nodeBlock[[3]Edge])
		n, dst = &b.n, b.e[:]
	case 4:
		b := new(nodeBlock[[4]Edge])
		n, dst = &b.n, b.e[:]
	case 5:
		b := new(nodeBlock[[5]Edge])
		n, dst = &b.n, b.e[:]
	case 6:
		b := new(nodeBlock[[6]Edge])
		n, dst = &b.n, b.e[:]
	case 7:
		b := new(nodeBlock[[7]Edge])
		n, dst = &b.n, b.e[:]
	case 8:
		b := new(nodeBlock[[8]Edge])
		n, dst = &b.n, b.e[:]
	default:
		n, dst = new(Node), make([]Edge, len(edges))
	}
	copy(dst, edges)
	n.Field, n.Edges = field, dst
	return n
}

// tiles reports whether the disjoint labels of edges cover full: their
// sizes sum to its size. (A domain of 2^64 values saturates Count, and
// its nodes are never reported complete.)
func tiles(edges []Edge, full interval.Set) bool {
	c := full.Count()
	if c == interval.Max {
		return false
	}
	var n uint64
	for i := range edges {
		n += edges[i].Label.Count()
	}
	return n == c
}

// register stamps n with the store's serial and next dense id.
func (in *Interner) register(n *Node) {
	n.serial = in.serial
	n.id = in.idBase + uint32(in.count)
	in.count++
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

// Canonicalize returns the canonical node for a nonterminal labeled
// fieldIdx with the given edges, whose children must already be
// canonical in this store. Edges leading to the same child are merged
// and the result is ordered by label; a node whose single merged edge
// covers full (the field's whole domain) tests nothing and is elided to
// its child.
//
// edges is scratch space: it is merged and reordered in place, and the
// store never retains it — a node that is not yet stored gets its own
// exact-size copy, and one that is allocates nothing. Callers build edge
// lists on a reused stack and truncate it after the call.
//
// It is the primitive for building diagrams directly in reduced form —
// a bottom-up walk that canonicalizes each node as it is created (the
// lockstep comparison does this) never materializes an unreduced tree.
func (in *Interner) Canonicalize(fieldIdx int, edges []Edge, full interval.Set) *Node {
	edges = mergeSameChild(edges)
	if len(edges) == 1 && edges[0].Label.Equal(full) {
		return edges[0].To
	}
	sortEdges(edges)
	return in.intern(fieldIdx, edges, full)
}

// mergeSameChild merges edges that lead to the same (canonical) child,
// in place in the slice, relabeling the first of them with the union.
// The edges are values, so no stored node sees the relabeling. Small
// edge lists — the overwhelmingly common case — are merged by pointer
// scan; large ones through a map.
func mergeSameChild(edges []Edge) []Edge {
	if len(edges) < 2 {
		return edges
	}
	out := edges[:0]
	if len(edges) <= 16 {
		for _, e := range edges {
			dup := false
			for i := range out {
				if out[i].To == e.To {
					out[i].Label = out[i].Label.Union(e.Label)
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
			out[i].Label = out[i].Label.Union(e.Label)
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
	var stack []Edge
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
		// Each call's edges are a frame on stack, indexed by its base
		// because the recursion may grow (and move) the slice.
		base := len(stack)
		for _, e := range n.Edges {
			to := reduce(e.To)
			stack = append(stack, Edge{Label: e.Label, To: to})
		}
		c := in.Canonicalize(n.Field, stack[base:], fulls[n.Field])
		stack = stack[:base]
		memo[n] = c
		return c
	}
	return reduce(root)
}
