package fdd

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// Store is a hash-consing node store that holds no pointers. Each
// canonical node is a fixed-size record in one slab, named by its dense
// uint32 id; its edges are a run of records in a second slab, each a
// child id and the offsets of its label's intervals in a third slab of
// []interval.Interval. A label is written to that slab once, when the
// node that first carries it is stored, and every later node that keeps
// the edge names the same run. The unique table maps a uint64
// structural hash of (field, [(label, child id)...]) to the newest node
// with that hash, and each record links to the next one in its chain,
// so a collision costs no slice of its own. The garbage collector never
// scans any of it, and interning a node allocates nothing but amortized
// slab growth.
//
// A node owned by the store is canonical: its children are canonical and
// no other stored node is structurally equal to it, so within one store
// equal ids mean equal functions. Ids are assigned bottom-up, and every
// child's id is below its parent's.
//
// Nodes are built on the store's scratch frame: a caller marks a Frame,
// pushes its edges (Push, PushIntersect), and Node canonicalizes them
// and pops the frame. Labels pushed are copied into the scratch, and a
// node the store has not seen copies them again into its slab, so the
// store never aliases a caller's interval storage. Construction also
// pushes stored edges as they are (pushStored), naming their runs.
//
// A node is decided when every packet that reaches it has a terminal
// below it: a terminal, or a node whose edges tile its field's domain
// and whose children are all decided. An append of a first-match rule
// changes nothing below a decided node.
//
// An overlay (openOverlay) is a watermark: nodes from base up are
// intermediate and indexed in an open-hashing slab of their own, probed
// after the table when every child of the node being interned is below
// base. Promotion compacts the overlay nodes one root reaches down onto
// the watermark, renumbering them and indexing them in the table, and
// drops the rest by truncating the slabs; it empties only the buckets
// the overlay used, so it costs the overlay's size, not the index's.
//
// Published diagrams are *Node graphs materialized from the store
// (materialize): a Store never hands out a pointer into itself, so a
// store whose diagrams are all materialized can be released for reuse
// (Release), slabs and tables at their grown sizes. A Store is not safe
// for concurrent use.
type Store struct {
	nodes []record
	edges []edgeRec
	ivs   []interval.Interval

	// table indexes the nodes outside an overlay: it maps a hash to the
	// newest node with it, whose record chains the others.
	table map[uint64]uint32
	// oheads indexes the overlay's nodes: a power-of-two slab of chain
	// heads (an id plus one, 0 for none), one per bucket (see bucket),
	// chained through the records as table's are. ohash holds each
	// overlay node's hash, indexed by id minus base, so a chain's nodes
	// of other hashes are passed over without comparing labels, and
	// growing the index or promoting a node rehashes no label. oheads is
	// all zero while no overlay is open.
	oheads []uint32
	ohash  []uint64
	oshift uint8
	// overlay is set between openOverlay and closeOverlay; base, ebase
	// and ibase are then the lengths of the three slabs the overlay
	// started from.
	overlay            bool
	base, ebase, ibase uint32

	// frame and fivs are the scratch of the nodes under construction:
	// a frame edge names its label's intervals by offsets in fivs, marked
	// with the scratch bit, or by a stored run of ivs.
	frame []edgeRec
	fivs  []interval.Interval
	// runs is promotion's scratch, indexed by offset in the overlay's
	// part of ivs: at each run a kept edge names, first its length, then
	// its new offset plus one.
	runs []uint32
	// wide indexes a wide frame's children while it is merged.
	wide map[uint32]int
	// work is promotion's and materialization's id scratch, and pos,
	// indexed by id, materialization's: a node's index in work plus
	// one while it is being built, else 0.
	work []uint32
	pos  []uint32

	// hashOverride, when non-nil, replaces every structural hash. Tests
	// use it to force every node into one chain.
	hashOverride func(h uint64) uint64
}

// record is one stored node: a terminal (field TerminalField) with its
// decision, or a nonterminal with nEdges edges from edge0 on.
type record struct {
	dec    rule.Decision
	field  int32
	edge0  uint32
	nEdges uint32
	// next is the id plus one of the next node in this node's hash
	// chain, 0 at the chain's end.
	next uint32
	// complete records, when the store created the node, that its edges
	// tile the field's whole domain; false also when that was not
	// established (a 2^64-value domain saturates the count).
	complete bool
	// decided: the node is a terminal, or complete with every child
	// decided, so every packet that reaches it has a terminal below it.
	decided bool
}

// edgeRec is one edge: its label is ivs[lo:hi], or on the scratch
// frame fivs[lo:hi] with the scratch bit set in both, its child the node
// to. Distinct stored runs never overlap: a run is either written whole
// or named whole.
type edgeRec struct {
	lo, hi, to uint32
}

// scratch marks a frame edge whose label lies in fivs. A store never
// holds 2^31 intervals, so no stored run has the bit.
const scratch = 1 << 31

// labelOf returns the intervals of the stored or frame edge e.
func (s *Store) labelOf(e edgeRec) []interval.Interval {
	if e.lo&scratch != 0 {
		return s.fivs[e.lo&^scratch : e.hi&^scratch]
	}
	return s.ivs[e.lo:e.hi]
}

// noNode marks an absent id.
const noNode = ^uint32(0)

// storePool recycles released stores. Their slabs hold no pointers, so
// a pooled store costs the collector nothing to keep, and a build that
// takes one grows no slab or table it has grown before.
var storePool = sync.Pool{New: func() any {
	return &Store{table: make(map[uint64]uint32)}
}}

// maxPooled caps the edge and interval slabs of a store Release pools,
// so one huge diagram's store does not stay resident in the pool.
const maxPooled = 1 << 18

// NewStore returns an empty node store, recycled when one was released.
func NewStore() *Store { return storePool.Get().(*Store) }

// Release empties the store and returns it for reuse by NewStore. The
// caller must not use the store, or an id it handed out, again; the
// diagrams materialized from it stay valid.
func (s *Store) Release() {
	if cap(s.edges) > maxPooled || cap(s.ivs) > maxPooled {
		return
	}
	s.closeOverlay()
	clear(s.table)
	*s = Store{
		nodes: s.nodes[:0], edges: s.edges[:0], ivs: s.ivs[:0],
		table: s.table, oheads: s.oheads, ohash: s.ohash, oshift: s.oshift,
		frame: s.frame[:0], fivs: s.fivs[:0], runs: s.runs[:0], work: s.work[:0], pos: s.pos,
	}
	storePool.Put(s)
}

// NumNodes returns how many canonical nodes the store holds, overlay
// nodes included.
func (s *Store) NumNodes() int { return len(s.nodes) }

// bytes estimates the store's resident size: its slabs at their
// capacity, about 32 bytes per unique-table entry, and the overlay's
// index.
func (s *Store) bytes() int64 {
	const recordBytes, edgeBytes, intervalBytes, tableBytes = 32, 12, 16, 32
	return int64(cap(s.nodes))*recordBytes + int64(cap(s.edges))*edgeBytes +
		int64(cap(s.ivs))*intervalBytes + int64(len(s.table))*tableBytes +
		4*int64(cap(s.oheads)) + 8*int64(cap(s.ohash))
}

// fnv64Offset is the FNV-64 offset basis, the seed of node hashes.
const fnv64Offset = 14695981039346656037

// mix64 folds v into the running hash h (FNV-1a style).
func mix64(h, v uint64) uint64 {
	const fnv64Prime = 1099511628211
	return (h ^ v) * fnv64Prime
}

// hash is the structural hash of a nonterminal labeled field with the
// given stored or frame edges.
func (s *Store) hash(field int32, edges []edgeRec) uint64 {
	h := mix64(fnv64Offset, uint64(field))
	for _, e := range edges {
		h = interval.SetView(s.labelOf(e)).Hash(h)
		h = mix64(h, uint64(e.to))
	}
	if s.hashOverride != nil {
		h = s.hashOverride(h)
	}
	return h
}

// termHash is the hash of the terminal labeled d.
func (s *Store) termHash(d rule.Decision) uint64 {
	h := mix64(mix64(fnv64Offset, ^uint64(0)), uint64(d))
	if s.hashOverride != nil {
		h = s.hashOverride(h)
	}
	return h
}

// find returns the node with hash h, labeled field and decision dec
// (nonterminals carry decision 0), whose edges equal the frame edges fe,
// or reports there is none. It looks in the overlay's index when
// overlay is set, else in the table.
func (s *Store) find(overlay bool, h uint64, field int32, dec rule.Decision, fe []edgeRec) (uint32, bool) {
	var next uint32
	if overlay {
		next = s.oheads[s.bucket(h)]
	} else if id, ok := s.table[h]; ok {
		next = id + 1
	}
	for next != 0 {
		id := next - 1
		r := &s.nodes[id]
		if (!overlay || s.ohash[id-s.base] == h) && r.field == field && r.dec == dec &&
			int(r.nEdges) == len(fe) && s.sameEdges(s.edges[r.edge0:r.edge0+r.nEdges], fe) {
			return id, true
		}
		next = r.next
	}
	return 0, false
}

// index links the new node id, whose hash is h, into the overlay's
// index while an overlay is open, else into the table.
func (s *Store) index(h uint64, id uint32) {
	if !s.overlay {
		s.link(h, id)
		return
	}
	s.ohash = append(s.ohash, h)
	if 2*len(s.ohash) > len(s.oheads) {
		s.rehash(2 * len(s.oheads))
		return
	}
	b := s.bucket(h)
	s.nodes[id].next, s.oheads[b] = s.oheads[b], id+1
}

// link indexes the node id, whose hash is h, in the table.
func (s *Store) link(h uint64, id uint32) {
	s.nodes[id].next = 0
	if head, ok := s.table[h]; ok {
		s.nodes[id].next = head + 1
	}
	s.table[h] = id
}

// bucket returns the overlay index's bucket of the hash h: its top bits
// after a Fibonacci multiply, so every bit of h counts.
func (s *Store) bucket(h uint64) uint32 {
	return uint32((h * 0x9e3779b97f4a7c15) >> s.oshift)
}

// rehash resizes the overlay's index to n buckets, a power of two, and
// links every overlay node into it again.
func (s *Store) rehash(n int) {
	s.oheads = extend(s.oheads[:0], n)
	s.oshift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i, h := range s.ohash {
		id, b := s.base+uint32(i), s.bucket(h)
		s.nodes[id].next, s.oheads[b] = s.oheads[b], id+1
	}
}

// unindexOverlay empties the buckets of the overlay's nodes, which
// leaves the overlay's index all zero; ohash keeps their hashes.
func (s *Store) unindexOverlay() {
	for _, h := range s.ohash {
		s.oheads[s.bucket(h)] = 0
	}
}

// sameEdges reports whether the stored edges se equal the frame edges
// fe: the same children, in order, under equal labels.
func (s *Store) sameEdges(se, fe []edgeRec) bool {
	for i := range se {
		if se[i].to != fe[i].to || se[i].lo != fe[i].lo && !slices.Equal(s.ivs[se[i].lo:se[i].hi], s.labelOf(fe[i])) {
			return false
		}
	}
	return true
}

// Terminal returns the id of the store's canonical terminal labeled d.
func (s *Store) Terminal(d rule.Decision) uint32 {
	h := s.termHash(d)
	if id, ok := s.find(false, h, TerminalField, d, nil); ok {
		return id
	}
	if s.overlay {
		if id, ok := s.find(true, h, TerminalField, d, nil); ok {
			return id
		}
	}
	id := uint32(len(s.nodes))
	s.nodes = append(grow(s.nodes, 1), record{dec: d, field: TerminalField, decided: true})
	s.index(h, id)
	return id
}

// Frame marks the top of the scratch frame: the base of a node under
// construction, which Node pops back to.
type Frame struct{ edges, ivs int }

// Frame returns the current top of the scratch frame.
func (s *Store) Frame() Frame { return Frame{len(s.frame), len(s.fivs)} }

// Push pushes an edge labeled label to the canonical node to.
func (s *Store) Push(label interval.Set, to uint32) {
	lo := len(s.fivs)
	s.fivs = label.AppendIntervals(s.fivs)
	s.pushScratch(lo, to)
}

// PushIntersect pushes an edge labeled a ∩ b to the canonical node to,
// unless the intersection is empty.
func (s *Store) PushIntersect(a, b interval.Set, to uint32) {
	lo := len(s.fivs)
	s.fivs = a.AppendIntersect(s.fivs, b)
	s.pushScratch(lo, to)
}

// pushSubtract pushes an edge labeled a minus b to the node to, unless
// the difference is empty.
func (s *Store) pushSubtract(a, b interval.Set, to uint32) {
	lo := len(s.fivs)
	s.fivs = a.AppendSubtract(s.fivs, b)
	s.pushScratch(lo, to)
}

// pushScratch pushes an edge to the node to whose label is the scratch
// run from lo to its end, unless the run is empty.
func (s *Store) pushScratch(lo int, to uint32) {
	if hi := len(s.fivs); hi > lo {
		s.frame = append(s.frame, edgeRec{uint32(lo) | scratch, uint32(hi) | scratch, to})
	}
}

// pushStored pushes an edge to the node to under the stored edge e's
// label, naming its run instead of copying it.
func (s *Store) pushStored(e edgeRec, to uint32) {
	s.frame = append(s.frame, edgeRec{e.lo, e.hi, to})
}

// label returns the label of the stored edge e, a view of the slab that
// stays valid while the store grows (and until an overlay promotion).
func (s *Store) label(e edgeRec) interval.Set { return interval.SetView(s.ivs[e.lo:e.hi]) }

// frameLabel returns the label of the frame edge e, valid until its
// frame is popped.
func (s *Store) frameLabel(e edgeRec) interval.Set { return interval.SetView(s.labelOf(e)) }

// Node returns the canonical node labeled field whose edges are the
// frame pushed since f, whose children are canonical, and pops the
// frame. Edges leading to the same child are merged and the result is
// ordered by label; a node whose single merged edge covers full (the
// field's whole domain) tests nothing and is elided to its child. An
// existing node is found without allocating; only a new node copies its
// edges and labels into the slabs.
func (s *Store) Node(f Frame, field int, full interval.Set) uint32 {
	fe := s.mergeSameChild(s.frame[f.edges:])
	var id uint32
	if len(fe) == 1 && s.frameLabel(fe[0]).Equal(full) {
		id = fe[0].to
	} else {
		slices.SortFunc(fe, func(x, y edgeRec) int { return cmp.Compare(s.labelOf(x)[0].Lo, s.labelOf(y)[0].Lo) })
		id = s.intern(int32(field), fe, full)
	}
	s.frame, s.fivs = s.frame[:f.edges], s.fivs[:f.ivs]
	return id
}

// intern returns the canonical nonterminal labeled field with the frame
// edges fe, sorted and merged, adding it if the store lacks it. Only a
// node whose children all lie below the overlay's watermark can equal a
// node there.
func (s *Store) intern(field int32, fe []edgeRec, full interval.Set) uint32 {
	h := s.hash(field, fe)
	below, decided := true, true
	for _, e := range fe {
		below = below && e.to < s.base
		decided = decided && s.nodes[e.to].decided
	}
	if !s.overlay || below {
		if id, ok := s.find(false, h, field, 0, fe); ok {
			return id
		}
	}
	if s.overlay {
		if id, ok := s.find(true, h, field, 0, fe); ok {
			return id
		}
	}
	id := uint32(len(s.nodes))
	r := record{field: field, edge0: uint32(len(s.edges)), nEdges: uint32(len(fe))}
	n := 0
	for _, e := range fe {
		if e.lo&scratch != 0 {
			n += int(e.hi - e.lo)
		}
	}
	s.nodes, s.edges, s.ivs = grow(s.nodes, 1), grow(s.edges, len(fe)), grow(s.ivs, n)
	var count uint64
	for _, e := range fe {
		count += s.frameLabel(e).Count()
		if e.lo&scratch != 0 {
			lo := len(s.ivs)
			s.ivs = append(s.ivs, s.labelOf(e)...)
			e.lo, e.hi = uint32(lo), uint32(len(s.ivs))
		}
		s.edges = append(s.edges, e)
	}
	// The labels are disjoint, so they tile the domain exactly when
	// their sizes sum to its size.
	r.complete = full.Count() != interval.Max && count == full.Count()
	r.decided = r.complete && decided
	s.nodes = append(s.nodes, r)
	s.index(h, id)
	return id
}

// mergeSameChild merges the frame edges fe that lead to the same child,
// in place, relabeling the first of them with the union (appended to the
// scratch). Small frames, the overwhelmingly common case, are merged by
// scan; wide ones through an index.
func (s *Store) mergeSameChild(fe []edgeRec) []edgeRec {
	if len(fe) < 2 {
		return fe
	}
	out := fe[:0]
	union := func(i int, e edgeRec) {
		lo := len(s.fivs)
		s.fivs = s.frameLabel(out[i]).AppendUnion(s.fivs, s.frameLabel(e))
		out[i].lo, out[i].hi = uint32(lo)|scratch, uint32(len(s.fivs))|scratch
	}
	if len(fe) <= 16 {
		for _, e := range fe {
			dup := false
			for i := range out {
				if out[i].to == e.to {
					union(i, e)
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
	if s.wide == nil {
		s.wide = make(map[uint32]int)
	}
	defer clear(s.wide)
	for _, e := range fe {
		if i, ok := s.wide[e.to]; ok {
			union(i, e)
			continue
		}
		s.wide[e.to] = len(out)
		out = append(out, e)
	}
	return out
}

// openOverlay starts an overlay at the current end of the store, for a
// build of about rules rules: the slabs are reserved at a few records
// per rule, which most builds stay within.
func (s *Store) openOverlay(rules int) {
	s.overlay = true
	s.base, s.ebase, s.ibase = uint32(len(s.nodes)), uint32(len(s.edges)), uint32(len(s.ivs))
	if s.oheads == nil {
		s.rehash(256)
	}
	s.nodes, s.edges, s.ivs = grow(s.nodes, rules), grow(s.edges, 4*rules), grow(s.ivs, 8*rules)
}

// closeOverlay drops every overlay node and empties the scratch frame
// (which a build's budget stop can leave mid-node), leaving the store as
// its last promotion left it.
func (s *Store) closeOverlay() {
	if !s.overlay {
		return
	}
	s.nodes, s.edges, s.ivs = s.nodes[:s.base], s.edges[:s.ebase], s.ivs[:s.ibase]
	s.overlay = false
	s.unindexOverlay()
	s.ohash = s.ohash[:0]
	s.frame, s.fivs = s.frame[:0], s.fivs[:0]
}

// overlayNodes returns how many nodes the overlay holds.
func (s *Store) overlayNodes() int { return len(s.nodes) - int(s.base) }

// promote keeps the overlay nodes root reaches and drops the others:
// the kept ones are compacted, in id order, down onto the watermark
// (which keeps every child below its parent), renumbered, and indexed
// below it, and so are the overlay label runs their edges name; then
// the overlay starts empty above them. It returns root's id after the
// move. No scratch frame may be open.
func (s *Store) promote(root uint32) uint32 {
	s.work = extend(s.work[:0], len(s.nodes)-int(s.base))
	remap := s.work // remap[i]: 0 if overlay node base+i is dropped, else its new id plus one
	if root >= s.base {
		s.mark(root, remap)
	}
	// The kept runs move down in slab order, each once however many
	// edges name it; runs never overlap, so each lands at or below where
	// it was.
	s.runs = extend(s.runs[:0], len(s.ivs)-int(s.ibase))
	for old := s.base; old < uint32(len(s.nodes)); old++ {
		if remap[old-s.base] != 0 {
			r := s.nodes[old]
			for _, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
				if e.lo >= s.ibase {
					s.runs[e.lo-s.ibase] = e.hi - e.lo
				}
			}
		}
	}
	ni := s.ibase
	for i, n := range s.runs {
		if n != 0 {
			lo := s.ibase + uint32(i)
			s.runs[i] = ni + 1
			ni += uint32(copy(s.ivs[ni:], s.ivs[lo:lo+n]))
		}
	}
	s.unindexOverlay()
	id, ne := s.base, s.ebase
	for old := s.base; old < uint32(len(s.nodes)); old++ {
		if remap[old-s.base] == 0 {
			continue
		}
		r := s.nodes[old]
		e0, renumbered := ne, false
		for _, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
			if e.to >= s.base {
				to := remap[e.to-s.base] - 1
				renumbered = renumbered || to != e.to
				e.to = to
			}
			if e.lo >= s.ibase {
				lo := s.runs[e.lo-s.ibase] - 1
				e.lo, e.hi = lo, lo+(e.hi-e.lo)
			}
			s.edges[ne] = e
			ne++
		}
		r.edge0 = e0
		s.nodes[id] = r
		// A node's hash covers its children's ids, so only a node none
		// of whose children moved keeps the hash it was indexed by.
		h := s.ohash[old-s.base]
		if renumbered {
			h = s.hash(r.field, s.edges[e0:ne])
		}
		s.ohash[id-s.base] = h
		remap[old-s.base] = id + 1
		id++
	}
	newRoot := root
	if root >= s.base {
		newRoot = remap[root-s.base] - 1
	}
	s.nodes, s.edges, s.ivs = s.nodes[:id], s.edges[:ne], s.ivs[:ni]
	for k := s.base; k < id; k++ {
		s.link(s.ohash[k-s.base], k)
	}
	s.ohash = s.ohash[:0]
	s.base, s.ebase, s.ibase = id, ne, ni
	return newRoot
}

// mark sets remap for the overlay nodes id reaches.
func (s *Store) mark(id uint32, remap []uint32) {
	if remap[id-s.base] != 0 {
		return
	}
	remap[id-s.base] = 1
	r := s.nodes[id]
	for _, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
		if e.to >= s.base {
			s.mark(e.to, remap)
		}
	}
}

// materialize returns the *Node of id, building from the store every
// node it reaches that the table does not hold yet: all of them in one
// allocation of nodes, one of edges and one of intervals, each label
// copied out of the store. The table, when given, is indexed by id; it
// is grown to the store's size and the built nodes are recorded in it.
// Nodes it already holds are reused as they are, so diagrams
// materialized through one table share their common subgraphs by
// pointer. Without a table every node id reaches is built.
func (s *Store) materialize(id uint32, table *[]*Node) *Node {
	var held []*Node
	if table != nil {
		*table = extend(*table, len(s.nodes))
		if held = *table; held[id] != nil {
			return held[id]
		}
	}
	s.pos = extend(s.pos, len(s.nodes))
	ids := s.collect(id, held, s.work[:0])
	var ne, ni int
	for _, k := range ids {
		r := &s.nodes[k]
		ne += int(r.nEdges)
		for _, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
			ni += int(e.hi - e.lo)
		}
	}
	nodes := make([]Node, len(ids))
	edges := make([]Edge, ne)
	ivs := make([]interval.Interval, ni)
	for i, k := range ids {
		r := &s.nodes[k]
		n := &nodes[i]
		n.Field, n.Decision = int(r.field), r.dec
		if r.nEdges > 0 {
			es := edges[:r.nEdges:r.nEdges]
			edges = edges[r.nEdges:]
			for j, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
				c := copy(ivs, s.ivs[e.lo:e.hi])
				var to *Node
				if p := s.pos[e.to]; p != 0 {
					to = &nodes[p-1]
				} else {
					to = held[e.to]
				}
				es[j] = Edge{Label: interval.SetView(ivs[:c]), To: to}
				ivs = ivs[c:]
			}
			n.Edges = es
		}
	}
	for i, k := range ids {
		s.pos[k] = 0
		if table != nil {
			held[k] = &nodes[i]
		}
	}
	s.work = ids[:0]
	return &nodes[len(nodes)-1]
}

// collect appends to ids, children first, every node id reaches that
// held (indexed by id, nil for none) does not hold, and sets each one's
// pos to its index in ids plus one.
func (s *Store) collect(id uint32, held []*Node, ids []uint32) []uint32 {
	s.pos[id] = noNode
	r := s.nodes[id]
	for _, e := range s.edges[r.edge0 : r.edge0+r.nEdges] {
		if s.pos[e.to] == 0 && (held == nil || held[e.to] == nil) {
			ids = s.collect(e.to, held, ids)
		}
	}
	ids = append(ids, id)
	s.pos[id] = uint32(len(ids))
	return ids
}

// Diagram materializes the diagram rooted at id as a fresh *Node graph
// that shares nothing with the store.
func (s *Store) Diagram(schema *field.Schema, id uint32) *FDD {
	return &FDD{Schema: schema, Root: s.materialize(id, nil)}
}

// Reduce hash-conses the diagram into the store and returns the reduced
// FDD, materialized. See (*FDD).Reduce for the reduction contract; the
// input is not modified.
func (s *Store) Reduce(f *FDD) *FDD {
	return s.Diagram(f.Schema, s.ReduceNode(f.Schema, f.Root))
}

// ReduceNode reduces the subgraph rooted at root into the store and
// returns the id of its canonical root: isomorphic subgraphs are shared,
// edges to the same child are merged, and nodes whose single merged edge
// covers the whole field domain are elided. Reducing a diagram the store
// already holds adds no node, and two diagrams of one function reduce to
// one id.
func (s *Store) ReduceNode(schema *field.Schema, root *Node) uint32 {
	return s.reintern(schema, root, nil)
}

// reintern is ReduceNode that also records, when table is non-nil, each
// input node as the materialized form of the id it reduces to unless
// the table has one already: reinterning a reduced diagram into a store
// makes the diagram that store's materialization of itself.
func (s *Store) reintern(schema *field.Schema, root *Node, table *[]*Node) uint32 {
	fulls := fullSets(schema)
	// memo dedupes shared *input* nodes within this call: the input is
	// usually a DAG, and each distinct node should be reduced once.
	memo := make(map[*Node]uint32)
	var reduce func(n *Node) uint32
	reduce = func(n *Node) uint32 {
		if c, ok := memo[n]; ok {
			return c
		}
		var c uint32
		if n.IsTerminal() {
			c = s.Terminal(n.Decision)
		} else {
			// Reduce children first; Node merges duplicate-child edges,
			// elides nodes whose single merged edge spans the domain (an
			// *incomplete* single-edge node, which partial diagrams hold,
			// is preserved), and dedupes against the store.
			// Each child's frame sits above the edges pushed so far and is
			// popped before its edge is pushed.
			f := s.Frame()
			for _, e := range n.Edges {
				s.Push(e.Label, reduce(e.To))
			}
			c = s.Node(f, n.Field, fulls[n.Field])
		}
		memo[n] = c
		if table != nil {
			*table = extend(*table, len(s.nodes))
			if (*table)[c] == nil {
				(*table)[c] = n
			}
		}
		return c
	}
	return reduce(root)
}

// fullSets returns every field's full-domain set.
func fullSets(schema *field.Schema) []interval.Set {
	fulls := make([]interval.Set, schema.NumFields())
	for k := range fulls {
		fulls[k] = schema.FullSet(k)
	}
	return fulls
}

// grow returns b with room for n more elements, at least doubling its
// capacity when it must grow. append's own policy grows a large slice
// by about 1.25x, which for a slab built up from empty allocates about
// five times its final size.
func grow[E any](b []E, n int) []E {
	if len(b)+n > cap(b) {
		b = slices.Grow(b, max(n, cap(b)))
	}
	return b
}

// extend returns b lengthened with zero elements to length n (b itself
// when it is as long already), growing it as grow does.
func extend[E any](b []E, n int) []E {
	old := len(b)
	if n <= old {
		return b
	}
	b = grow(b, n-old)[:n]
	clear(b[old:])
	return b
}
