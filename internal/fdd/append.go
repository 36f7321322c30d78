package fdd

import (
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// checkpointEvery is how many appended rules pass between checkpoints:
// the partial diagram's root is promoted into the builder family's
// store, recorded as a resume point, and the overlay holding the
// intermediate nodes since the previous checkpoint is emptied.
const checkpointEvery = 32

// appender holds the per-construction state of the append algorithm
// (Fig. 7). Every node an append produces is hash-consed into an overlay
// over the family store the moment it is created, so each intermediate
// root is already reduced: the partial FDD never carries structure that
// a later reduction would throw away, and "did this rule change the
// diagram" is a pointer comparison.
type appender struct {
	fulls []interval.Set // fulls[k] == schema.FullSet(k)
	ivbuf []interval.Interval

	family *Interner // the builder family's store
	ov     *Interner // overlay of family holding the nodes since the last promotion
	// overlayNodes totals the nodes interned in overlays over the whole
	// build: the construction's work, in nodes.
	overlayNodes int

	// covered caches each canonical nonterminal's covered-label union;
	// canonical nodes are immutable, so an entry never goes stale. It
	// is cleared with the overlay whose nodes it references.
	covered map[*Node]interval.Set

	// Per-append state: the rule being appended, the memo that visits
	// each (node, field index) once, and lazily built pieces that depend
	// only on the rule and a field index. A memo entry holds for the
	// append whose generation it carries: start bumps gen instead of
	// clearing the map, which would cost the map's peak size per rule.
	// The map is cleared at promotion, when the overlay nodes it keys on
	// are released anyway.
	pred    rule.Predicate
	dec     rule.Decision
	gen     uint32
	memo    map[memoKey]memoEntry
	paths   []*Node        // paths[k]: canonical path for pred[k:], or nil
	outside []interval.Set // outside[k]: fulls[k] minus pred[k], or empty

	// budget, when non-nil, is charged one unit for every (node, field
	// index) subproblem the append visits and one for every node it
	// creates, so charged work bounds CPU even for a rule that changes
	// nothing; pending batches charges so the hot path pays one atomic
	// add per budgetChargeEvery units (see guard).
	budget  *guard.Budget
	pending int
}

// memoKey identifies one append subproblem: the rule's conjuncts from
// field k on, merged into the canonical node n.
type memoKey struct {
	n *Node
	k int
}

// memoEntry is a memoized subproblem result, valid in the append of
// generation gen only.
type memoEntry struct {
	out *Node
	gen uint32
}

// budgetChargeEvery is how many charged units accumulate locally between
// budget flushes — same order as the cancellation poll interval: crossings
// are detected within a few hundred nodes of work.
const budgetChargeEvery = 256

// budgetPanic carries a budget crossing out of the append recursion; it
// is recovered at the construction entry points only.
type budgetPanic struct{ err error }

func newAppender(schema *field.Schema, family *Interner) *appender {
	d := schema.NumFields()
	fulls := make([]interval.Set, d)
	for k := range fulls {
		fulls[k] = schema.FullSet(k)
	}
	return &appender{
		fulls:   fulls,
		family:  family,
		ov:      newOverlay(family),
		covered: make(map[*Node]interval.Set),
		memo:    make(map[memoKey]memoEntry),
		paths:   make([]*Node, d+1),
		outside: make([]interval.Set, d),
	}
}

// charge records n units of work (visited subproblems or created nodes),
// flushing the local batch into the budget when it is full. A crossing
// unwinds via budgetPanic.
func (ap *appender) charge(n int) {
	if ap.budget == nil {
		return
	}
	ap.pending += n
	if ap.pending >= budgetChargeEvery {
		ap.flush()
	}
}

// flush empties the local batch into the budget and aborts on a crossing.
func (ap *appender) flush() {
	if ap.budget == nil || ap.pending == 0 {
		return
	}
	n := ap.pending
	ap.pending = 0
	if err := ap.budget.AddNodes(int64(n)); err != nil {
		panic(budgetPanic{err})
	}
}

// node canonicalizes a nonterminal labeled k with the given edges (whose
// children are canonical, and which may be shared with other canonical
// nodes) into the overlay, charging the budget for it.
func (ap *appender) node(k int, edges []*Edge) *Node {
	ap.charge(1)
	return ap.ov.canonicalize(k, edges, ap.fulls[k], true)
}

// promote moves the overlay nodes root reaches into the family store
// and empties the overlay for the next batch: the family keeps exactly
// the nodes reachable from promoted roots, never the intermediate forms
// between them, and the nodes it keeps are the ones the appends built.
// root itself stays the same pointer, now canonical in the family.
func (ap *appender) promote(root *Node) {
	ap.ov.adoptInto(root)
	ap.overlayNodes += ap.ov.NumNodes()
	ap.ov.reset()
	clear(ap.covered)
	clear(ap.memo)
}

// start resets the per-append state for rule (pred, d).
func (ap *appender) start(pred rule.Predicate, d rule.Decision) {
	ap.pred, ap.dec = pred, d
	ap.gen++
	clear(ap.paths)
	clear(ap.outside)
}

// path returns the canonical single-rule diagram for conjuncts pred[k:]
// ending in the rule's decision (the partial FDD of a lone rule).
func (ap *appender) path(k int) *Node {
	if n := ap.paths[k]; n != nil {
		return n
	}
	var n *Node
	switch {
	case k == len(ap.pred):
		ap.charge(1)
		n = ap.ov.CanonicalTerminal(ap.dec)
	case ap.pred[k].Equal(ap.fulls[k]):
		n = ap.path(k + 1)
	default:
		n = ap.node(k, []*Edge{{Label: ap.pred[k], To: ap.path(k + 1)}})
	}
	ap.paths[k] = n
	return n
}

// outsideOf returns the part of field k's domain the rule does not
// match, computed once per append. It is only asked for when pred[k] is
// not the full domain, so an empty entry means "not computed yet".
func (ap *appender) outsideOf(k int) interval.Set {
	if ap.outside[k].Empty() {
		ap.outside[k] = ap.fulls[k].Subtract(ap.pred[k])
	}
	return ap.outside[k]
}

// coveredBy returns the union of v's edge labels, cached per canonical
// node. Sibling labels are disjoint, so when their sizes sum to the
// size of the field's domain the union is the domain itself and no set
// is built; otherwise every interval is gathered and canonicalized in a
// single pass. (A domain of 2^64 values saturates Count and always takes
// the second path.)
func (ap *appender) coveredBy(v *Node) interval.Set {
	if s, ok := ap.covered[v]; ok {
		return s
	}
	full := ap.fulls[v.Field]
	var n uint64
	for _, e := range v.Edges {
		n += e.Label.Count()
	}
	s := full
	if c := full.Count(); c == interval.Max || n != c {
		ap.ivbuf = ap.ivbuf[:0]
		for _, e := range v.Edges {
			ap.ivbuf = e.Label.AppendIntervals(ap.ivbuf)
		}
		s = interval.NewSet(ap.ivbuf...)
	}
	ap.covered[v] = s
	return s
}

// appendRule implements APPEND of Fig. 7 for the whole rule: it merges
// (pred, d) into the canonical partial FDD rooted at root and returns
// the canonical root of the result. The root is unchanged exactly when
// every packet matching the rule already matched an earlier rule — in
// one canonical store, equal functions are equal pointers.
func (ap *appender) appendRule(root *Node, pred rule.Predicate, d rule.Decision) *Node {
	ap.start(pred, d)
	return ap.apply(root, 0)
}

// apply merges the rule's conjuncts pred[k:] into the canonical node v,
// memoized on (v, k) so a subgraph shared under several edges is
// appended to once. Each memo miss is charged to the budget: an append
// that changes nothing still walks every subproblem its rule overlaps.
func (ap *appender) apply(v *Node, k int) *Node {
	if k == len(ap.pred) {
		// All fields consumed: the existing first-match decision wins.
		return v
	}
	key := memoKey{v, k}
	if e, ok := ap.memo[key]; ok && e.gen == ap.gen {
		return e.out
	}
	ap.charge(1)
	out := ap.applyAt(v, k)
	ap.memo[key] = memoEntry{out, ap.gen}
	return out
}

// applyAt is apply's body: the three edge cases of Fig. 7 on a diagram
// whose nodes may skip fields (a skipped field is implicitly a single
// full-domain edge).
func (ap *appender) applyAt(v *Node, k int) *Node {
	s := ap.pred[k]

	// A terminal or a node labeled with a later field covers field k
	// implicitly with the full domain: split that implicit edge on S.
	if v.IsTerminal() || v.Field > k {
		if s.Equal(ap.fulls[k]) {
			return ap.apply(v, k+1)
		}
		inside := ap.apply(v, k+1)
		if inside == v {
			return v
		}
		return ap.node(k, []*Edge{
			{Label: ap.outsideOf(k), To: v},
			{Label: s, To: inside},
		})
	}

	// edges stays nil until the first change: an append that leaves v's
	// function alone allocates nothing here. Unchanged edges are shared
	// with v (canonical edges are never mutated).
	var edges []*Edge

	// Uncovered part of S: packets here match none of the earlier rules,
	// so they get the new rule's decision path. A node whose edges
	// already tile the whole domain has no uncovered part.
	if cov := ap.coveredBy(v); !cov.Equal(ap.fulls[v.Field]) {
		if rest := s.Subtract(cov); !rest.Empty() {
			edges = make([]*Edge, 0, len(v.Edges)+2)
			edges = append(edges, &Edge{Label: rest, To: ap.path(k + 1)})
		}
	}

	for i, e := range v.Edges {
		if !e.Label.Overlaps(s) {
			// Case 1: S ∩ I(e) = ∅ — the edge is unaffected.
			if edges != nil {
				edges = append(edges, e)
			}
			continue
		}
		child := ap.apply(e.To, k+1)
		if child == e.To {
			// Every packet of S ∩ I(e) already matched an earlier rule.
			if edges != nil {
				edges = append(edges, e)
			}
			continue
		}
		if edges == nil {
			edges = make([]*Edge, 0, len(v.Edges)+2)
			edges = append(edges, v.Edges[:i]...)
		}
		if s.ContainsSet(e.Label) {
			// Case 2: I(e) ⊆ S — the rest of the rule went below e.
			edges = append(edges, &Edge{Label: e.Label, To: child})
		} else {
			// Case 3: split e; the outside part keeps the old subgraph,
			// the inside part gets the appended version.
			edges = append(edges,
				&Edge{Label: e.Label.Subtract(s), To: e.To},
				&Edge{Label: e.Label.Intersect(s), To: child})
		}
	}
	if edges == nil {
		// No terminal changed anywhere below: keep the canonical node.
		return v
	}
	return ap.node(v.Field, edges)
}
