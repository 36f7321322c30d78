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

	// covered caches the covered-label union of each canonical
	// nonterminal the store did not mark complete (a complete node
	// covers the domain, which coveredBy reads off the node); canonical
	// nodes are immutable, so an entry never goes stale. It is cleared
	// with the overlay whose nodes it references.
	covered map[*Node]interval.Set

	// stack holds the edge lists under construction, one frame per
	// applyAt (or node) call, each addressed by its base index: a deeper
	// call may grow, and so move, the slice. Interning copies a frame
	// only when its node is new.
	stack []Edge

	// Per-append state: the rule being appended, the memo that visits
	// each (node, field index) once, and lazily built pieces that depend
	// only on the rule and a field index. The common subproblem, a node
	// at its own field, is memoized in the node's slot (Node.memoGen,
	// Node.memoOut); memo holds only the skipped-field ones (a terminal,
	// or a node labeled with a later field). Either entry holds for the
	// append whose generation it carries: start bumps gen instead of
	// clearing anything, except when gen wraps. slots lists the nodes
	// whose slot the build has written since the last clearSlots, which
	// promotion and the end of the build call, so no resident node keeps
	// a slot (or a pointer into a discarded overlay) once its build
	// moves on.
	pred    rule.Predicate
	dec     rule.Decision
	gen     uint16
	memo    map[memoKey]memoEntry
	slots   []*Node
	paths   []*Node        // paths[k]: canonical path for pred[k:], or nil
	outside []interval.Set // outside[k]: fulls[k] minus pred[k], or empty

	// m meters the build: one tick, charged as one node, for every
	// (node, field index) subproblem the append visits and one for every
	// node it creates, so charged work bounds CPU even for a rule that
	// changes nothing.
	m guard.Meter
}

// memoKey identifies one skipped-field append subproblem: the rule's
// conjuncts from field k on, merged into the canonical node n, which is
// a terminal or labeled with a field after k.
type memoKey struct {
	n *Node
	k int
}

// memoEntry is a memoized subproblem result, valid in the append of
// generation gen only.
type memoEntry struct {
	out *Node
	gen uint16
}

// budgetPanic carries a meter's stop (a budget crossing or a
// cancellation) out of a recursion with no error path; it is recovered
// at the construction and simplification entry points only.
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

// tick charges one unit of work, a visited subproblem or a created
// node, and unwinds once the meter stops the build.
func (ap *appender) tick() {
	ap.m.AddNodes(1)
	if ap.m.Tick() {
		ap.unwind()
	}
}

// unwind raises the meter's latched error as a budgetPanic; kept out of
// tick so the hot path inlines.
func (ap *appender) unwind() { panic(budgetPanic{ap.m.Err()}) }

// node canonicalizes a nonterminal labeled k whose edges are the stack
// frame from base up (their children canonical) into the overlay,
// charging the budget for it, and pops the frame.
func (ap *appender) node(k, base int) *Node {
	ap.tick()
	n := ap.ov.Canonicalize(k, ap.stack[base:], ap.fulls[k])
	ap.stack = ap.stack[:base]
	return n
}

// promote moves the overlay nodes root reaches into the family store
// and empties the overlay for the next batch: the family keeps exactly
// the nodes reachable from promoted roots, never the intermediate forms
// between them, and the nodes it keeps are the ones the appends built.
// root itself stays the same pointer, now canonical in the family.
func (ap *appender) promote(root *Node) {
	ap.clearSlots()
	moveInto(ap.family, root)
	ap.overlayNodes += ap.ov.NumNodes()
	ap.ov.reset()
	clear(ap.covered)
	clear(ap.memo)
	clear(ap.stack[:cap(ap.stack)])
}

// clearSlots empties every memo slot the build has written since the
// last call.
func (ap *appender) clearSlots() {
	for _, n := range ap.slots {
		n.memoGen, n.memoOut = 0, nil
	}
	clear(ap.slots)
	ap.slots = ap.slots[:0]
}

// start resets the per-append state for rule (pred, d).
func (ap *appender) start(pred rule.Predicate, d rule.Decision) {
	ap.pred, ap.dec = pred, d
	if ap.gen++; ap.gen == 0 {
		// The generation wrapped: empty every slot and memo entry an
		// earlier append of this build could still match.
		ap.clearSlots()
		clear(ap.memo)
		ap.gen = 1
	}
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
		ap.tick()
		n = ap.ov.CanonicalTerminal(ap.dec)
	case ap.pred[k].Equal(ap.fulls[k]):
		n = ap.path(k + 1)
	default:
		to := ap.path(k + 1)
		base := len(ap.stack)
		ap.stack = append(ap.stack, Edge{Label: ap.pred[k], To: to})
		n = ap.node(k, base)
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

// coveredBy returns the union of v's edge labels. A node the store
// found complete when it created it covers the whole domain; the union
// of any other is gathered and canonicalized in a single pass, once per
// canonical node.
func (ap *appender) coveredBy(v *Node) interval.Set {
	if v.complete {
		return ap.fulls[v.Field]
	}
	if s, ok := ap.covered[v]; ok {
		return s
	}
	ap.ivbuf = ap.ivbuf[:0]
	for i := range v.Edges {
		ap.ivbuf = v.Edges[i].Label.AppendIntervals(ap.ivbuf)
	}
	s := interval.NewSet(ap.ivbuf...)
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
// appended to once: in v's own slot when k is v's field, in the memo
// map otherwise. Each memo miss is charged to the budget: an append
// that changes nothing still walks every subproblem its rule overlaps.
func (ap *appender) apply(v *Node, k int) *Node {
	if k == len(ap.pred) {
		// All fields consumed: the existing first-match decision wins.
		return v
	}
	if k == v.Field {
		if v.memoGen == ap.gen {
			return v.memoOut
		}
		ap.tick()
		out := ap.applyAt(v, k)
		if v.memoGen == 0 {
			ap.slots = append(ap.slots, v)
		}
		v.memoGen, v.memoOut = ap.gen, out
		return out
	}
	key := memoKey{v, k}
	if e, ok := ap.memo[key]; ok && e.gen == ap.gen {
		return e.out
	}
	ap.tick()
	out := ap.applyAt(v, k)
	ap.memo[key] = memoEntry{out, ap.gen}
	return out
}

// applyAt is apply's body: the three edge cases of Fig. 7 on a diagram
// whose nodes may skip fields (a skipped field is implicitly a single
// full-domain edge). A changed node's edges are built as a frame on
// ap.stack starting at base; nothing is pushed until the first change,
// so an append that leaves v's function alone copies nothing here.
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
		base := len(ap.stack)
		ap.stack = append(ap.stack,
			Edge{Label: ap.outsideOf(k), To: v},
			Edge{Label: s, To: inside})
		return ap.node(k, base)
	}

	base := len(ap.stack)
	changed := false

	// Uncovered part of S: packets here match none of the earlier rules,
	// so they get the new rule's decision path. A node whose edges
	// already tile the whole domain has no uncovered part.
	if cov := ap.coveredBy(v); !cov.Equal(ap.fulls[v.Field]) {
		if rest := s.Subtract(cov); !rest.Empty() {
			to := ap.path(k + 1)
			ap.stack = append(ap.stack, Edge{Label: rest, To: to})
			changed = true
		}
	}

	for i := range v.Edges {
		e := &v.Edges[i]
		if !e.Label.Overlaps(s) {
			// Case 1: S ∩ I(e) = ∅ — the edge is unaffected.
			if changed {
				ap.stack = append(ap.stack, *e)
			}
			continue
		}
		child := ap.apply(e.To, k+1)
		if child == e.To {
			// Every packet of S ∩ I(e) already matched an earlier rule.
			if changed {
				ap.stack = append(ap.stack, *e)
			}
			continue
		}
		if !changed {
			ap.stack = append(ap.stack, v.Edges[:i]...)
			changed = true
		}
		if s.ContainsSet(e.Label) {
			// Case 2: I(e) ⊆ S — the rest of the rule went below e.
			ap.stack = append(ap.stack, Edge{Label: e.Label, To: child})
		} else {
			// Case 3: split e; the outside part keeps the old subgraph,
			// the inside part gets the appended version.
			ap.stack = append(ap.stack,
				Edge{Label: e.Label.Subtract(s), To: e.To},
				Edge{Label: e.Label.Intersect(s), To: child})
		}
	}
	if !changed {
		// No terminal changed anywhere below: keep the canonical node.
		return v
	}
	return ap.node(v.Field, base)
}
