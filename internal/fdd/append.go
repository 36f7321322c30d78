package fdd

import (
	"sync"

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
// of the family store the moment it is created, so each intermediate
// root is already reduced: the partial FDD never carries structure that
// a later reduction would throw away, and "did this rule change the
// diagram" is an id comparison. Nothing the appender keeps per node is a
// pointer: its caches are arrays and maps indexed by store id.
type appender struct {
	st    *Store // the builder family's store, its overlay open
	fulls []interval.Set
	nf    int // the schema's field count
	// overlayNodes totals the nodes interned in the overlay over the
	// whole build: the construction's work, in nodes.
	overlayNodes int

	// cov caches, by id, the covered-label union of each nonterminal the
	// store did not mark complete (a complete node covers the domain,
	// which coveredBy reads off its record), as a run of famIvs for a
	// family node and of ovIvs for an overlay node. An entry holds for
	// the build whose generation it carries: newAppender bumps covGen
	// instead of clearing anything, except when it wraps. Stored nodes
	// are immutable, so a family entry never goes stale within a build;
	// a promotion renumbers only the overlay's ids, so it empties only
	// their entries and ovIvs, and the family's survive it. A resume
	// into a large family store thus pays per promotion for the overlay
	// it promotes, not for the store.
	cov    []covEntry
	covGen uint32
	famIvs []interval.Interval
	ovIvs  []interval.Interval

	// Per-append state: the rule being appended, the memo that visits
	// each (node, field index) once, and lazily built pieces that depend
	// only on the rule and a field index. The memo is indexed by
	// id*nf + field index; an entry holds for the append whose
	// generation it carries: start bumps gen instead of clearing
	// anything, except when gen wraps. A promotion renumbers overlay ids
	// between two appends, and a recycled appender (appenders) comes from
	// another store, so the next append's generation already disowns
	// every entry either could confuse.
	pred    rule.Predicate
	dec     rule.Decision
	gen     uint32
	memo    []memoEntry
	paths   []uint32            // paths[k]: canonical path for pred[k:], or noNode
	outside []interval.Set      // outside[k]: fulls[k] minus pred[k] (in outIvs), or empty
	outIvs  []interval.Interval // the current append's outside sets

	// m meters the build: one tick, charged as one node, for every
	// (node, field index) subproblem the append visits and one for every
	// node it creates, so charged work bounds CPU even for a rule that
	// changes nothing.
	m guard.Meter
}

// covEntry is a cached covered-label union: the run [lo, hi) of its
// slab, valid in the build of generation gen only.
type covEntry struct{ lo, hi, gen uint32 }

// memoEntry is a memoized subproblem result, valid in the append of
// generation gen only.
type memoEntry struct {
	out, gen uint32
}

// appenders recycles appenders across builds: their memo and cache
// arrays hold no pointers and grow to the stores they serve.
var appenders = sync.Pool{New: func() any { return new(appender) }}

// budgetPanic carries a meter's stop (a budget crossing or a
// cancellation) out of a recursion with no error path; it is recovered
// at the construction and simplification entry points only.
type budgetPanic struct{ err error }

// newAppender returns an appender for a build of schema's policies into
// family, recycled when one was released.
func newAppender(schema *field.Schema, family *Store) *appender {
	ap := appenders.Get().(*appender)
	ap.st, ap.fulls, ap.nf = family, fullSets(schema), schema.NumFields()
	ap.paths = extend(ap.paths[:0], ap.nf+1)
	ap.outside = extend(ap.outside[:0], ap.nf)
	if ap.covGen++; ap.covGen == 0 {
		// The generation wrapped: empty every entry an earlier build
		// could still match.
		clear(ap.cov)
		ap.covGen = 1
	}
	ap.famIvs, ap.ovIvs = ap.famIvs[:0], ap.ovIvs[:0]
	return ap
}

// release drops the appender's references and recycles it.
func (ap *appender) release() {
	ap.st, ap.fulls, ap.pred = nil, nil, nil
	clear(ap.outside)
	ap.m = guard.Meter{}
	appenders.Put(ap)
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

// node canonicalizes a nonterminal labeled k whose edges are the frame
// pushed since f (their children canonical) into the overlay, charging
// the budget for it, and pops the frame.
func (ap *appender) node(k int, f Frame) uint32 {
	ap.tick()
	return ap.st.Node(f, k, ap.fulls[k])
}

// promote moves the overlay nodes root reaches into the family store
// and empties the overlay for the next batch: the family keeps exactly
// the nodes reachable from promoted roots, never the intermediate forms
// between them. It returns root's id in the family. The ids it
// renumbers are the overlay's, so only their covered-set entries go.
func (ap *appender) promote(root uint32) uint32 {
	ap.overlayNodes += ap.st.overlayNodes()
	if base, n := int(ap.st.base), min(len(ap.cov), len(ap.st.nodes)); base < n {
		clear(ap.cov[base:n])
	}
	ap.ovIvs = ap.ovIvs[:0]
	return ap.st.promote(root)
}

// start resets the per-append state for rule (pred, d).
func (ap *appender) start(pred rule.Predicate, d rule.Decision) {
	ap.pred, ap.dec = pred, d
	if ap.gen++; ap.gen == 0 {
		// The generation wrapped: empty every memo entry an earlier
		// append could still match.
		clear(ap.memo)
		ap.gen = 1
	}
	for k := range ap.paths {
		ap.paths[k] = noNode
	}
	clear(ap.outside)
	ap.outIvs = ap.outIvs[:0]
}

// path returns the canonical single-rule diagram for conjuncts pred[k:]
// ending in the rule's decision (the partial FDD of a lone rule).
func (ap *appender) path(k int) uint32 {
	if n := ap.paths[k]; n != noNode {
		return n
	}
	var n uint32
	switch {
	case k == len(ap.pred):
		ap.tick()
		n = ap.st.Terminal(ap.dec)
	case ap.pred[k].Equal(ap.fulls[k]):
		n = ap.path(k + 1)
	default:
		to := ap.path(k + 1)
		f := ap.st.Frame()
		ap.st.Push(ap.pred[k], to)
		n = ap.node(k, f)
	}
	ap.paths[k] = n
	return n
}

// outsideOf returns the part of field k's domain the rule does not
// match, computed once per append. It is only asked for when pred[k] is
// not the full domain, so an empty entry means "not computed yet".
func (ap *appender) outsideOf(k int) interval.Set {
	if ap.outside[k].Empty() {
		lo := len(ap.outIvs)
		ap.outIvs = ap.fulls[k].AppendSubtract(ap.outIvs, ap.pred[k])
		ap.outside[k] = interval.SetView(ap.outIvs[lo:])
	}
	return ap.outside[k]
}

// coveredBy returns the union of the labels of v, whose record is r. A
// node the store found complete when it created it covers the whole
// domain; the union of any other is gathered from its labels and
// canonicalized once per stored node.
func (ap *appender) coveredBy(v uint32, r *record) interval.Set {
	if r.complete {
		return ap.fulls[r.field]
	}
	if int(v) >= len(ap.cov) {
		ap.cov = extend(ap.cov, len(ap.st.nodes))
	}
	ivs := &ap.famIvs
	if v >= ap.st.base {
		ivs = &ap.ovIvs
	}
	if c := ap.cov[v]; c.gen == ap.covGen {
		return interval.SetView((*ivs)[c.lo:c.hi])
	}
	st := ap.st
	lo := len(*ivs)
	for _, e := range st.edges[r.edge0 : r.edge0+r.nEdges] {
		*ivs = append(*ivs, st.ivs[e.lo:e.hi]...)
	}
	set := interval.NewSetInPlace((*ivs)[lo:])
	*ivs = (*ivs)[:lo+set.NumIntervals()]
	ap.cov[v] = covEntry{uint32(lo), uint32(len(*ivs)), ap.covGen}
	return set
}

// appendRule implements APPEND of Fig. 7 for the whole rule: it merges
// (pred, d) into the canonical partial FDD rooted at root and returns
// the canonical root of the result. The root is unchanged exactly when
// every packet matching the rule already matched an earlier rule — in
// one canonical store, equal functions are equal ids.
func (ap *appender) appendRule(root uint32, pred rule.Predicate, d rule.Decision) uint32 {
	ap.start(pred, d)
	return ap.apply(root, 0)
}

// apply merges the rule's conjuncts pred[k:] into the canonical node v,
// memoized on (v, k) so a subgraph shared under several edges is
// appended to once. Each memo miss is charged to the budget: an append
// that changes nothing still walks every subproblem its rule overlaps
// that has a packet without a first match.
func (ap *appender) apply(v uint32, k int) uint32 {
	if k == len(ap.pred) || ap.st.nodes[v].decided {
		// All fields consumed, or every packet that reaches v already
		// has its first match: the existing decisions win.
		return v
	}
	i := int(v)*ap.nf + k
	if i < len(ap.memo) && ap.memo[i].gen == ap.gen {
		return ap.memo[i].out
	}
	ap.tick()
	out := ap.applyAt(v, k)
	if i >= len(ap.memo) {
		ap.memo = extend(ap.memo, len(ap.st.nodes)*ap.nf)
	}
	ap.memo[i] = memoEntry{out, ap.gen}
	return out
}

// applyAt is apply's body: the three edge cases of Fig. 7 on a diagram
// whose nodes may skip fields (a skipped field is implicitly a single
// full-domain edge). A changed node's edges are built on the store's
// scratch frame; nothing is pushed until the first change, so an append
// that leaves v's function alone copies nothing here.
func (ap *appender) applyAt(v uint32, k int) uint32 {
	st := ap.st
	s := ap.pred[k]
	r := st.nodes[v]

	// A terminal or a node labeled with a later field covers field k
	// implicitly with the full domain: split that implicit edge on S.
	if r.field == TerminalField || int(r.field) > k {
		if s.Equal(ap.fulls[k]) {
			return ap.apply(v, k+1)
		}
		inside := ap.apply(v, k+1)
		if inside == v {
			return v
		}
		f := st.Frame()
		st.Push(ap.outsideOf(k), v)
		st.Push(s, inside)
		return ap.node(k, f)
	}

	f := st.Frame()
	changed := false

	// Uncovered part of S: packets here match none of the earlier rules,
	// so they get the new rule's decision path. A node whose edges
	// already tile the whole domain has no uncovered part.
	if cov := ap.coveredBy(v, &r); !cov.Equal(ap.fulls[r.field]) {
		lo := len(st.fivs)
		st.fivs = s.AppendSubtract(st.fivs, cov)
		if len(st.fivs) > lo {
			// path's frames sit above the rest's run and pop back to it.
			st.pushScratch(lo, ap.path(k+1))
			changed = true
		}
	}

	for i := r.edge0; i < r.edge0+r.nEdges; i++ {
		e := st.edges[i]
		label := st.label(e)
		if !label.Overlaps(s) {
			// Case 1: S ∩ I(e) = ∅ — the edge is unaffected.
			if changed {
				st.pushStored(e, e.to)
			}
			continue
		}
		child := ap.apply(e.to, k+1)
		if child == e.to {
			// Every packet of S ∩ I(e) already matched an earlier rule.
			if changed {
				st.pushStored(e, e.to)
			}
			continue
		}
		if !changed {
			for _, p := range st.edges[r.edge0:i] {
				st.pushStored(p, p.to)
			}
			changed = true
		}
		if s.ContainsSet(label) {
			// Case 2: I(e) ⊆ S — the rest of the rule went below e.
			st.pushStored(e, child)
		} else {
			// Case 3: split e; the outside part keeps the old subgraph,
			// the inside part gets the appended version.
			st.pushSubtract(label, s, e.to)
			st.PushIntersect(label, s, child)
		}
	}
	if !changed {
		// No terminal changed anywhere below: keep the canonical node.
		return v
	}
	return ap.node(int(r.field), f)
}
