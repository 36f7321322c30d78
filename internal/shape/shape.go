// Package shape implements the paper's shaping algorithm (Section 4,
// Figs. 10-11): transforming two ordered FDDs into two semi-isomorphic
// FDDs — identical in everything but their terminal labels — without
// changing the semantics of either.
//
// The transformation uses the three semantics-preserving operations of
// Section 4: node insertion (aligning paths that skip a field), edge
// splitting (refining two nodes' edge cuts to their common refinement),
// and subgraph replication (giving each split edge its own copy of the
// subtree). Once two FDDs are semi-isomorphic, comparing them is a single
// lockstep walk (package compare).
package shape

import (
	"context"
	"fmt"
	"sync"

	"diversefw/internal/chaos"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/trace"
)

// MakeSemiIsomorphic returns semi-isomorphic simple FDDs equivalent to fa
// and fb. The inputs are not modified. Both FDDs must share a schema.
//
// Shaping two subtrees hanging off distinct root-edge pairs touches
// disjoint state (Simplify returns trees), so the recursion fans out per
// root-edge pair across a GOMAXPROCS-bounded worker pool.
func MakeSemiIsomorphic(fa, fb *fdd.FDD) (*fdd.FDD, *fdd.FDD, error) {
	return MakeSemiIsomorphicContext(context.Background(), fa, fb)
}

// MakeSemiIsomorphicContext is MakeSemiIsomorphic with cancellation and
// budgeting: every worker ticks a guard.Meter per node visit, which
// polls ctx every guard.PollEvery visits, and the whole shaping returns
// ctx.Err() (wrapped) once any worker sees it, so an abandoned request
// stops burning CPU mid-shape. When ctx carries a guard.Budget, edge
// splits and replicated subgraph nodes — the Section 4 blowup drivers —
// are charged against it at the same cadence, and a crossing aborts all
// workers with the budget's typed guard.ErrBudgetExceeded. The
// partially shaped diagrams are discarded.
func MakeSemiIsomorphicContext(ctx context.Context, fa, fb *fdd.FDD) (*fdd.FDD, *fdd.FDD, error) {
	if !fa.Schema.Equal(fb.Schema) {
		return nil, nil, fmt.Errorf("shape: schemas differ: %v vs %v", fa.Schema, fb.Schema)
	}
	_, sp := trace.Start(ctx, "shape")
	defer sp.End()
	// The shaping algorithm requires simple FDDs (Section 4.1);
	// SimplifyContext also deep-copies, so the callers' diagrams stay
	// untouched — and its tree expansion is budgeted like the rest.
	sa, err := fa.SimplifyContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("shape: %w", err)
	}
	sb, err := fb.SimplifyContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("shape: %w", err)
	}
	// Fault-injection site: after simplification, before alignment — the
	// "mid-pipeline" moment stress tests target with latency or forced
	// budget exhaustion.
	if err := chaos.Fire(ctx, chaos.PointShape); err != nil {
		return nil, nil, fmt.Errorf("shape: %w", err)
	}
	s := &shaper{schema: fa.Schema, ctx: ctx}
	if err := s.shapeRoots(&sa.Root, &sb.Root); err != nil {
		return nil, nil, fmt.Errorf("shape: %s: %w", guard.Verb(err), err)
	}
	if sp != nil {
		// The paper's §4 complexity drivers: how many edges the common
		// refinement split, how many subtrees replication duplicated, and
		// how many nodes insertion spliced in to align skipped fields.
		sp.SetAttr("edgeSplits", s.splits)
		sp.SetAttr("subgraphCopies", s.copies)
		sp.SetAttr("nodeInsertions", s.inserts)
	}
	return sa, sb, nil
}

// shapeRoots shapes the root pair, then hands the per-root-edge
// subproblems — independent by the tree property — to parallel workers.
// It returns the error that stopped the shaping, if any.
func (s *shaper) shapeRoots(pa, pb **fdd.Node) error {
	rootSt := s.newWalkState()
	outA, outB := s.align(pa, pb, rootSt)
	if err := s.merge(rootSt); err != nil {
		return err
	}
	guard.FanOut(s.ctx, len(outA), func(next func() (int, bool)) {
		st := s.newWalkState()
		defer s.merge(st)
		for k, ok := next(); ok; k, ok = next() {
			s.shapePair(&outA[k].To, &outB[k].To, st)
		}
	})
	// A worker stops only on a budget crossing, which the budget
	// latches, or on ctx, which stays canceled: one more poll sees
	// whichever stopped them.
	return rootSt.m.Flush()
}

type shaper struct {
	schema *field.Schema
	ctx    context.Context

	// Shaping-operation totals, merged from the workers' walkStates once
	// each finishes (never touched on the hot path).
	statsMu sync.Mutex
	splits  int
	copies  int
	inserts int
}

// walkState is one goroutine's private shaping state: its abort meter,
// which charges edge splits and replicated or inserted nodes to the
// budget, and counters for the three shaping operations. Keeping the
// counters goroutine-local (merged once at worker exit) means tracing
// and budgeting add no shared-memory traffic to the recursion.
type walkState struct {
	m       guard.Meter
	splits  int
	copies  int
	inserts int
}

func (s *shaper) newWalkState() *walkState { return &walkState{m: guard.NewMeter(s.ctx)} }

// merge folds a finished goroutine's counters into the shaper totals and
// charges its meter's tail, returning the meter's error.
func (s *shaper) merge(st *walkState) error {
	err := st.m.Flush()
	s.statsMu.Lock()
	s.splits += st.splits
	s.copies += st.copies
	s.inserts += st.inserts
	s.statsMu.Unlock()
	return err
}

// fieldOf orders nodes by their label position; terminals sort after every
// field (they only ever gain nodes inserted above them).
func (s *shaper) fieldOf(n *fdd.Node) int {
	if n.IsTerminal() {
		return s.schema.NumFields()
	}
	return n.Field
}

// shapePair makes the two shapable nodes *pa and *pb semi-isomorphic
// (Node_Shaping, Fig. 10). The references allow node insertion to splice a
// new node above either one. st is the goroutine-local meter and
// operation counters; once the meter stops the walk the recursion
// unwinds immediately, leaving the pair partially shaped.
func (s *shaper) shapePair(pa, pb **fdd.Node, st *walkState) {
	if st.m.Tick() {
		return
	}
	outA, outB := s.align(pa, pb, st)
	// The paired children are now shapable; recurse.
	for k := range outA {
		s.shapePair(&outA[k].To, &outB[k].To, st)
	}
}

// align performs the node-insertion and edge-splitting steps on the pair
// (*pa, *pb) and returns the refined edge lists, paired index by index.
// Both lists are empty iff both nodes are terminal.
func (s *shaper) align(pa, pb **fdd.Node, st *walkState) (outA, outB []fdd.Edge) {
	a, b := *pa, *pb
	if a.IsTerminal() && b.IsTerminal() {
		return nil, nil
	}

	// Step 1 — node insertion: give both nodes the same label. If F(a)
	// precedes F(b), no path through b mentions F(a) (both diagrams are
	// ordered and share their path prefix), so a node labeled F(a) with a
	// full-domain edge can be inserted above b; and symmetrically.
	switch ka, kb := s.fieldOf(a), s.fieldOf(b); {
	case ka < kb:
		b = s.insertAbove(pb, ka, st)
		st.inserts++
	case kb < ka:
		a = s.insertAbove(pa, kb, st)
		st.inserts++
	}

	// Step 2 — edge splitting + subgraph replication: refine both edge
	// cuts to their common refinement. Simple-FDD edges are sorted,
	// single-interval, and tile the domain, so the two lists can be merged
	// left to right; by induction both current intervals start at the same
	// value.
	// The merge runs twice: first to count the refinement's pieces, so
	// a cut that already is the refinement keeps its edge list and the
	// other gets one of exact size, then to carve.
	m := 0
	for i, j := 0, 0; i < len(a.Edges) && j < len(b.Edges); m++ {
		ha, hb := singleInterval(&a.Edges[i]).Hi, singleInterval(&b.Edges[j]).Hi
		if ha <= hb {
			i++
		}
		if hb <= ha {
			j++
		}
	}
	splitA, splitB := m != len(a.Edges), m != len(b.Edges)
	outA, outB = a.Edges, b.Edges
	if splitA {
		outA = make([]fdd.Edge, 0, m)
	}
	if splitB {
		outB = make([]fdd.Edge, 0, m)
	}
	i, j := 0, 0
	for i < len(a.Edges) && j < len(b.Edges) {
		ia := singleInterval(&a.Edges[i])
		ib := singleInterval(&b.Edges[j])
		hi := ia.Hi
		if ib.Hi < hi {
			hi = ib.Hi
		}
		if splitA {
			outA = append(outA, s.slicePiece(&a.Edges[i], hi, st))
		}
		if splitB {
			outB = append(outB, s.slicePiece(&b.Edges[j], hi, st))
		}
		if ia.Hi == hi {
			i++
		}
		if ib.Hi == hi {
			j++
		}
	}
	a.Edges, b.Edges = outA, outB
	return outA, outB
}

// insertAbove splices a new node labeled with field k above *ref, with a
// single full-domain edge to the old node, and returns the new node.
func (s *shaper) insertAbove(ref **fdd.Node, k int, st *walkState) *fdd.Node {
	old := *ref
	n := &fdd.Node{
		Field: k,
		Edges: []fdd.Edge{{Label: s.schema.FullSet(k), To: old}},
	}
	st.m.AddNodes(1)
	*ref = n
	return n
}

// slicePiece emits the piece [curLo, hi] of the edge *e. If the piece
// is the whole remaining edge, the edge itself is emitted; otherwise the
// piece gets a fresh copy of the subtree (subgraph replication) and *e
// is shrunk in place to the remainder [hi+1, curHi] keeping the original
// subtree. Every carve is one edge split and one subgraph replication,
// counted on st for the shape span's attributes.
func (s *shaper) slicePiece(e *fdd.Edge, hi uint64, st *walkState) fdd.Edge {
	iv := singleInterval(e)
	if iv.Hi == hi {
		return *e
	}
	st.splits++
	st.copies++
	st.m.AddSplits(1)
	piece := fdd.Edge{
		Label: interval.SetOf(iv.Lo, hi),
		To:    s.copySubgraph(e.To, st),
	}
	e.Label = interval.SetOf(hi+1, iv.Hi)
	return piece
}

// copySubgraph is subgraph replication with budget charging and abort:
// every copied node is charged to st's meter, and once the meter stops
// the walk the copy unwinds returning placeholder terminals —
// semantically wrong but unobservable, because the whole shaping is
// discarded when a meter stops. Replication is where worst-case
// inputs spend their exponential work, so the copy itself must be
// interruptible, not just the walk around it.
func (s *shaper) copySubgraph(n *fdd.Node, st *walkState) *fdd.Node {
	if st.m.Tick() {
		return fdd.Terminal(1)
	}
	st.m.AddNodes(1)
	if n.IsTerminal() {
		return fdd.Terminal(n.Decision)
	}
	out := &fdd.Node{Field: n.Field, Edges: make([]fdd.Edge, len(n.Edges))}
	for i, e := range n.Edges {
		out.Edges[i] = fdd.Edge{Label: e.Label, To: s.copySubgraph(e.To, st)}
	}
	return out
}

// singleInterval returns the edge's single interval (simple-FDD
// property), read off the label's bounds without copying it.
func singleInterval(e *fdd.Edge) interval.Interval {
	lo, _ := e.Label.Min()
	hi, _ := e.Label.Max()
	return interval.Interval{Lo: lo, Hi: hi}
}
