package compare

import (
	"context"
	"fmt"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// DiffFDDsDirect compares two reduced FDDs by a memoized product walk,
// without shaping. See DiffFDDsDirectContext.
func DiffFDDsDirect(fa, fb *fdd.FDD) (*Report, error) {
	return DiffFDDsDirectContext(context.Background(), fa, fb)
}

// DiffFDDsDirectContext computes the functional discrepancies between fa
// and fb as their Product under the pair combiner, whose terminals are
// the decision pairs a<<pairShift | b. Unlike the shape-then-lockstep
// pipeline it never unrolls the reduced DAGs into semi-isomorphic trees,
// so its cost is bounded by the product of the DAG sizes — not the path
// counts.
//
// Two properties make it the fast path for change-impact analysis:
//
//   - pointer-identical subgraphs short-circuit to "agree" in O(1). When
//     both diagrams were materialized from the same node store
//     (fdd.Builder families: a base FDD and one resumed after an edit),
//     everything the edit did not touch is shared and the walk only
//     descends into the changed region.
//   - the memo is keyed by node pair, so repeated shared substructure is
//     compared once.
//
// Both walks build the reduced, canonical difference diagram of the same
// discrepancy function, so the report's rows are exactly the lockstep
// pipeline's, in the same order (pinned by the row-identity tests). What
// differs is the counters: PathsCompared/RawPaths count the distinct
// terminal-node pairs the memoized walk compared (and those that
// differ), not decision-path pairs — the trace names them
// terminalPairs/differingPairs — and Timing fills only the Compare
// phase.
func DiffFDDsDirectContext(ctx context.Context, fa, fb *fdd.FDD) (*Report, error) {
	_, sp := trace.Start(ctx, "compare.direct")
	defer sp.End()
	start := time.Now()
	w := newPairWalker()
	diff, err := w.run(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	rows, st, err := pairRows(ctx, diff)
	if err != nil {
		return nil, err
	}
	report := &Report{PathsCompared: w.paths, RawPaths: w.raw, Discrepancies: rows}
	report.Timing = Timing{Compare: time.Since(start)}
	if sp != nil {
		sp.SetAttr("terminalPairs", report.PathsCompared)
		sp.SetAttr("differingPairs", report.RawPaths)
		sp.SetAttr("sharedHits", w.shared)
		sp.SetAttr("rowsEnumerated", st.enumerated)
		sp.SetAttr("mergeRounds", st.rounds)
		sp.SetAttr("discrepancies", len(report.Discrepancies))
	}
	return report, nil
}

// Product returns the reduced product of fa and fb: the diagram that
// decides every packet p as combine(fa(p), fb(p)). It is the one walk
// behind the pair diff, DiffN's folds and package compose: at each node
// pair it splits on the smaller labeled field, intersecting edge labels
// pairwise, memoizes per (a, b) node pair, and hash-conses every node it
// builds into a pointer-free fdd.Store, from which the result is
// materialized once. It polls ctx and charges the context's guard
// budget; on either tripping it returns the wrapped error and no
// diagram.
func Product(ctx context.Context, fa, fb *fdd.FDD, combine func(da, db rule.Decision) rule.Decision) (*fdd.FDD, error) {
	return (&directWalker{combine: combine}).run(ctx, fa, fb)
}

// newPairWalker returns the pair diff's walker: pairDecision with the
// pointer-identity short-circuit.
func newPairWalker() *directWalker {
	w := &directWalker{shortCircuit: true}
	w.combine = w.pairDecision
	return w
}

// pairDecision is the pair diff's combiner: agreement collapses to
// agreeTerminal, a disagreement keeps both decisions as their pairCode.
// The first out-of-range decision is kept in w.err and stops the walk.
func (w *directWalker) pairDecision(da, db rule.Decision) rule.Decision {
	code, err := pairCode(da, db)
	if err != nil && w.err == nil {
		w.err = err
	}
	if da == db {
		return agreeTerminal
	}
	return code
}

// run walks the product of fa and fb under w.combine.
func (w *directWalker) run(ctx context.Context, fa, fb *fdd.FDD) (*fdd.FDD, error) {
	if !fa.Schema.Equal(fb.Schema) {
		return nil, fmt.Errorf("compare: schemas differ")
	}
	w.st, w.fulls = fdd.NewStore(), fullSets(fa.Schema)
	defer w.st.Release()
	w.memo = make(map[[2]*fdd.Node]uint32)
	w.m = guard.NewMeter(ctx)
	if err := chaos.Fire(ctx, chaos.PointDirectWalk); err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	root := w.walk(fa.Root, fb.Root)
	// The tail flush also surfaces a budget latched elsewhere (or by
	// fault injection) on a walk too short to reach its first poll.
	if err := w.m.Flush(); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", guard.Verb(err), err)
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.st.Diagram(fa.Schema, root), nil
}

// directWalker carries one product walk's memo, node store, and counters.
type directWalker struct {
	st      *fdd.Store
	fulls   []interval.Set
	combine func(da, db rule.Decision) rule.Decision
	// shortCircuit collapses a node pair that is one pointer to
	// agreeTerminal without descending. That is sound only for
	// pairDecision, which sends every (d, d) to that one terminal; under
	// compose.SerialDecisions, for one, (d, d) maps to d.
	shortCircuit bool
	// err is pairDecision's first range error (see pairCode); the walk
	// unwinds and the diagram is discarded.
	err error
	// memo maps a node pair to its product's id in st. The nodes under
	// construction are frames of st's scratch, and interning copies a
	// frame only into a node the store has not seen, so a product node
	// that dedupes allocates nothing.
	memo   map[[2]*fdd.Node]uint32
	paths  int // node pairs whose terminals were combined
	raw    int // pairs with differing decisions
	shared int // pointer-identity short-circuits

	// m stops the walk on cancellation or a budget crossing (the
	// diagram is then garbage); every memo miss is charged as one node.
	m guard.Meter
}

// agreeTerminal is the single terminal every agreeing region collapses
// to. Any pair with equal halves works — rows with da == db are dropped
// before reporting — and funnelling all agreement into one terminal lets
// the hash-consing merge agreeing regions regardless of which decision
// they agree on.
const agreeTerminal = 1<<pairShift | 1

// walk returns the id of the canonical product node for subgraphs a
// and b.
func (w *directWalker) walk(a, b *fdd.Node) uint32 {
	if a == b && w.shortCircuit {
		// Shared subgraph: both sides decide every packet below here
		// identically, whatever those decisions are.
		w.shared++
		return w.st.Terminal(agreeTerminal)
	}
	if w.m.Tick() || w.err != nil {
		// Unwind with an arbitrary terminal; the caller discards the
		// diagram.
		return w.st.Terminal(agreeTerminal)
	}
	key := [2]*fdd.Node{a, b}
	if c, ok := w.memo[key]; ok {
		return c
	}
	w.m.AddNodes(1)
	var out uint32
	if a.IsTerminal() && b.IsTerminal() {
		w.paths++
		if a.Decision != b.Decision {
			w.raw++
		}
		out = w.st.Terminal(w.combine(a.Decision, b.Decision))
	} else {
		// Branch on the smaller labeled field. A terminal (or a node
		// labeled with a later field — reduction elides full-domain
		// single-edge nodes) covers the whole domain of every earlier
		// field implicitly, so it pairs against each of the other node's
		// edges unchanged.
		f := a.Field
		if a.IsTerminal() || (!b.IsTerminal() && b.Field < f) {
			f = b.Field
		}
		aBranches := !a.IsTerminal() && a.Field == f
		bBranches := !b.IsTerminal() && b.Field == f
		frame := w.st.Frame()
		switch {
		case aBranches && bBranches:
			for i := range a.Edges {
				ea := &a.Edges[i]
				for j := range b.Edges {
					eb := &b.Edges[j]
					if !ea.Label.Overlaps(eb.Label) {
						continue
					}
					w.st.PushIntersect(ea.Label, eb.Label, w.walk(ea.To, eb.To))
				}
			}
		case aBranches:
			for i := range a.Edges {
				w.st.Push(a.Edges[i].Label, w.walk(a.Edges[i].To, b))
			}
		default:
			for i := range b.Edges {
				w.st.Push(b.Edges[i].Label, w.walk(a, b.Edges[i].To))
			}
		}
		out = w.st.Node(frame, f, w.fulls[f])
	}
	w.memo[key] = out
	return out
}
