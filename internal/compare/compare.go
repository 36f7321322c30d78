// Package compare finds every functional discrepancy between two
// firewalls: the regions of the packet space, written as rule-like
// predicates, on which they reach different decisions.
//
// Diff and DiffContext construct both policies' FDDs (package fdd) and
// compare them by a memoized product walk over the reduced diagrams
// (DiffFDDsDirectContext), which builds the reduced difference diagram
// whose terminals are decision pairs; its differing paths are the
// discrepancies — no sampling, no false negatives. Every library diff,
// the serving engine and the CLIs run this walk.
//
// The paper's own comparison (Section 5) stays as the reproduction
// reference: shape both FDDs to semi-isomorphism (package shape), then
// walk them in lockstep (CompareSemiIsomorphic). The row-identity tests
// pin that both walks emit the same rows in the same order.
package compare

import (
	"context"
	"fmt"
	"sync"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// Discrepancy is one functional discrepancy (one row of the paper's
// Table 3): every packet matching Pred gets decision A from the first
// firewall and decision B from the second, with A != B.
type Discrepancy struct {
	Pred rule.Predicate
	A, B rule.Decision
}

// Report is the result of comparing two firewalls.
type Report struct {
	// Discrepancies lists every region of disagreement, merged into
	// human-readable rows (regions identical in all but one field are
	// coalesced). Empty means the firewalls are equivalent.
	Discrepancies []Discrepancy
	// RawPaths is the number of differing pairs before merging — the
	// comparison's direct output size — and PathsCompared the number of
	// pairs compared. The product walk counts terminal-node pairs, the
	// paper's lockstep walk (CompareSemiIsomorphic) decision-path pairs.
	RawPaths      int
	PathsCompared int
	// Timing breaks the pipeline into phases; Shape stays zero unless
	// the caller ran the paper's shaping and timed it.
	Timing Timing
}

// Timing holds per-phase wall-clock durations (the series plotted in the
// paper's Figs. 12 and 13).
type Timing struct {
	Construct time.Duration
	Shape     time.Duration
	Compare   time.Duration
}

// Total returns the end-to-end duration.
func (t Timing) Total() time.Duration { return t.Construct + t.Shape + t.Compare }

// Equivalent reports whether the report found no discrepancies.
func (r *Report) Equivalent() bool { return len(r.Discrepancies) == 0 }

// Diff constructs two policies over the same schema and returns all
// functional discrepancies between them.
func Diff(pa, pb *rule.Policy) (*Report, error) {
	return DiffContext(context.Background(), pa, pb)
}

// DiffContext is Diff with cancellation: it constructs both policies
// concurrently, then compares the diagrams by the product walk (see
// DiffFDDsDirectContext). Both stages poll ctx and return ctx.Err()
// (wrapped) as soon as it is canceled or past its deadline, so an
// abandoned HTTP request or a timed-out job stops burning CPU
// mid-pipeline. The report's Timing fills Construct and Compare; its
// PathsCompared and RawPaths count terminal-node pairs.
func DiffContext(ctx context.Context, pa, pb *rule.Policy) (*Report, error) {
	if !pa.Schema.Equal(pb.Schema) {
		return nil, fmt.Errorf("compare: schemas differ")
	}
	start := time.Now()
	// The two constructions are independent (each gets its own node
	// store), so they run concurrently.
	var fb *fdd.FDD
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		fb, errB = fdd.ConstructContext(ctx, pb)
	}()
	fa, err := fdd.ConstructContext(ctx, pa)
	<-done
	if err != nil {
		return nil, fmt.Errorf("compare: first policy: %w", err)
	}
	if errB != nil {
		return nil, fmt.Errorf("compare: second policy: %w", errB)
	}
	tConstruct := time.Since(start)

	report, err := DiffFDDsDirectContext(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	report.Timing.Construct = tConstruct
	return report, nil
}

// pairShift encodes a decision pair (a, b) into one terminal label of the
// difference diagram: a<<pairShift | b. Decisions are small positive ints.
const pairShift = 20

// pairCode encodes the decision pair (a, b) as a<<pairShift | b. Both
// walks form their terminal labels here, so a decision too large for the
// encoding (no real decision set comes close to 2^20 values) is an error
// at the first terminal pair that holds it, never a wrong pair.
func pairCode(a, b rule.Decision) (rule.Decision, error) {
	for _, d := range [2]rule.Decision{a, b} {
		if d >= 1<<pairShift {
			return agreeTerminal, fmt.Errorf("compare: decision %d exceeds the supported range (< %d)",
				int(d), 1<<pairShift)
		}
	}
	return a<<pairShift | b, nil
}

// SemiIsomorphic reports whether fa and fb are semi-isomorphic
// (Definition 4.2): identical structure and labels everywhere except
// terminal decisions.
func SemiIsomorphic(fa, fb *fdd.FDD) bool {
	if !fa.Schema.Equal(fb.Schema) {
		return false
	}
	var walk func(a, b *fdd.Node) bool
	walk = func(a, b *fdd.Node) bool {
		if a.IsTerminal() || b.IsTerminal() {
			return a.IsTerminal() && b.IsTerminal()
		}
		if a.Field != b.Field || len(a.Edges) != len(b.Edges) {
			return false
		}
		for i := range a.Edges {
			if !a.Edges[i].Label.Equal(b.Edges[i].Label) {
				return false
			}
			if !walk(a.Edges[i].To, b.Edges[i].To) {
				return false
			}
		}
		return true
	}
	return walk(fa.Root, fb.Root)
}

// CompareSemiIsomorphic implements the comparison algorithm of Section 5:
// walk two semi-isomorphic FDDs in lockstep and collect every companion
// path pair with differing terminal decisions. The caller must pass
// diagrams produced by shape.MakeSemiIsomorphic (or otherwise
// semi-isomorphic); this is checked.
//
// Rather than materializing one rule per differing path, the walk builds a
// difference FDD whose terminals are decision pairs — directly in reduced
// (hash-consed) form, each node canonicalized in a node store the moment
// its children exist, so the unreduced difference tree never materializes.
// Enumerating the reduced diagram's differing paths yields the
// discrepancies with identical suffix regions already coalesced, which is
// what keeps the output (and the merge step) small when two large
// firewalls disagree on much of the packet space.
//
// The lockstep walks under distinct root-edge pairs are independent, so
// they fan out across GOMAXPROCS-bounded workers (guard.FanOut); each
// worker hash-conses into its own store shard, and the shards are
// stitched under a fresh root and re-interned once.
//
// Diff does not run this walk; it is the paper's reference, kept for
// the experiments that reproduce its figures and for the tests that
// hold the product walk's rows to it. It panics on a decision too large
// for the pair encoding (see pairCode), the one error a background
// context leaves; CompareSemiIsomorphicContext returns that error.
func CompareSemiIsomorphic(sa, sb *fdd.FDD) *Report {
	report, err := CompareSemiIsomorphicContext(context.Background(), sa, sb)
	if err != nil {
		panic(err)
	}
	return report
}

// CompareSemiIsomorphicContext is CompareSemiIsomorphic with
// cancellation and budgeting: every walker ticks a guard.Meter per node
// visit, which polls ctx and charges the visited nodes to the context's
// guard.Budget every guard.PollEvery visits. Once one walker stops, the
// whole walk unwinds and the partial difference diagram is discarded.
// The error is a wrapped ctx.Err() or the budget's typed
// guard.ErrBudgetExceeded.
func CompareSemiIsomorphicContext(ctx context.Context, sa, sb *fdd.FDD) (*Report, error) {
	if !SemiIsomorphic(sa, sb) {
		// Programming error in the pipeline, not user input.
		panic("compare: diagrams are not semi-isomorphic")
	}
	_, sp := trace.Start(ctx, "compare")
	defer sp.End()
	report := &Report{}
	w := newCmpWalker(ctx, sa.Schema)
	defer w.st.Release()

	var diff *fdd.FDD
	if sa.Root.IsTerminal() {
		diff = w.st.Diagram(sa.Schema, w.walk(sa.Root, sb.Root))
	} else {
		diff = w.walkParallel(ctx, sa, sb)
	}
	if err := w.m.Flush(); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", guard.Verb(err), err)
	}
	if w.err != nil {
		return nil, w.err
	}
	report.PathsCompared, report.RawPaths = w.paths, w.raw
	var err error
	if report.Discrepancies, _, err = pairRows(ctx, diff); err != nil {
		return nil, err
	}
	if sp != nil {
		sp.SetAttr("pathsCompared", report.PathsCompared)
		sp.SetAttr("rawPaths", report.RawPaths)
		sp.SetAttr("discrepancies", len(report.Discrepancies))
	}
	return report, nil
}

// fullSets caches every field's full-domain set (Schema.FullSet
// allocates a fresh Set per call, and the walk needs one per node).
func fullSets(schema *field.Schema) []interval.Set {
	fulls := make([]interval.Set, schema.NumFields())
	for k := range fulls {
		fulls[k] = schema.FullSet(k)
	}
	return fulls
}

// cmpWalker carries one lockstep walk's node store and path counters.
// The nodes under construction are frames of the store's scratch; the
// store copies a frame only into a node it has not seen.
type cmpWalker struct {
	st    *fdd.Store
	fulls []interval.Set
	paths int // decision-path pairs walked
	raw   int // pairs with differing terminal decisions
	// err is the first out-of-range decision the walk met (see
	// pairCode); the diagram is then discarded.
	err error

	// m stops the walk on cancellation or a budget crossing; every node
	// the walk visits is charged as one node.
	m guard.Meter
}

// newCmpWalker returns a lockstep walker with its own node store,
// metered against ctx.
func newCmpWalker(ctx context.Context, schema *field.Schema) *cmpWalker {
	return &cmpWalker{st: fdd.NewStore(), fulls: fullSets(schema), m: guard.NewMeter(ctx)}
}

// walk compares the semi-isomorphic subtrees a and b and returns the id
// of the canonical (hash-consed) root of their difference diagram.
func (w *cmpWalker) walk(a, b *fdd.Node) uint32 {
	if w.m.Tick() || w.err != nil {
		// Unwind with an arbitrary agreeing terminal; the caller checks
		// the meter and the range error and discards the diagram.
		return w.st.Terminal(agreeTerminal)
	}
	w.m.AddNodes(1)
	if a.IsTerminal() {
		w.paths++
		if a.Decision != b.Decision {
			w.raw++
		}
		code, err := pairCode(a.Decision, b.Decision)
		if err != nil && w.err == nil {
			w.err = err
		}
		return w.st.Terminal(code)
	}
	f := w.st.Frame()
	for i := range a.Edges {
		w.st.Push(a.Edges[i].Label, w.walk(a.Edges[i].To, b.Edges[i].To))
	}
	return w.st.Node(f, a.Field, w.fulls[a.Field])
}

// walkParallel fans the per-root-edge subwalks out (guard.FanOut).
// Shaped diagrams are trees, so the subwalks share nothing; each worker
// interns into its own store shard and meters against ctx with its own
// meter. The shard results are materialized, stitched under a fresh
// root and re-interned once into w's store, which canonicalizes across
// shards.
// Counters are summed into w, and the result is deterministic: subwalk
// k always lands at root-edge position k.
func (w *cmpWalker) walkParallel(ctx context.Context, sa, sb *fdd.FDD) *fdd.FDD {
	edges := make([]fdd.Edge, len(sa.Root.Edges))
	// errs[k] is subwalk k's range error; the first by k is reported, so
	// the error does not depend on scheduling.
	errs := make([]error, len(edges))
	var mu sync.Mutex
	guard.FanOut(ctx, len(edges), func(next func() (int, bool)) {
		sw := newCmpWalker(ctx, sa.Schema)
		for k, ok := next(); ok; k, ok = next() {
			sw.err = nil
			id := sw.walk(sa.Root.Edges[k].To, sb.Root.Edges[k].To)
			edges[k] = fdd.Edge{
				Label: sa.Root.Edges[k].Label,
				To:    sw.st.Diagram(sa.Schema, id).Root,
			}
			errs[k] = sw.err
		}
		sw.m.Flush()
		sw.st.Release()
		mu.Lock()
		w.paths += sw.paths
		w.raw += sw.raw
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			w.err = err
			break
		}
	}
	root := &fdd.Node{Field: sa.Root.Field, Edges: edges}
	if w.m.Flush() != nil || w.err != nil {
		// A shard stopped on the budget's latch or on ctx, both of which
		// outlast it; skip the (possibly expensive) final reduction — the
		// caller discards the diagram anyway.
		return &fdd.FDD{Schema: sa.Schema, Root: root}
	}
	return w.st.Reduce(&fdd.FDD{Schema: sa.Schema, Root: root})
}

// pairRows lists the merged discrepancy rows of a pair difference
// diagram, whose terminals are a<<pairShift | b, dropping the regions
// where a == b. The lockstep and direct walks both end here.
func pairRows(ctx context.Context, diff *fdd.FDD) ([]Discrepancy, rowStats, error) {
	return diffRows(ctx, diff, func(d rule.Decision) bool {
		return d>>pairShift != d&(1<<pairShift-1)
	}, func(p rule.Predicate, d rule.Decision) Discrepancy {
		return Discrepancy{Pred: p, A: d >> pairShift, B: d & (1<<pairShift - 1)}
	})
}

// Equivalent reports whether the two policies map every packet to the same
// decision.
func Equivalent(pa, pb *rule.Policy) (bool, error) {
	r, err := Diff(pa, pb)
	if err != nil {
		return false, err
	}
	return r.Equivalent(), nil
}

// PairReport is one pairwise comparison in an N-team cross comparison.
// Exactly one of Report and Err is set: a pair that fails (budget
// exceeded, incomplete policy, injected fault) carries its own error
// instead of discarding the rest of the matrix, so one adversarial
// policy costs only its own pairs.
type PairReport struct {
	I, J   int // indices of the compared policies
	Report *Report
	// Err is the pair's failure, nil on success. Cancellation of the
	// whole cross-comparison is not a pair failure — see
	// CrossCompareContext.
	Err error
}

// CrossCompare compares every pair among N policies (Section 7.3's cross
// comparison for N > 2 teams) and returns the N*(N-1)/2 reports in
// deterministic (i, j) order. Pairs are independent, so they are compared
// concurrently, bounded by GOMAXPROCS workers. Pair failures come back
// per entry (PairReport.Err), not as a call failure.
func CrossCompare(policies []*rule.Policy) ([]PairReport, error) {
	return CrossCompareContext(context.Background(), policies)
}

// CrossCompareContext is CrossCompare with cancellation: no new pair
// starts once ctx is canceled, running pairs abort mid-pipeline (see
// DiffContext), and the call fails with a wrapped ctx.Err().
//
// Failure isolation: a pair whose diff errors is recorded in its own
// entry (PairReport.Err, wrapped with the pair indices) while every
// other pair still runs and returns its report — one pathological
// policy costs its N-1 pairs, not the whole matrix. Only ctx dying
// fails the call as a whole: the slice built so far is discarded,
// since partial results the caller no longer wants are worthless.
func CrossCompareContext(ctx context.Context, policies []*rule.Policy) ([]PairReport, error) {
	type pair struct{ i, j int }
	var pairs []pair
	for i := range policies {
		for j := i + 1; j < len(policies); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}

	out := make([]PairReport, len(pairs))
	guard.FanOut(ctx, len(pairs), func(next func() (int, bool)) {
		for k, ok := next(); ok; k, ok = next() {
			pr := pairs[k]
			r, err := DiffContext(ctx, policies[pr.i], policies[pr.j])
			if err != nil {
				err = fmt.Errorf("compare: pair (%d, %d): %w", pr.i, pr.j, err)
			}
			out[k] = PairReport{I: pr.i, J: pr.j, Report: r, Err: err}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("compare: cross comparison: %w", err)
	}
	return out, nil
}
