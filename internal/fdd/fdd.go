// Package fdd implements Firewall Decision Diagrams and the paper's
// construction algorithm (Section 3, Fig. 7).
//
// An FDD over fields F_1..F_d is a rooted acyclic diagram. Each
// nonterminal node is labeled with a field and its outgoing edges are
// labeled with disjoint value sets that together cover the field's domain
// (consistency + completeness); each terminal node is labeled with a
// decision. Every packet follows exactly one decision path, so an FDD is a
// total function from packets to decisions — the canonical semantic form a
// sequential first-match policy is converted into before shaping and
// comparison.
package fdd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// ErrIncomplete marks construction failures caused by a non-comprehensive
// policy (some packet matches no rule). Callers distinguish this
// bad-input case from infrastructure errors with errors.Is.
var ErrIncomplete = errors.New("policy is not comprehensive")

// TerminalField marks terminal nodes in Node.Field.
const TerminalField = -1

// Node is an FDD node. A terminal node has Field == TerminalField and a
// Decision; a nonterminal node has a schema field index and outgoing
// edges, held inline. Construction and the diff walks build nodes in a
// pointer-free Store and materialize the diagrams they publish as Node
// graphs.
type Node struct {
	Field    int
	Decision rule.Decision
	Edges    []Edge
}

// Edge is a labeled outgoing edge.
type Edge struct {
	Label interval.Set
	To    *Node
}

// IsTerminal reports whether the node is a terminal (decision) node.
func (n *Node) IsTerminal() bool { return n.Field == TerminalField }

// Terminal returns a new terminal node.
func Terminal(d rule.Decision) *Node {
	return &Node{Field: TerminalField, Decision: d}
}

// FDD pairs a root node with its schema.
type FDD struct {
	Schema *field.Schema
	Root   *Node
}

// Construct builds an FDD equivalent to the policy using the paper's
// construction algorithm: rules are appended one at a time to a partial
// FDD. Every node an append creates is hash-consed on the spot, so the
// partial FDD stays in reduced (DAG) form throughout — semantically
// identical to the paper's tree and exponentially smaller on realistic
// inputs. It fails if the policy is not comprehensive (some
// packet matches no rule), because the result would violate the
// completeness property.
func Construct(p *rule.Policy) (*FDD, error) {
	return ConstructContext(context.Background(), p)
}

// ConstructContext is Construct with cancellation: it checks ctx between
// rule appends and returns ctx.Err() (wrapped) as soon as the context is
// canceled or past its deadline, so an abandoned request stops burning
// CPU mid-construction.
func ConstructContext(ctx context.Context, p *rule.Policy) (*FDD, error) {
	f, _, err := ConstructEffectiveContext(ctx, p)
	return f, err
}

// ConstructEffectiveContext is ConstructContext but also reports, per
// rule, whether the rule contributed any region of the packet space —
// i.e. whether some packet's first match is that rule. Rules with
// effective[i] == false are upward redundant (the basis of the
// redundancy substrate). The per-rule ctx check is negligible next to
// the cost of one append.
//
// When ctx carries a guard.Budget, every subproblem the append
// algorithm visits and every node it creates is charged against it
// (batched, one atomic add per few hundred units) and construction
// aborts with the budget's typed guard.ErrBudgetExceeded mid-append —
// the defense against policies whose reduced FDD is itself huge
// (Theorem 1 allows (2n-1)^d paths).
func ConstructEffectiveContext(ctx context.Context, p *rule.Policy) (*FDD, []bool, error) {
	// The construction loop lives in the Builder (builder.go); this
	// entry point keeps no resume state.
	b, err := NewTrimmedBuilderContext(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return b.fdd, b.effective, nil
}

// copySubgraph deep-copies the subgraph rooted at n.
func copySubgraph(n *Node) *Node {
	if n.IsTerminal() {
		return Terminal(n.Decision)
	}
	out := &Node{Field: n.Field, Edges: make([]Edge, len(n.Edges))}
	for i, e := range n.Edges {
		out.Edges[i] = Edge{Label: e.Label, To: copySubgraph(e.To)}
	}
	return out
}

// Copy deep-copies the subgraph rooted at n. The shaping algorithm's
// subgraph-replication operation is built on it.
func (n *Node) Copy() *Node { return copySubgraph(n) }

// Clone returns a deep copy of the FDD.
func (f *FDD) Clone() *FDD {
	return &FDD{Schema: f.Schema, Root: copySubgraph(f.Root)}
}

// Decide returns the decision for the packet by following its unique
// decision path. ok is false only if the diagram is incomplete (a partial
// FDD) and the packet falls off it.
func (f *FDD) Decide(pkt rule.Packet) (rule.Decision, bool) {
	n := f.Root
	for !n.IsTerminal() {
		v := pkt[n.Field]
		next := (*Node)(nil)
		for _, e := range n.Edges {
			if e.Label.Contains(v) {
				next = e.To
				break
			}
		}
		if next == nil {
			return 0, false
		}
		n = next
	}
	return n.Decision, true
}

// Rules returns f.rules — one rule per decision path (Section 2). Fields
// not labeling any node on a path get their full domain. The rules are
// mutually disjoint and jointly cover the packet space, so they form an
// order-independent policy equivalent to f.
func (f *FDD) Rules() []rule.Rule {
	var out []rule.Rule
	pred := rule.FullPredicate(f.Schema)
	f.walkPaths(f.Root, pred, func(p rule.Predicate, d rule.Decision) {
		out = append(out, rule.Rule{Pred: p.Clone(), Decision: d})
	})
	return out
}

// walkPaths visits every decision path, calling fn with the accumulated
// predicate and terminal decision. pred is reused; fn must clone if it
// keeps the value.
func (f *FDD) walkPaths(n *Node, pred rule.Predicate, fn func(rule.Predicate, rule.Decision)) {
	if n.IsTerminal() {
		fn(pred, n.Decision)
		return
	}
	saved := pred[n.Field]
	for _, e := range n.Edges {
		pred[n.Field] = e.Label
		f.walkPaths(e.To, pred, fn)
	}
	pred[n.Field] = saved
}

// NumPaths counts decision paths (what Theorem 1 bounds by (2n-1)^d)
// in O(nodes + edges); see Stats.
func (f *FDD) NumPaths() int { return f.Stats().Paths }

// Stats describes the size of an FDD.
type Stats struct {
	Nodes     int
	Edges     int
	Terminals int
	Paths     int
	Depth     int
}

// Stats computes size statistics in one walk. Shared nodes (in reduced,
// DAG-shaped FDDs) are counted once, and each node's path count and
// height are computed once, so a reduced diagram costs O(nodes + edges),
// not O(paths).
func (f *FDD) Stats() Stats {
	var st Stats
	type sub struct{ paths, height int }
	memo := make(map[*Node]sub)
	var walk func(n *Node) sub
	walk = func(n *Node) sub {
		if s, ok := memo[n]; ok {
			return s
		}
		st.Nodes++
		st.Edges += len(n.Edges)
		s := sub{paths: 1}
		if n.IsTerminal() {
			st.Terminals++
		} else {
			s.paths = 0
			for _, e := range n.Edges {
				c := walk(e.To)
				s.paths += c.paths
				s.height = max(s.height, c.height+1)
			}
		}
		memo[n] = s
		return s
	}
	root := walk(f.Root)
	st.Paths, st.Depth = root.paths, root.height
	return st
}

// checkComplete verifies that every node's outgoing edges cover the whole
// field domain (the completeness property).
func (f *FDD) checkComplete() error {
	fulls := fullSets(f.Schema)
	seen := make(map[*Node]bool)
	var buf []interval.Interval // every edge interval of one node
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsTerminal() || seen[n] {
			return nil
		}
		seen[n] = true
		buf = buf[:0]
		for _, e := range n.Edges {
			buf = e.Label.AppendIntervals(buf)
		}
		if union := interval.NewSetInPlace(buf); !union.Equal(fulls[n.Field]) {
			return fmt.Errorf("node labeled %s covers only %v of %v",
				f.Schema.Field(n.Field).Name, union, f.Schema.Domain(n.Field))
		}
		for _, e := range n.Edges {
			if err := walk(e.To); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(f.Root)
}

// CheckInvariants verifies all FDD properties from Section 2: a single
// root, edge labels that are nonempty subsets of the node's field domain,
// consistency (disjoint sibling edges), completeness (edges cover the
// domain), no repeated field on a decision path, and — because all FDDs
// built by this package are ordered — strictly ascending field indices
// along every path.
func (f *FDD) CheckInvariants() error {
	return f.check(true)
}

// CheckSemanticInvariants is CheckInvariants without the ordering
// requirement: it accepts any valid FDD, including diagrams a design team
// built with a different field order (Section 7.2). Such diagrams still
// have well-defined semantics (Decide, Rules, Generate all work); only
// the shaping algorithm needs ordered input, which Construct restores.
func (f *FDD) CheckSemanticInvariants() error {
	return f.check(false)
}

func (f *FDD) check(ordered bool) error {
	if f.Root == nil {
		return fmt.Errorf("fdd: nil root")
	}
	// Shared subgraphs are revisited once per distinct (path-context)
	// pair, not once per path — without this memo a small adversarial
	// DAG (e.g. from an untrusted FDD file) could force exponentially
	// many walks.
	type ctx struct {
		lastField int
		seen      uint64
	}
	validated := make(map[*Node]map[ctx]bool)
	var walk func(n *Node, lastField int, seen uint64) error
	walk = func(n *Node, lastField int, seen uint64) error {
		c := ctx{lastField: lastField, seen: seen}
		if !ordered {
			c.lastField = -1 // order-independent checks only depend on seen
		}
		if validated[n][c] {
			return nil
		}
		if validated[n] == nil {
			validated[n] = make(map[ctx]bool)
		}
		validated[n][c] = true
		if n.IsTerminal() {
			if n.Decision <= 0 {
				return fmt.Errorf("fdd: terminal with invalid decision %d", int(n.Decision))
			}
			if len(n.Edges) != 0 {
				return fmt.Errorf("fdd: terminal with outgoing edges")
			}
			return nil
		}
		if n.Field < 0 || n.Field >= f.Schema.NumFields() || n.Field >= 64 {
			return fmt.Errorf("fdd: node with invalid field index %d", n.Field)
		}
		if ordered && n.Field <= lastField {
			return fmt.Errorf("fdd: field %s repeats or violates order on a path",
				f.Schema.Field(n.Field).Name)
		}
		if seen&(1<<uint(n.Field)) != 0 {
			return fmt.Errorf("fdd: field %s repeats on a decision path",
				f.Schema.Field(n.Field).Name)
		}
		seen |= 1 << uint(n.Field)
		if len(n.Edges) == 0 {
			return fmt.Errorf("fdd: nonterminal node with no edges")
		}
		domain := f.Schema.FullSet(n.Field)
		union := interval.Set{}
		for _, e := range n.Edges {
			if e.Label.Empty() {
				return fmt.Errorf("fdd: empty edge label at field %s", f.Schema.Field(n.Field).Name)
			}
			if !domain.ContainsSet(e.Label) {
				return fmt.Errorf("fdd: edge label %v outside domain %v", e.Label, f.Schema.Domain(n.Field))
			}
			if union.Overlaps(e.Label) {
				return fmt.Errorf("fdd: overlapping sibling edges at field %s (consistency)",
					f.Schema.Field(n.Field).Name)
			}
			union = union.Union(e.Label)
		}
		if !union.Equal(domain) {
			return fmt.Errorf("fdd: edges at field %s cover %v, not the domain %v (completeness)",
				f.Schema.Field(n.Field).Name, union, f.Schema.Domain(n.Field))
		}
		for _, e := range n.Edges {
			if err := walk(e.To, n.Field, seen); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(f.Root, -1, 0)
}

// Simplify returns an equivalent simple FDD (Definition 4.3): an outgoing
// directed tree in which every edge is labeled with a single interval.
// Multi-interval edges are split, with the subgraph below copied for each
// extra interval; edges of every node are then sorted by interval start.
// This is the required input form for the shaping algorithm.
func (f *FDD) Simplify() *FDD {
	// Background contexts carry no budget and never cancel; the error is
	// impossible.
	s, _ := f.SimplifyContext(context.Background())
	return s
}

// SimplifyContext is Simplify with cancellation and budgeting: unrolling
// a reduced DAG into a tree is worst-case exponential in the DAG size,
// so the walk polls ctx and charges every created node against the
// context's guard.Budget (if any), aborting with a typed
// guard.ErrBudgetExceeded instead of materializing the explosion.
func (f *FDD) SimplifyContext(ctx context.Context) (out *FDD, err error) {
	m := guard.NewMeter(ctx)
	defer func() {
		if p := recover(); p != nil {
			bp, ok := p.(budgetPanic)
			if !ok {
				panic(p)
			}
			out, err = nil, fmt.Errorf("fdd: simplify %s: %w", guard.Verb(bp.err), bp.err)
		}
	}()
	var simplify func(n *Node) *Node
	simplify = func(n *Node) *Node {
		m.AddNodes(1)
		if m.Tick() {
			panic(budgetPanic{m.Err()})
		}
		if n.IsTerminal() {
			return Terminal(n.Decision)
		}
		width := 0
		for _, e := range n.Edges {
			width += e.Label.NumIntervals()
		}
		out := &Node{Field: n.Field, Edges: make([]Edge, 0, width)}
		for _, e := range n.Edges {
			for _, iv := range e.Label.Intervals() {
				out.Edges = append(out.Edges, Edge{
					Label: interval.SetFromInterval(iv),
					To:    simplify(e.To),
				})
			}
		}
		sortEdges(out.Edges)
		return out
	}
	root := simplify(f.Root)
	if err := m.Flush(); err != nil {
		return nil, fmt.Errorf("fdd: simplify %s: %w", guard.Verb(err), err)
	}
	return &FDD{Schema: f.Schema, Root: root}, nil
}

// sortEdges orders edges by the start of their (single) first interval.
func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(x, y Edge) int {
		a, _ := x.Label.Min()
		b, _ := y.Label.Min()
		return cmp.Compare(a, b)
	})
}

// IsSimple reports whether the FDD is simple: every edge carries exactly
// one interval and no node is shared (tree shape).
func (f *FDD) IsSimple() bool {
	seen := make(map[*Node]bool)
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if seen[n] {
			return false // shared node: not a tree
		}
		seen[n] = true
		for _, e := range n.Edges {
			if e.Label.NumIntervals() != 1 {
				return false
			}
			if !walk(e.To) {
				return false
			}
		}
		return true
	}
	return walk(f.Root)
}
