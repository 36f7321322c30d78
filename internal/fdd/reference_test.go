package fdd

import (
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// The Fig. 7 reference: the paper's append algorithm in its
// copy-on-write form, appending into an unreduced DAG that is
// hash-consed only every checkpointEvery rules. It is what the
// canonical, memoized append in append.go must reproduce node for node
// (see differential_test.go); it is not used outside tests.

// refAppender is the reference's per-construction state.
type refAppender struct {
	fulls []interval.Set
	ivbuf []interval.Interval
}

// referenceBuild constructs p with the reference append, reducing into
// st at the checkpoint cadence and at the end. It returns the reduced
// root, materialized from st, and the per-rule effective bits. The
// policy must be comprehensive.
func referenceBuild(st *Store, p *rule.Policy) (*Node, []bool) {
	ap := &refAppender{fulls: make([]interval.Set, p.Schema.NumFields())}
	for k := range ap.fulls {
		ap.fulls[k] = p.Schema.FullSet(k)
	}
	effective := make([]bool, p.Size())
	root := ap.buildPath(p.Rules[0].Pred, 0, p.Rules[0].Decision)
	effective[0] = true
	for i := 1; i < p.Size(); i++ {
		r := p.Rules[i]
		root, effective[i] = ap.appendRule(root, r.Pred, 0, r.Decision)
		if i%checkpointEvery == 0 {
			root = st.Reduce(&FDD{Schema: p.Schema, Root: root}).Root
		}
	}
	return st.Reduce(&FDD{Schema: p.Schema, Root: root}).Root, effective
}

// buildPath builds the decision path for conjuncts pred[k..] ending in a
// terminal labeled d (the partial FDD of a single rule).
func (ap *refAppender) buildPath(pred rule.Predicate, k int, d rule.Decision) *Node {
	if k == len(pred) {
		return Terminal(d)
	}
	return &Node{
		Field: k,
		Edges: []Edge{{Label: pred[k], To: ap.buildPath(pred, k+1, d)}},
	}
}

// covered returns the union of v's edge labels.
func (ap *refAppender) covered(v *Node) interval.Set {
	ap.ivbuf = ap.ivbuf[:0]
	for _, e := range v.Edges {
		ap.ivbuf = e.Label.AppendIntervals(ap.ivbuf)
	}
	return interval.NewSet(ap.ivbuf...)
}

// appendRule implements APPEND of Fig. 7: merge rule conjuncts pred[k..]
// with decision d into the partial FDD rooted at v. It returns the new
// root of the subgraph and reports whether any new region of the packet
// space received decision d.
//
// Unlike the paper's in-place formulation it is copy-on-write: existing
// nodes are never mutated, so subgraphs are shared instead of
// deep-copied when an edge splits (case 3), and appending works directly
// on reduced DAGs whose paths skip full-domain fields.
func (ap *refAppender) appendRule(v *Node, pred rule.Predicate, k int, d rule.Decision) (*Node, bool) {
	if k == len(pred) {
		return v, false
	}
	s := pred[k]
	if v.IsTerminal() || v.Field > k {
		if s.Equal(ap.fulls[k]) {
			return ap.appendRule(v, pred, k+1, d)
		}
		inside, added := ap.appendRule(v, pred, k+1, d)
		if !added {
			return v, false
		}
		return &Node{Field: k, Edges: []Edge{
			{Label: ap.fulls[k].Subtract(s), To: v},
			{Label: s, To: inside},
		}}, true
	}

	out := &Node{Field: v.Field, Edges: make([]Edge, 0, len(v.Edges)+2)}
	added := false
	if covered := ap.covered(v); !covered.Equal(ap.fulls[v.Field]) {
		if rest := s.Subtract(covered); !rest.Empty() {
			out.Edges = append(out.Edges, Edge{Label: rest, To: ap.buildPath(pred, k+1, d)})
			added = true
		}
	}
	for _, e := range v.Edges {
		common := e.Label.Intersect(s)
		switch {
		case common.Empty():
			out.Edges = append(out.Edges, Edge{Label: e.Label, To: e.To})
		case common.Equal(e.Label):
			child, chAdded := ap.appendRule(e.To, pred, k+1, d)
			out.Edges = append(out.Edges, Edge{Label: e.Label, To: child})
			added = added || chAdded
		default:
			child, chAdded := ap.appendRule(e.To, pred, k+1, d)
			out.Edges = append(out.Edges, Edge{Label: e.Label.Subtract(s), To: e.To})
			out.Edges = append(out.Edges, Edge{Label: common, To: child})
			added = added || chAdded
		}
	}
	if !added {
		return v, false
	}
	return out, true
}
