package fdd

// Reduce returns an equivalent reduced FDD: no two distinct nodes are
// roots of isomorphic subgraphs (they are shared instead), and no node has
// two edges pointing to the same child (their labels are merged). This is
// the reduction step of the structured firewall design method ([12],
// "Firewall Design: Consistency, Completeness and Compactness") that the
// rule generator runs before marking, and it is also what keeps FDD memory
// bounded for large policies.
//
// Hash-consing happens in a fresh node store (Store), from which the
// result is materialized; pipelines that build many nodes —
// construction, the difference-diagram walks — hold their own store and
// canonicalize each node the moment it is built.
//
// The result is a DAG, not a tree; callers that need a simple FDD must
// call Simplify afterwards.
func (f *FDD) Reduce() *FDD {
	st := NewStore()
	defer st.Release()
	return st.Reduce(f)
}
