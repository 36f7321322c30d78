package fdd

// Reduce returns an equivalent reduced FDD: no two distinct nodes are
// roots of isomorphic subgraphs (they are shared instead), and no node has
// two edges pointing to the same child (their labels are merged). This is
// the reduction step of the structured firewall design method ([12],
// "Firewall Design: Consistency, Completeness and Compactness") that the
// rule generator runs before marking, and it is also what keeps FDD memory
// bounded for large policies.
//
// Hash-consing happens in a fresh node store (Interner); pipelines that
// reduce repeatedly — construction, the difference-diagram walk — hold
// their own store so already-canonical subgraphs are never
// re-hashed.
//
// The result is a DAG, not a tree; callers that need a simple FDD must
// call Simplify afterwards.
func (f *FDD) Reduce() *FDD {
	return NewInterner().Reduce(f)
}
