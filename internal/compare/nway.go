package compare

import (
	"fmt"
	"strings"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// NDiscrepancy is one region of the packet space on which N firewalls do
// not all agree, with every version's decision (Section 7.3's direct
// comparison output).
type NDiscrepancy struct {
	Pred rule.Predicate
	// Decisions[k] is the decision of the k-th input policy.
	Decisions []rule.Decision
}

// NReport is the result of a direct N-way comparison.
type NReport struct {
	Discrepancies []NDiscrepancy
	// PathsCompared counts the decision paths of the final combined
	// diagram.
	PathsCompared int
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
}

// Equivalent reports whether all N policies agree everywhere.
func (r *NReport) Equivalent() bool { return len(r.Discrepancies) == 0 }

// DiffN performs the direct comparison of N >= 2 policies the paper
// sketches in Section 7.3: instead of N*(N-1)/2 pairwise runs, one
// combined diagram is built whose terminals carry the *vector* of all N
// decisions. Policies are folded in one at a time: the running combined
// diagram and the next policy's FDD are shaped semi-isomorphic, and each
// terminal's vector is extended by the companion terminal's decision.
// Vectors are interned as synthetic decision values so the combined
// diagram remains an ordinary FDD (and reduces with the ordinary
// machinery).
func DiffN(policies []*rule.Policy) (*NReport, error) {
	if len(policies) < 2 {
		return nil, fmt.Errorf("compare: direct comparison needs at least 2 policies, have %d", len(policies))
	}
	schema := policies[0].Schema
	for i, p := range policies[1:] {
		if !p.Schema.Equal(schema) {
			return nil, fmt.Errorf("compare: policy %d uses a different schema", i+1)
		}
	}
	start := time.Now()

	// Vector interning: synthetic decision <-> decision vector.
	intern := map[string]rule.Decision{}
	vectors := [][]rule.Decision{nil} // synthetic decisions start at 1
	internVec := func(vec []rule.Decision) rule.Decision {
		key := vecKey(vec)
		if d, ok := intern[key]; ok {
			return d
		}
		d := rule.Decision(len(vectors))
		intern[key] = d
		vectors = append(vectors, append([]rule.Decision(nil), vec...))
		return d
	}

	// Seed: the first policy's FDD with singleton vectors.
	combined, err := fdd.Construct(policies[0])
	if err != nil {
		return nil, fmt.Errorf("compare: policy 0: %w", err)
	}
	combined = relabel(combined, func(d rule.Decision) rule.Decision {
		return internVec([]rule.Decision{d})
	})

	// Fold in the remaining policies.
	for k := 1; k < len(policies); k++ {
		fk, err := fdd.Construct(policies[k])
		if err != nil {
			return nil, fmt.Errorf("compare: policy %d: %w", k, err)
		}
		sc, sk, err := shape.MakeSemiIsomorphic(combined, fk)
		if err != nil {
			return nil, err
		}
		combined = zip(sc, sk, func(vecID, dk rule.Decision) rule.Decision {
			vec := vectors[vecID]
			ext := make([]rule.Decision, len(vec)+1)
			copy(ext, vec)
			ext[len(vec)] = dk
			return internVec(ext)
		}).Reduce()
	}

	report := &NReport{}
	report.PathsCompared = combined.NumPaths()
	for _, r := range combined.Rules() {
		vec := vectors[r.Decision]
		if allEqual(vec) {
			continue
		}
		report.Discrepancies = append(report.Discrepancies, NDiscrepancy{
			Pred:      r.Pred,
			Decisions: append([]rule.Decision(nil), vec...),
		})
	}
	report.Discrepancies = mergeN(schema.NumFields(), report.Discrepancies)
	report.Elapsed = time.Since(start)
	return report, nil
}

// relabel returns a copy of the FDD with every terminal decision mapped
// through fn.
func relabel(f *fdd.FDD, fn func(rule.Decision) rule.Decision) *fdd.FDD {
	memo := make(map[*fdd.Node]*fdd.Node)
	var walk func(n *fdd.Node) *fdd.Node
	walk = func(n *fdd.Node) *fdd.Node {
		if out, ok := memo[n]; ok {
			return out
		}
		var out *fdd.Node
		if n.IsTerminal() {
			out = fdd.Terminal(fn(n.Decision))
		} else {
			out = &fdd.Node{Field: n.Field, Edges: make([]fdd.Edge, len(n.Edges))}
			for i, e := range n.Edges {
				out.Edges[i] = fdd.Edge{Label: e.Label, To: walk(e.To)}
			}
		}
		memo[n] = out
		return out
	}
	return &fdd.FDD{Schema: f.Schema, Root: walk(f.Root)}
}

// zip walks two semi-isomorphic diagrams in lockstep and combines the
// companion terminals with fn.
func zip(a, b *fdd.FDD, fn func(da, db rule.Decision) rule.Decision) *fdd.FDD {
	var walk func(x, y *fdd.Node) *fdd.Node
	walk = func(x, y *fdd.Node) *fdd.Node {
		if x.IsTerminal() {
			return fdd.Terminal(fn(x.Decision, y.Decision))
		}
		out := &fdd.Node{Field: x.Field, Edges: make([]fdd.Edge, len(x.Edges))}
		for i := range x.Edges {
			out.Edges[i] = fdd.Edge{Label: x.Edges[i].Label, To: walk(x.Edges[i].To, y.Edges[i].To)}
		}
		return out
	}
	return &fdd.FDD{Schema: a.Schema, Root: walk(a.Root, b.Root)}
}

func vecKey(vec []rule.Decision) string {
	var sb strings.Builder
	for _, d := range vec {
		fmt.Fprintf(&sb, "%d,", int(d))
	}
	return sb.String()
}

func allEqual(vec []rule.Decision) bool {
	for _, d := range vec[1:] {
		if d != vec[0] {
			return false
		}
	}
	return true
}

// mergeN coalesces N-way rows exactly like MergeDiscrepancies does for
// pairs: identical decision vectors and all-but-one identical fields.
func mergeN(numFields int, ds []NDiscrepancy) []NDiscrepancy {
	if len(ds) <= 1 {
		return ds
	}
	key := func(d NDiscrepancy, f int) string {
		var sb strings.Builder
		sb.WriteString(vecKey(d.Decisions))
		for i, s := range d.Pred {
			if i == f {
				continue
			}
			sb.WriteByte(';')
			sb.WriteString(s.String())
		}
		return sb.String()
	}
	changed := true
	for changed {
		changed = false
		for f := numFields - 1; f >= 0; f-- {
			groups := make(map[string][]int, len(ds))
			for i, d := range ds {
				groups[key(d, f)] = append(groups[key(d, f)], i)
			}
			if len(groups) == len(ds) {
				continue
			}
			merged := make([]NDiscrepancy, 0, len(groups))
			for i, d := range ds {
				idxs := groups[key(d, f)]
				if idxs[0] != i {
					continue
				}
				out := NDiscrepancy{Pred: d.Pred.Clone(), Decisions: d.Decisions}
				for _, j := range idxs[1:] {
					out.Pred[f] = out.Pred[f].Union(ds[j].Pred[f])
					changed = true
				}
				merged = append(merged, out)
			}
			ds = merged
		}
	}
	return ds
}
