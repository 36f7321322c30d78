package compare

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// diffNReference is DiffN as it was before the fold ran on Product,
// kept verbatim as the reference the product fold is pinned to: it
// shapes the running diagram against each policy, zips the
// semi-isomorphic pair, relabels and reduces per fold, and merges rows
// with mergeN.
//
// DiffN performs the direct comparison of N >= 2 policies the paper
// sketches in Section 7.3: instead of N*(N-1)/2 pairwise runs, one
// combined diagram is built whose terminals carry the *vector* of all N
// decisions. Policies are folded in one at a time: the running combined
// diagram and the next policy's FDD are shaped semi-isomorphic, and each
// terminal's vector is extended by the companion terminal's decision.
// Vectors are interned as synthetic decision values so the combined
// diagram remains an ordinary FDD (and reduces with the ordinary
// machinery).
func diffNReference(policies []*rule.Policy) (*NReport, error) {
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

// TestDiffNMatchesReference pins the product fold to the shape-and-zip
// fold it replaced: the two reports are deeply equal, PathsCompared
// included, on the paper's teams and on 3- and 4-way perturbation sets.
func TestDiffNMatchesReference(t *testing.T) {
	t.Parallel()
	perturbed := func(base *rule.Policy, n int, x float64, seed int64) []*rule.Policy {
		out := make([]*rule.Policy, n)
		for k := range out {
			out[k], _ = synth.Perturb(base, x, seed+int64(k))
		}
		return out
	}
	sets := map[string][]*rule.Policy{
		"teams":        {paper.TeamA(), paper.TeamB()},
		"teams+agreed": {paper.TeamA(), paper.TeamB(), paper.AgreedFirewall()},
	}
	for s := int64(0); s < 4; s++ {
		base := synth.Synthetic(synth.Config{Rules: 120, Seed: 100 + s})
		sets[fmt.Sprintf("synthetic120/3/%d", s)] = perturbed(base, 3, 8, 200+10*s)
		sets[fmt.Sprintf("synthetic120/4/%d", s)] = perturbed(base, 4, 8, 300+10*s)
	}
	for s := int64(0); s < 3; s++ {
		sets[fmt.Sprintf("reallife200/3/%d", s)] = perturbed(synth.RealLife(200, 40+s), 3, 25, 400+10*s)
	}
	for name, policies := range sets {
		got, err := DiffN(policies)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := diffNReference(policies)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: product fold differs from the reference: %d rows / %d paths vs %d rows / %d paths",
				name, len(got.Discrepancies), got.PathsCompared, len(want.Discrepancies), want.PathsCompared)
		}
	}
}
