package compare

import (
	"context"
	"fmt"
	"strings"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
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
// decisions. Policies are folded in one at a time: each fold is the
// Product of the running combined diagram and the next policy's FDD,
// under a combiner that extends each terminal's vector by the next
// policy's decision.
// Vectors are interned as synthetic decision values so the combined
// diagram remains an ordinary FDD.
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
		vectors = append(vectors, vec)
		return d
	}

	var combined *fdd.FDD
	for k, p := range policies {
		fk, err := fdd.Construct(p)
		if err != nil {
			return nil, fmt.Errorf("compare: policy %d: %w", k, err)
		}
		if k == 0 {
			combined = fk
			continue
		}
		// The first fold pairs two decisions; each later one extends the
		// running vector by the next policy's decision.
		combined, err = Product(context.Background(), combined, fk, func(x, dk rule.Decision) rule.Decision {
			vec := []rule.Decision{x}
			if k > 1 {
				vec = vectors[x]
			}
			return internVec(append(vec[:len(vec):len(vec)], dk))
		})
		if err != nil {
			return nil, err
		}
	}

	report := &NReport{}
	report.PathsCompared = combined.NumPaths()
	var err error
	report.Discrepancies, _, err = diffRows(context.Background(), combined, func(d rule.Decision) bool {
		return !allEqual(vectors[d])
	}, func(p rule.Predicate, d rule.Decision) NDiscrepancy {
		return NDiscrepancy{Pred: p, Decisions: append([]rule.Decision(nil), vectors[d]...)}
	})
	if err != nil {
		return nil, err
	}
	report.Elapsed = time.Since(start)
	return report, nil
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
