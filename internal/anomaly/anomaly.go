// Package anomaly implements pairwise firewall-anomaly detection in the
// style of the paper's references [1] (Al-Shaer & Hamed, "Discovery of
// Policy Anomalies in Distributed Firewalls") and [29] (FIREMAN) — the
// prior-art analysis the paper contrasts its method with.
//
// An anomaly is a *syntactic* relationship between two rules that often —
// but not always — indicates an error: the paper notes these "are
// subjectively defined and may not be deemed as errors by a firewall
// administrator". This package exists as the faithful baseline: tests
// demonstrate both what it catches and where it over- or under-reports
// relative to the exact FDD machinery (a pairwise "redundancy" that is
// not actually removable, and real redundancy spread over several rules
// that no pair reveals).
package anomaly

import (
	"fmt"

	"diversefw/internal/rule"
)

// Kind classifies a pairwise anomaly.
type Kind int

const (
	// Shadowing: a later rule matches only packets an earlier rule already
	// matches, with a different decision — the later rule never acts and
	// disagrees about what should happen. Generally a genuine error.
	Shadowing Kind = iota + 1
	// Generalization: a later rule strictly generalizes an earlier rule
	// with a different decision — the earlier rule is an exception. Often
	// intentional; reported as a warning.
	Generalization
	// Correlation: two rules partially overlap with different decisions —
	// their relative order silently decides the overlap.
	Correlation
	// Redundancy: a later rule matches a subset of an earlier rule with
	// the same decision — possibly removable (but only the complete
	// semantic check of package redundancy can say for sure).
	Redundancy
)

// String names the anomaly kind.
func (k Kind) String() string {
	switch k {
	case Shadowing:
		return "shadowing"
	case Generalization:
		return "generalization"
	case Correlation:
		return "correlation"
	case Redundancy:
		return "redundancy"
	default:
		return fmt.Sprintf("anomaly#%d", int(k))
	}
}

// Anomaly relates rule J (lower priority) to rule I (higher priority,
// I < J).
type Anomaly struct {
	Kind Kind
	I, J int
}

// String renders the anomaly for reports.
func (a Anomaly) String() string {
	return fmt.Sprintf("%s: rule %d vs rule %d", a.Kind, a.J+1, a.I+1)
}

// relation classifies the predicate pair.
type relation int

const (
	relDisjoint relation = iota
	relSubset            // a ⊆ b
	relSuperset          // a ⊇ b (strictly)
	relEqual
	relOverlap // partial overlap
)

func relate(a, b rule.Predicate) relation {
	overlap := true
	aInB, bInA := true, true
	for f := range a {
		if !a[f].Overlaps(b[f]) {
			overlap = false
		}
		if !b[f].ContainsSet(a[f]) {
			aInB = false
		}
		if !a[f].ContainsSet(b[f]) {
			bInA = false
		}
	}
	switch {
	case aInB && bInA:
		return relEqual
	case aInB:
		return relSubset
	case bInA:
		return relSuperset
	case overlap:
		return relOverlap
	default:
		return relDisjoint
	}
}

// Detect runs the pairwise classification over all rule pairs. Results
// are ordered by (J, I). The trailing catch-all (the policy's default) is
// exempt from generalization warnings: a default rule generalizes every
// exception above it by design, in every firewall.
func Detect(p *rule.Policy) []Anomaly {
	defaultIdx := -1
	if p.EndsWithCatchAll() {
		defaultIdx = p.Size() - 1
	}
	var out []Anomaly
	for j := 1; j < p.Size(); j++ {
		for i := 0; i < j; i++ {
			ri, rj := p.Rules[i], p.Rules[j]
			rel := relate(rj.Pred, ri.Pred) // rj relative to the earlier ri
			sameDecision := ri.Decision == rj.Decision
			switch rel {
			case relDisjoint:
				continue
			case relSubset, relEqual:
				if sameDecision {
					out = append(out, Anomaly{Kind: Redundancy, I: i, J: j})
				} else {
					out = append(out, Anomaly{Kind: Shadowing, I: i, J: j})
				}
			case relSuperset:
				if !sameDecision && j != defaultIdx {
					out = append(out, Anomaly{Kind: Generalization, I: i, J: j})
				}
				// Superset with the same decision is the common
				// "specific rules first, broad default later" idiom; not
				// reported.
			case relOverlap:
				if !sameDecision {
					out = append(out, Anomaly{Kind: Correlation, I: i, J: j})
				}
			}
		}
	}
	return out
}

// CompletelyShadowed returns the indices of rules that are never a first
// match — shadowing by the *union* of earlier rules, which pairwise
// analysis cannot see. It is exact: effective is the per-rule bit FDD
// construction reports (fdd.Builder.Effective), false for such a rule.
func CompletelyShadowed(effective []bool) []int {
	var out []int
	for i, e := range effective {
		if !e {
			out = append(out, i)
		}
	}
	return out
}
