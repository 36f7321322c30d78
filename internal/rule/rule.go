// Package rule defines firewall rules and policies with first-match
// semantics, plus a text format for reading and writing them.
//
// Section 3.1 of the paper: a rule is <predicate> -> <decision> where the
// predicate is a conjunction F_1 in S_1 && ... && F_d in S_d over a schema's
// fields, and a firewall (policy) is a sequence of rules resolved by
// first-match. A policy must be comprehensive — every packet matches at
// least one rule — which in practice means ending with a catch-all rule.
package rule

import (
	"fmt"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
)

// Decision is the action a rule maps matching packets to. The paper's
// decision set Σ typically holds accept, discard, and logged variants; any
// positive integer is a valid decision, so richer decision sets work too.
type Decision int

// The standard decision set.
const (
	Accept Decision = iota + 1
	Discard
	AcceptLog
	DiscardLog
)

// String renders standard decisions symbolically, others numerically.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Discard:
		return "discard"
	case AcceptLog:
		return "accept-log"
	case DiscardLog:
		return "discard-log"
	default:
		return fmt.Sprintf("decision#%d", int(d))
	}
}

// ParseDecision parses the symbolic forms produced by Decision.String plus
// the common aliases allow/deny/drop.
func ParseDecision(s string) (Decision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "accept", "allow", "permit", "a":
		return Accept, nil
	case "discard", "deny", "drop", "d":
		return Discard, nil
	case "accept-log", "accept_log", "allow-log":
		return AcceptLog, nil
	case "discard-log", "discard_log", "deny-log":
		return DiscardLog, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "decision#%d", &n); err == nil && n > 0 {
		return Decision(n), nil
	}
	return 0, fmt.Errorf("rule: unknown decision %q", s)
}

// Packet is a tuple of field values in schema order (Section 3.1).
type Packet []uint64

// Predicate is the conjunctive condition of a rule: one value set per
// schema field, in schema order. A nil set entry is not allowed; use the
// full domain for "don't care" fields.
type Predicate []interval.Set

// Matches reports whether the packet satisfies every conjunct.
func (p Predicate) Matches(pkt Packet) bool {
	for i, s := range p {
		if !s.Contains(pkt[i]) {
			return false
		}
	}
	return true
}

// IsSimple reports whether every conjunct is a single interval — the
// "simple rule" form of Section 3.1 (and the hypothesis of Theorem 1).
func (p Predicate) IsSimple() bool {
	for _, s := range p {
		if s.NumIntervals() != 1 {
			return false
		}
	}
	return true
}

// Empty reports whether some conjunct is empty, making the predicate
// unsatisfiable.
func (p Predicate) Empty() bool {
	for _, s := range p {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the predicate.
func (p Predicate) Clone() Predicate {
	out := make(Predicate, len(p))
	copy(out, p) // Sets are immutable, so a shallow copy suffices
	return out
}

// Rule is <predicate> -> <decision>.
type Rule struct {
	Pred     Predicate
	Decision Decision
}

// Matches reports whether the packet matches the rule.
func (r Rule) Matches(pkt Packet) bool { return r.Pred.Matches(pkt) }

// Policy is a firewall: a schema plus an ordered rule sequence with
// first-match semantics.
type Policy struct {
	Schema *field.Schema
	Rules  []Rule
}

// NewPolicy validates rules against the schema: each rule must have one
// nonempty value set per field, every set within the field's domain.
func NewPolicy(schema *field.Schema, rules []Rule) (*Policy, error) {
	if err := validateRules(schema, rules); err != nil {
		return nil, err
	}
	rs := make([]Rule, len(rules))
	copy(rs, rules)
	return &Policy{Schema: schema, Rules: rs}, nil
}

// validateRules is NewPolicy's check of rules against schema.
func validateRules(schema *field.Schema, rules []Rule) error {
	if schema == nil {
		return fmt.Errorf("rule: nil schema")
	}
	for ri, r := range rules {
		if len(r.Pred) != schema.NumFields() {
			return fmt.Errorf("rule %d: predicate has %d conjuncts, schema has %d fields",
				ri, len(r.Pred), schema.NumFields())
		}
		if r.Decision <= 0 {
			return fmt.Errorf("rule %d: invalid decision %d", ri, int(r.Decision))
		}
		for fi, s := range r.Pred {
			if s.Empty() {
				return fmt.Errorf("rule %d: field %s has empty value set", ri, schema.Field(fi).Name)
			}
			if !schema.FullSet(fi).ContainsSet(s) {
				return fmt.Errorf("rule %d: field %s set %v exceeds domain %v",
					ri, schema.Field(fi).Name, s, schema.Domain(fi))
			}
		}
	}
	return nil
}

// MustPolicy is like NewPolicy but panics on error; for fixtures.
func MustPolicy(schema *field.Schema, rules []Rule) *Policy {
	p, err := NewPolicy(schema, rules)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns |f|, the number of rules.
func (p *Policy) Size() int { return len(p.Rules) }

// Decide evaluates the packet with first-match semantics and returns the
// decision plus the index of the matching rule. ok is false if no rule
// matches (the policy is not comprehensive for this packet).
func (p *Policy) Decide(pkt Packet) (d Decision, matched int, ok bool) {
	for i, r := range p.Rules {
		if r.Matches(pkt) {
			return r.Decision, i, true
		}
	}
	return 0, -1, false
}

// EndsWithCatchAll reports whether the final rule matches every packet —
// the standard way a policy is made comprehensive (Section 3.1). A policy
// can be comprehensive without this (the rules may jointly cover the
// space); use fdd.IsComprehensive for the complete check.
func (p *Policy) EndsWithCatchAll() bool {
	if len(p.Rules) == 0 {
		return false
	}
	last := p.Rules[len(p.Rules)-1]
	for fi, s := range last.Pred {
		if !s.Equal(p.Schema.FullSet(fi)) {
			return false
		}
	}
	return true
}

// FullPredicate returns the predicate matching every packet of the schema.
func FullPredicate(schema *field.Schema) Predicate {
	pred := make(Predicate, schema.NumFields())
	for i := range pred {
		pred[i] = schema.FullSet(i)
	}
	return pred
}

// CatchAll returns the comprehensive final rule with the given decision.
func CatchAll(schema *field.Schema, d Decision) Rule {
	return Rule{Pred: FullPredicate(schema), Decision: d}
}

// Clone returns a deep-enough copy of the policy: the rule slice and each
// predicate are copied; the schema is shared (schemas are immutable).
func (p *Policy) Clone() *Policy {
	rules := make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = Rule{Pred: r.Pred.Clone(), Decision: r.Decision}
	}
	return &Policy{Schema: p.Schema, Rules: rules}
}

// InsertRule returns a copy of the policy with r inserted at index i
// (0 = highest priority). It validates like NewPolicy.
func (p *Policy) InsertRule(i int, r Rule) (*Policy, error) {
	if i < 0 || i > len(p.Rules) {
		return nil, fmt.Errorf("rule: insert index %d out of range [0, %d]", i, len(p.Rules))
	}
	rules := make([]Rule, 0, len(p.Rules)+1)
	rules = append(rules, p.Rules[:i]...)
	rules = append(rules, r)
	rules = append(rules, p.Rules[i:]...)
	return NewPolicy(p.Schema, rules)
}

// DeleteRule returns a copy of the policy with rule i removed.
func (p *Policy) DeleteRule(i int) (*Policy, error) {
	if i < 0 || i >= len(p.Rules) {
		return nil, fmt.Errorf("rule: delete index %d out of range [0, %d)", i, len(p.Rules))
	}
	rules := make([]Rule, 0, len(p.Rules)-1)
	rules = append(rules, p.Rules[:i]...)
	rules = append(rules, p.Rules[i+1:]...)
	return NewPolicy(p.Schema, rules)
}

// ReplaceRule returns a copy of the policy with rule i replaced by r.
func (p *Policy) ReplaceRule(i int, r Rule) (*Policy, error) {
	if i < 0 || i >= len(p.Rules) {
		return nil, fmt.Errorf("rule: replace index %d out of range [0, %d)", i, len(p.Rules))
	}
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	rules[i] = r
	return NewPolicy(p.Schema, rules)
}

// SwapRules returns a copy of the policy with rules i and j exchanged —
// the rule-ordering edit that Section 8.1 found to be the dominant source
// of firewall errors.
func (p *Policy) SwapRules(i, j int) (*Policy, error) {
	if i < 0 || i >= len(p.Rules) || j < 0 || j >= len(p.Rules) {
		return nil, fmt.Errorf("rule: swap indices %d, %d out of range [0, %d)", i, j, len(p.Rules))
	}
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	rules[i], rules[j] = rules[j], rules[i]
	return NewPolicy(p.Schema, rules)
}
