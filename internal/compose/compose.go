// Package compose combines firewall policies pointwise: given policies
// f1 and f2 over the same schema and a decision combiner, it produces a
// single policy deciding every packet as combiner(f1(p), f2(p)).
//
// The motivating combiner is Serial: a packet traversing two firewalls in
// sequence (gateway then DMZ firewall — the distributed setting of the
// paper's references [1] and [15]) passes iff both accept. Composition
// reuses the pipeline machinery: construct both FDDs, walk their product
// (compare.Product) combining the decisions the two reach on each
// region, and generate a compact rule sequence from the result.
package compose

import (
	"context"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/gen"
	"diversefw/internal/rule"
)

// Combiner merges the two firewalls' decisions for one packet.
type Combiner func(d1, d2 rule.Decision) rule.Decision

// SerialDecisions is the traversal combiner: accept only if both accept,
// preserving logging (a packet logged by either hop is logged).
func SerialDecisions(d1, d2 rule.Decision) rule.Decision {
	accept1 := d1 == rule.Accept || d1 == rule.AcceptLog
	accept2 := d2 == rule.Accept || d2 == rule.AcceptLog
	logged := d1 == rule.AcceptLog || d1 == rule.DiscardLog ||
		d2 == rule.AcceptLog || d2 == rule.DiscardLog
	switch {
	case accept1 && accept2 && logged:
		return rule.AcceptLog
	case accept1 && accept2:
		return rule.Accept
	case logged:
		return rule.DiscardLog
	default:
		return rule.Discard
	}
}

// Combine returns a policy equivalent to combiner applied pointwise to
// the two policies' decisions: the Product of their FDDs under
// combiner, written back as rules by gen.Generate.
func Combine(p1, p2 *rule.Policy, combiner Combiner) (*rule.Policy, error) {
	if !p1.Schema.Equal(p2.Schema) {
		return nil, fmt.Errorf("compose: schemas differ")
	}
	if combiner == nil {
		return nil, fmt.Errorf("compose: nil combiner")
	}
	f1, err := fdd.Construct(p1)
	if err != nil {
		return nil, err
	}
	f2, err := fdd.Construct(p2)
	if err != nil {
		return nil, err
	}
	f, err := compare.Product(context.Background(), f1, f2, combiner)
	if err != nil {
		return nil, err
	}
	return gen.Generate(f)
}

// Serial composes a chain of policies: the behaviour of a packet
// traversing each firewall in order, accepted only if every hop accepts.
func Serial(policies ...*rule.Policy) (*rule.Policy, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("compose: empty chain")
	}
	cur := policies[0]
	for _, next := range policies[1:] {
		combined, err := Combine(cur, next, SerialDecisions)
		if err != nil {
			return nil, err
		}
		cur = combined
	}
	return cur, nil
}
