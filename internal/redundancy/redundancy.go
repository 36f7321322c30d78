// Package redundancy implements complete redundancy detection and removal
// for firewall policies — the substrate from the paper's reference [19]
// ("Complete Redundancy Detection in Firewalls", Liu & Gouda) that
// Section 6's resolution Method 2 runs after prepending correction rules.
//
// A rule is redundant iff removing it leaves the policy's semantics
// unchanged. Two mechanisms are provided:
//
//   - Upward redundancy comes free with FDD construction: a rule no
//     packet reaches as its first match contributes nothing, and
//     fdd.Builder.Effective reports it per rule.
//   - IsRedundant is the complete semantic check (covering downward
//     redundancy too — a rule whose packets would get the same decision
//     from later rules): the policy with and without the rule are compared
//     with the FDD equivalence pipeline, which is exact.
package redundancy

import (
	"context"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// IsRedundant reports whether rule i can be deleted without changing the
// policy's semantics. This is the complete check: it detects both upward
// redundancy (rule i is never a first match) and downward redundancy
// (packets whose first match is rule i would get the same decision from a
// later rule).
func IsRedundant(p *rule.Policy, i int) (bool, error) {
	if i < 0 || i >= p.Size() {
		return false, fmt.Errorf("redundancy: rule index %d out of range [0, %d)", i, p.Size())
	}
	without, err := p.DeleteRule(i)
	if err != nil {
		return false, err
	}
	withoutFDD, cerr := fdd.Construct(without)
	if cerr != nil {
		// Deleting rule i leaves some packet uncovered, so rule i is the
		// sole cover of that packet: not redundant.
		return false, nil
	}
	f, err := fdd.Construct(p)
	if err != nil {
		return false, fmt.Errorf("redundancy: %w", err)
	}
	report, err := compare.DiffFDDsDirect(f, withoutFDD)
	if err != nil {
		return false, err
	}
	return report.Equivalent(), nil
}

// RemoveAll returns a policy equivalent to b's with no redundant rules,
// plus the original indices of the removed rules in removal order. It
// first drops every upward-redundant rule, which b's effective bits
// name, then repeats the complete semantic check to a fixpoint (removing
// one rule can expose or conceal the redundancy of another, e.g. two
// identical rules are each redundant but only one may go). b is only
// read, so a cached, shared builder serves.
//
// The complete check runs once per candidate rule, RemoveAll polling
// ctx before each one and returning ctx.Err() (wrapped) once it is done.
// When ctx carries a trace, the removal is one "redundancy" span with
// the candidates checked and the rules removed, and no child spans.
func RemoveAll(ctx context.Context, b *fdd.Builder) (*rule.Policy, []int, error) {
	_, sp := trace.Start(ctx, "redundancy")
	defer sp.End()
	p := b.Policy()
	// Track original indices through removals.
	origIdx := make([]int, p.Size())
	for i := range origIdx {
		origIdx[i] = i
	}
	var removed []int
	cur := p.Clone()

	drop := func(i int) error {
		next, err := cur.DeleteRule(i)
		if err != nil {
			return err
		}
		removed = append(removed, origIdx[i])
		origIdx = append(origIdx[:i], origIdx[i+1:]...)
		cur = next
		return nil
	}

	// Pass 1: upward redundancy, read off the construction.
	eff := b.Effective()
	for i := len(eff) - 1; i >= 0; i-- {
		if !eff[i] {
			if err := drop(i); err != nil {
				return nil, nil, err
			}
		}
	}

	// Pass 2: complete semantic check to a fixpoint. Two optimizations
	// keep this O(n) FDD builds per pass instead of O(n) *pairs*: the
	// current policy's FDD is carried from removal to removal (pass 1
	// leaves b's function unchanged, so it starts as b's diagram), and
	// rules that cannot possibly be downward redundant are skipped (a
	// rule's first-match region can only be re-decided identically if
	// some later rule with the same decision overlaps it).
	curFDD := b.FDD()
	checked := 0
	for again := true; again; {
		again = false
		for i := 0; i < cur.Size(); i++ {
			if !maybeDownwardRedundant(cur, i) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("redundancy: %w", err)
			}
			checked++
			without, err := cur.DeleteRule(i)
			if err != nil {
				return nil, nil, err
			}
			withoutFDD, cerr := fdd.Construct(without)
			if cerr != nil {
				continue // sole cover of some packet: not redundant
			}
			report, err := compare.DiffFDDsDirect(curFDD, withoutFDD)
			if err != nil {
				return nil, nil, err
			}
			if report.Equivalent() {
				if err := drop(i); err != nil {
					return nil, nil, err
				}
				curFDD = withoutFDD
				again = true
				i--
			}
		}
	}
	sp.SetAttr("checked", checked)
	sp.SetAttr("removed", len(removed))
	return cur, removed, nil
}

// maybeDownwardRedundant is the necessary condition for rule i to be
// removable: some packet whose first match is rule i must get the same
// decision from a later rule, so a later same-decision rule must overlap
// rule i. (Upward-redundant rules were already dropped in pass 1.)
func maybeDownwardRedundant(p *rule.Policy, i int) bool {
	ri := p.Rules[i]
	for j := i + 1; j < p.Size(); j++ {
		rj := p.Rules[j]
		if rj.Decision != ri.Decision {
			continue
		}
		overlaps := true
		for f := range ri.Pred {
			if !ri.Pred[f].Overlaps(rj.Pred[f]) {
				overlaps = false
				break
			}
		}
		if overlaps {
			return true
		}
	}
	return false
}
