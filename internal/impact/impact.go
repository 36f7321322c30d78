// Package impact implements firewall change-impact analysis (Sections 1.3
// and 8.1 of the paper): the impact of a change is defined as the set of
// functional discrepancies between the policy before and the policy after
// the change, computed with the same diff (compare.DiffContext) used for
// diverse design.
//
// Beyond the raw discrepancy set, the package attributes each impacted
// region to the rules that decide it before and after the change, which is
// what tells an administrator *why* the behaviour moved (the paper found
// mis-ordered insertions to be the dominant error source).
package impact

import (
	"context"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/rule"
)

// EditKind enumerates policy edits.
type EditKind int

const (
	// InsertRule inserts Edit.Rule at Edit.Index.
	InsertRule EditKind = iota + 1
	// DeleteRule removes the rule at Edit.Index.
	DeleteRule
	// ReplaceRule replaces the rule at Edit.Index with Edit.Rule.
	ReplaceRule
	// SwapRules exchanges the rules at Edit.Index and Edit.J.
	SwapRules
)

// String names the edit kind.
func (k EditKind) String() string {
	switch k {
	case InsertRule:
		return "insert"
	case DeleteRule:
		return "delete"
	case ReplaceRule:
		return "replace"
	case SwapRules:
		return "swap"
	default:
		return fmt.Sprintf("edit#%d", int(k))
	}
}

// Edit is a single change to a policy.
type Edit struct {
	Kind  EditKind
	Index int
	J     int       // second index, for SwapRules
	Rule  rule.Rule // payload, for InsertRule and ReplaceRule
}

// Apply applies the edits in order and returns the resulting policy. The
// input policy is not modified.
func Apply(p *rule.Policy, edits []Edit) (*rule.Policy, error) {
	cur := p
	for i, e := range edits {
		var err error
		switch e.Kind {
		case InsertRule:
			idx := e.Index
			if idx == appendIndex {
				idx = cur.Size()
			}
			cur, err = cur.InsertRule(idx, e.Rule)
		case DeleteRule:
			cur, err = cur.DeleteRule(e.Index)
		case ReplaceRule:
			cur, err = cur.ReplaceRule(e.Index, e.Rule)
		case SwapRules:
			cur, err = cur.SwapRules(e.Index, e.J)
		default:
			err = fmt.Errorf("unknown edit kind %d", int(e.Kind))
		}
		if err != nil {
			return nil, fmt.Errorf("impact: edit %d (%s): %w", i, e.Kind, err)
		}
	}
	return cur, nil
}

// UntouchedPrefix returns how many leading rules of an n-rule policy an
// edit script that Apply accepts leaves in place: the lowest position any
// edit touches, for a swap the lower of its two. An insert or a delete
// shifts only the rules at or after its position, so no later edit moves
// a rule below that bound. The edited policy may share more (a replace by
// an equal rule); it never shares less.
func UntouchedPrefix(n int, edits []Edit) int {
	low, size := n, n
	for _, e := range edits {
		i := e.Index
		switch e.Kind {
		case InsertRule:
			if i == appendIndex {
				i = size
			}
			size++
		case DeleteRule:
			size--
		case SwapRules:
			i = min(i, e.J)
		}
		low = min(low, i)
	}
	return max(low, 0)
}

// Impact is the result of a change-impact analysis.
type Impact struct {
	Before, After *rule.Policy
	// Report holds the functional discrepancies: exactly the packets whose
	// decision the change altered, with the old decision (A side) and the
	// new decision (B side).
	Report *compare.Report
}

// None reports whether the change had no functional effect.
func (im *Impact) None() bool { return im.Report.Equivalent() }

// Analyze compares a policy before and after a change.
func Analyze(before, after *rule.Policy) (*Impact, error) {
	return AnalyzeContext(context.Background(), before, after)
}

// AnalyzeContext is Analyze with cancellation: the underlying comparison
// pipeline aborts as soon as ctx is canceled (see compare.DiffContext).
func AnalyzeContext(ctx context.Context, before, after *rule.Policy) (*Impact, error) {
	report, err := compare.DiffContext(ctx, before, after)
	if err != nil {
		return nil, err
	}
	return &Impact{Before: before, After: after, Report: report}, nil
}

// FromReport builds an Impact from an already-computed comparison report
// for (before, after) — the entry point for callers that cache reports
// (see internal/engine). The report is only read.
func FromReport(before, after *rule.Policy, report *compare.Report) *Impact {
	return &Impact{Before: before, After: after, Report: report}
}

// AnalyzeEdits applies the edits and analyzes their impact in one step.
func AnalyzeEdits(before *rule.Policy, edits []Edit) (*Impact, error) {
	after, err := Apply(before, edits)
	if err != nil {
		return nil, err
	}
	return Analyze(before, after)
}

// Attribution explains one impacted region: which rule decided it before
// the change and which rule decides it now.
type Attribution struct {
	Discrepancy compare.Discrepancy
	// Witness is a concrete packet inside the region.
	Witness rule.Packet
	// BeforeRule and AfterRule are the indices of the first-match rules in
	// the before/after policies (-1 if no rule matches, which cannot
	// happen for comprehensive policies).
	BeforeRule, AfterRule int
}

// Attribute maps every impacted region to the rules responsible on both
// sides, using a witness packet from the region's lower corner.
func (im *Impact) Attribute() []Attribution {
	out := make([]Attribution, 0, len(im.Report.Discrepancies))
	for _, d := range im.Report.Discrepancies {
		w := make(rule.Packet, len(d.Pred))
		for f, s := range d.Pred {
			v, _ := s.Min()
			w[f] = v
		}
		_, bi, _ := im.Before.Decide(w)
		_, ai, _ := im.After.Decide(w)
		out = append(out, Attribution{
			Discrepancy: d,
			Witness:     w,
			BeforeRule:  bi,
			AfterRule:   ai,
		})
	}
	return out
}
