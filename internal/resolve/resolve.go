// Package resolve implements the discrepancy-resolution phase of diverse
// firewall design (Section 6): after the teams agree on a decision for
// every functional discrepancy, generate the final firewall.
//
// Two methods are provided, matching the paper:
//
//   - Method 1: generate a compact rule sequence (package gen) from the
//     diagram of the resolved semantics. The paper shapes A's and B's FDDs
//     to semi-isomorphism and corrects their terminals per the resolution,
//     after which the two are one diagram (Section 6.1) computing "the
//     resolution rules, then A". The generator reduces its input, and a
//     reduced FDD is canonical for its function and field order, so
//     generating from that policy's own diagram yields the same firewall
//     without shaping.
//   - Method 2: prepend, to one of the original firewalls, the resolution
//     rules on which that firewall was wrong, then remove redundant rules
//     (package redundancy).
//
// Both methods must produce equivalent firewalls; Plan.Verify checks any
// candidate against the resolved semantics.
//
// Every diagram a plan uses comes from its engine's Compile (the pair it
// compares, the resolved semantics, Method 2's composed policy and the
// candidate Verify checks), so each is budgeted, coalesced, cached and
// traced under a "compile" span like any other compilation.
package resolve

import (
	"context"
	"fmt"

	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/gen"
	"diversefw/internal/redundancy"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// Plan is a resolution session for one pair of firewalls: the comparison
// report plus the agreed decision for each discrepancy.
type Plan struct {
	A, B   *rule.Policy
	Report *compare.Report
	// Decisions[i] is the agreed decision for Report.Discrepancies[i];
	// zero means still unresolved.
	Decisions []rule.Decision
	// eng compiles every diagram the plan builds.
	eng *engine.Engine
}

// NewPlan compares the two firewalls and returns a plan with all
// discrepancies unresolved.
func NewPlan(a, b *rule.Policy) (*Plan, error) {
	return NewPlanContext(context.Background(), a, b)
}

// NewPlanContext is NewPlan with cancellation: it diffs the pair on a
// default engine of its own (engine.DiffPair), every stage aborting as
// soon as ctx is canceled. The report's Timing fills Construct and
// Compare.
func NewPlanContext(ctx context.Context, a, b *rule.Policy) (*Plan, error) {
	eng := engine.New(engine.Config{})
	d, err := eng.DiffPair(ctx, a, b)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	return NewPlanFromReport(a, b, eng, d.Report), nil
}

// NewPlanFromReport builds a plan on an engine that already holds a's and
// b's comparison report — the entry point for callers that serve many
// plans from one engine (see internal/api). The report is only read, so
// one cached report can back many concurrent plans; this also keeps
// discrepancy numbering identical between a diff and the resolve session
// built on it.
func NewPlanFromReport(a, b *rule.Policy, eng *engine.Engine, report *compare.Report) *Plan {
	return &Plan{
		A:         a,
		B:         b,
		Report:    report,
		Decisions: make([]rule.Decision, len(report.Discrepancies)),
		eng:       eng,
	}
}

// Resolve records the agreed decision for discrepancy i.
func (p *Plan) Resolve(i int, d rule.Decision) error {
	if i < 0 || i >= len(p.Decisions) {
		return fmt.Errorf("resolve: discrepancy index %d out of range [0, %d)", i, len(p.Decisions))
	}
	if d <= 0 {
		return fmt.Errorf("resolve: invalid decision %d", int(d))
	}
	p.Decisions[i] = d
	return nil
}

// ResolveAll records decisions for every discrepancy using the chooser.
func (p *Plan) ResolveAll(choose func(i int, d compare.Discrepancy) rule.Decision) error {
	for i, d := range p.Report.Discrepancies {
		if err := p.Resolve(i, choose(i, d)); err != nil {
			return err
		}
	}
	return nil
}

// Resolved reports whether every discrepancy has an agreed decision.
func (p *Plan) Resolved() bool {
	for _, d := range p.Decisions {
		if d <= 0 {
			return false
		}
	}
	return true
}

// resolutionRules returns the resolution as rules, one per discrepancy,
// in report order.
func (p *Plan) resolutionRules() []rule.Rule {
	out := make([]rule.Rule, len(p.Decisions))
	for i, d := range p.Report.Discrepancies {
		out[i] = rule.Rule{Pred: d.Pred.Clone(), Decision: p.Decisions[i]}
	}
	return out
}

// compileReference compiles, on the plan's engine, a policy with the
// intended final semantics: the resolution rules first (the regions of
// disagreement, now fixed), then firewall A (correct wherever the teams
// agreed).
func (p *Plan) compileReference(ctx context.Context) (*engine.Compiled, error) {
	ref, err := rule.NewPolicy(p.A.Schema, append(p.resolutionRules(), p.A.Rules...))
	if err != nil {
		return nil, err
	}
	c, _, err := p.eng.Compile(ctx, ref)
	return c, err
}

// Method1 generates the final firewall from the diagram of the resolved
// semantics: the structured-design generator run on the compiled FDD of
// the reference policy (compileReference), which is the corrected FDD of
// Section 6.1.
func (p *Plan) Method1() (*rule.Policy, error) {
	return p.Method1Context(context.Background())
}

// Method1Context is Method1 with cancellation and tracing: when ctx
// carries a trace the generation appears as a "resolve-generate" span
// over the reference's compile.
func (p *Plan) Method1Context(ctx context.Context) (*rule.Policy, error) {
	if !p.Resolved() {
		return nil, fmt.Errorf("resolve: method 1: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-generate")
	defer sp.End()
	sp.SetAttr("method", "fdd")
	ref, err := p.compileReference(ctx)
	if err != nil {
		return nil, err
	}
	out, err := gen.Generate(ref.FDD)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rules", out.Size())
	return out, nil
}

// Method2 builds the final firewall from one of the originals (Section
// 6.2): prepend the resolution rules on which that firewall decides
// incorrectly, then remove redundant rules. useA selects which original
// to start from.
func (p *Plan) Method2(useA bool) (*rule.Policy, error) {
	return p.Method2Context(context.Background(), useA)
}

// Method2Context is Method2 with cancellation and tracing (a
// "resolve-generate" span with method "a" or "b" and the correction
// count, over the composed policy's compile and the "redundancy" span
// of the removal that dominates its duration). The removal starts from
// the compilation's builder, which it only reads.
func (p *Plan) Method2Context(ctx context.Context, useA bool) (*rule.Policy, error) {
	if !p.Resolved() {
		return nil, fmt.Errorf("resolve: method 2: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-generate")
	defer sp.End()
	if useA {
		sp.SetAttr("method", "a")
	} else {
		sp.SetAttr("method", "b")
	}
	base := p.B
	wrongDecision := func(i int) rule.Decision { return p.Report.Discrepancies[i].B }
	if useA {
		base = p.A
		wrongDecision = func(i int) rule.Decision { return p.Report.Discrepancies[i].A }
	}
	var corrections []rule.Rule
	for i, d := range p.Report.Discrepancies {
		if wrongDecision(i) != p.Decisions[i] {
			corrections = append(corrections, rule.Rule{Pred: d.Pred.Clone(), Decision: p.Decisions[i]})
		}
	}
	sp.SetAttr("corrections", len(corrections))
	composed, err := rule.NewPolicy(base.Schema, append(corrections, base.Rules...))
	if err != nil {
		return nil, err
	}
	c, _, err := p.eng.Compile(ctx, composed)
	if err != nil {
		return nil, err
	}
	compacted, _, err := redundancy.RemoveAll(ctx, c.Builder)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rules", compacted.Size())
	return compacted, nil
}

// Verify checks that the candidate firewall implements exactly the
// resolved semantics: the agreed decision on every discrepancy region and
// the (already agreeing) original behaviour everywhere else.
func (p *Plan) Verify(candidate *rule.Policy) error {
	return p.VerifyContext(context.Background(), candidate)
}

// VerifyContext is Verify with cancellation and tracing (a
// "resolve-verify" span over the reference's and the candidate's
// compiles and the engine diff of the two).
func (p *Plan) VerifyContext(ctx context.Context, candidate *rule.Policy) error {
	if !p.Resolved() {
		return fmt.Errorf("resolve: verify: unresolved discrepancies remain")
	}
	ctx, sp := trace.Start(ctx, "resolve-verify")
	defer sp.End()
	ref, err := p.compileReference(ctx)
	if err != nil {
		return err
	}
	cand, _, err := p.eng.Compile(ctx, candidate)
	if err != nil {
		return err
	}
	r, _, err := p.eng.Diff(ctx, ref, cand)
	if err != nil {
		return err
	}
	eq := r.Equivalent()
	sp.SetAttr("equivalent", eq)
	if !eq {
		return fmt.Errorf("resolve: candidate firewall deviates from the resolved semantics")
	}
	return nil
}
