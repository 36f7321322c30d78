package compare

import (
	"fmt"
	"math/rand"
	"testing"

	"diversefw/internal/bdd"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// TestCrossValidateAgainstBDD checks the FDD pipeline against the
// completely independent BDD implementation (different data structure,
// different algorithms): on random policy pairs over a small schema, the
// set of disagreement packets computed by both must be identical, checked
// exhaustively.
func TestCrossValidateAgainstBDD(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(61))
	schema := field.MustSchema(
		field.Field{Name: "x", Domain: interval.MustNew(0, 31), Kind: field.KindInt},
		field.Field{Name: "y", Domain: interval.MustNew(0, 15), Kind: field.KindInt},
	)
	randPolicy := func() *rule.Policy {
		n := 1 + r.Intn(6)
		rules := make([]rule.Rule, 0, n+1)
		for i := 0; i < n; i++ {
			lo1 := uint64(r.Intn(32))
			hi1 := lo1 + uint64(r.Intn(32-int(lo1)))
			lo2 := uint64(r.Intn(16))
			hi2 := lo2 + uint64(r.Intn(16-int(lo2)))
			d := rule.Accept
			if r.Intn(2) == 0 {
				d = rule.Discard
			}
			rules = append(rules, rule.Rule{
				Pred:     rule.Predicate{interval.SetOf(lo1, hi1), interval.SetOf(lo2, hi2)},
				Decision: d,
			})
		}
		rules = append(rules, rule.CatchAll(schema, rule.Discard))
		return rule.MustPolicy(schema, rules)
	}

	for trial := 0; trial < 25; trial++ {
		pa, pb := randPolicy(), randPolicy()
		for _, w := range policyWalks {
			crossValidate(t, fmt.Sprintf("trial %d %s", trial, w.name), w.diff, pa, pb)
		}
	}
}

// crossValidate diffs pa and pb (the test's two-field schema) with diff
// and holds the rows to the BDD diff, exhaustively.
func crossValidate(t *testing.T, name string, diff func(pa, pb *rule.Policy) (*Report, error), pa, pb *rule.Policy) {
	t.Helper()
	report, err := diff(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	enc, res, err := bdd.DiffPolicies(pa, pb)
	if err != nil {
		t.Fatal(err)
	}

	// Exhaustive agreement over the whole (small) packet space, plus
	// an exact disagreement count comparison.
	count := 0
	for x := uint64(0); x <= 31; x++ {
		for y := uint64(0); y <= 15; y++ {
			pkt := rule.Packet{x, y}
			inFDD := false
			for _, d := range report.Discrepancies {
				if d.Pred.Matches(pkt) {
					inFDD = true
					break
				}
			}
			assign := make([]bool, enc.M.NumVars())
			bits := enc.FieldBits(0)
			for i, v := range bits {
				assign[v] = x>>uint(len(bits)-1-i)&1 == 1
			}
			bits = enc.FieldBits(1)
			for i, v := range bits {
				assign[v] = y>>uint(len(bits)-1-i)&1 == 1
			}
			inBDD := enc.M.Eval(res.Diff, assign)
			if inFDD != inBDD {
				t.Fatalf("%s: packet %v: FDD says %v, BDD says %v", name, pkt, inFDD, inBDD)
			}
			if inFDD {
				count++
			}
		}
	}

	// The discrepancy rows are disjoint, so their sizes add up to the
	// exact disagreement count; the BDD's SatFraction gives the same
	// number independently.
	var rowSum uint64
	for _, d := range report.Discrepancies {
		size := uint64(1)
		for _, s := range d.Pred {
			size *= s.Count()
		}
		rowSum += size
	}
	if rowSum != uint64(count) {
		t.Fatalf("%s: row sizes add to %d, exhaustive count %d", name, rowSum, count)
	}
	bddCount := res.Fraction * float64(32*16)
	if int(bddCount+0.5) != count {
		t.Fatalf("%s: BDD fraction gives %v packets, exhaustive count %d", name, bddCount, count)
	}
}
