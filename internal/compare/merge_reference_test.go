package compare

import (
	"fmt"
	"strings"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// mergeKeyString is the seed's fmt-based group key, retained verbatim as
// the reference the row merge is pinned to.
func mergeKeyString(d Discrepancy, f int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d", int(d.A), int(d.B))
	for i, s := range d.Pred {
		if i == f {
			continue
		}
		sb.WriteByte(';')
		sb.WriteString(s.String())
	}
	return sb.String()
}

// mergeDiscrepanciesStringKey is the seed's MergeDiscrepancies: identical
// control flow, but it formats a fresh string key — twice — per (row,
// field) visit.
func mergeDiscrepanciesStringKey(numFields int, ds []Discrepancy) []Discrepancy {
	if len(ds) <= 1 {
		return ds
	}
	changed := true
	for changed {
		changed = false
		for f := numFields - 1; f >= 0; f-- {
			groups := make(map[string][]int, len(ds))
			for i, d := range ds {
				groups[mergeKeyString(d, f)] = append(groups[mergeKeyString(d, f)], i)
			}
			if len(groups) == len(ds) {
				continue
			}
			merged := make([]Discrepancy, 0, len(groups))
			for i, d := range ds {
				idxs := groups[mergeKeyString(d, f)]
				if idxs[0] != i {
					continue
				}
				out := Discrepancy{Pred: d.Pred.Clone(), A: d.A, B: d.B}
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

// mergeInput produces a realistic pile of discrepancy rows: the report
// rows of a diff of two synthetic policies.
func mergeInput(tb testing.TB) (int, []Discrepancy) {
	tb.Helper()
	pa := synth.Synthetic(synth.Config{Rules: 200, Seed: 31})
	pb := synth.Synthetic(synth.Config{Rules: 200, Seed: 32})
	r, err := Diff(pa, pb)
	if err != nil {
		tb.Fatal(err)
	}
	// These rows are already merged, so the merge has little to do, but
	// every round still groups and scans every (row, field) pair.
	if len(r.Discrepancies) < 10 {
		tb.Fatalf("want a meaty input, got %d rows", len(r.Discrepancies))
	}
	return pa.Schema.NumFields(), r.Discrepancies
}

// mergePairs runs pair rows through rowSet.merge, keyed by the pair
// code a<<pairShift | b as pairRows does.
func mergePairs(numFields int, ds []Discrepancy) []Discrepancy {
	rows := make([]rule.Rule, len(ds))
	for i, d := range ds {
		rows[i] = rule.Rule{Pred: d.Pred, Decision: d.A<<pairShift | d.B}
	}
	var out []Discrepancy
	for _, r := range mergeRuleRows(numFields, rows, nil) {
		out = append(out, Discrepancy{Pred: r.Pred, A: r.Decision >> pairShift, B: r.Decision & (1<<pairShift - 1)})
	}
	return out
}

// mergeRuleRows merges rows with rowSet.merge, as diffRows does once it
// has enumerated them. A non-nil hashOverride replaces every group key.
func mergeRuleRows(numFields int, rows []rule.Rule, hashOverride func(uint64) uint64) []rule.Rule {
	s := &rowSet{nf: numFields, hashOverride: hashOverride}
	for _, r := range rows {
		for f, set := range r.Pred {
			s.fields = append(s.fields, s.addSet(f, set))
		}
		s.dec = append(s.dec, r.Decision)
	}
	s.merge()
	return emitRows(s, func(p rule.Predicate, d rule.Decision) rule.Rule {
		return rule.Rule{Pred: p, Decision: d}
	})
}

// TestMergeDiscrepanciesMatchesStringKey pins the byte-key row merge to
// the seed implementation on real diff output.
func TestMergeDiscrepanciesMatchesStringKey(t *testing.T) {
	numFields, ds := mergeInput(t)
	a := mergePairs(numFields, cloneRows(ds))
	b := mergeDiscrepanciesStringKey(numFields, cloneRows(ds))
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B {
			t.Fatalf("row %d decisions differ", i)
		}
		for f := range a[i].Pred {
			if !a[i].Pred[f].Equal(b[i].Pred[f]) {
				t.Fatalf("row %d field %d: %v vs %v", i, f, a[i].Pred[f], b[i].Pred[f])
			}
		}
	}
}

func cloneRows(ds []Discrepancy) []Discrepancy {
	out := make([]Discrepancy, len(ds))
	for i, d := range ds {
		out[i] = Discrepancy{Pred: d.Pred.Clone(), A: d.A, B: d.B}
	}
	return out
}
