package compare

import (
	"fmt"
	"strings"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// mergeKeyString is the seed's fmt-based group key, retained verbatim so
// the benchmark below quantifies the switch to appendMergeKey's reused
// byte buffer, and as the reference the row merge is pinned to.
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

// mergeInput produces a realistic pile of unmerged discrepancy rows by
// diffing two synthetic policies and capturing the rows before merging.
func mergeInput(tb testing.TB) (int, []Discrepancy) {
	tb.Helper()
	pa := synth.Synthetic(synth.Config{Rules: 200, Seed: 31})
	pb := synth.Synthetic(synth.Config{Rules: 200, Seed: 32})
	r, err := Diff(pa, pb)
	if err != nil {
		tb.Fatal(err)
	}
	// The merged report rows re-split under merging pressure is not
	// reproducible; instead, use the merged rows as-is — both
	// implementations still group and scan every (row, field) pair per
	// round, which is where the key-building cost lives.
	if len(r.Discrepancies) < 10 {
		tb.Fatalf("want a meaty input, got %d rows", len(r.Discrepancies))
	}
	return pa.Schema.NumFields(), r.Discrepancies
}

// mergePairs runs pair rows through mergeRows, keyed by the pair code
// a<<pairShift | b as pairRows does.
func mergePairs(numFields int, ds []Discrepancy) []Discrepancy {
	rows := make([]rule.Rule, len(ds))
	for i, d := range ds {
		rows[i] = rule.Rule{Pred: d.Pred, Decision: d.A<<pairShift | d.B}
	}
	var out []Discrepancy
	for _, r := range mergeRows(numFields, rows) {
		out = append(out, Discrepancy{Pred: r.Pred, A: r.Decision >> pairShift, B: r.Decision & (1<<pairShift - 1)})
	}
	return out
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

func BenchmarkMergeDiscrepancies(b *testing.B) {
	numFields, ds := mergeInput(b)
	b.Run("byteKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergePairs(numFields, cloneRows(ds))
		}
	})
	b.Run("stringKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeDiscrepanciesStringKey(numFields, cloneRows(ds))
		}
	})
}
