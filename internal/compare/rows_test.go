package compare

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// mergeRowsByteKey is mergeRows as it was before rows were merged in
// one pass (rowSet.merge), kept verbatim as the reference the new merge
// is pinned to.
//
// mergeRows coalesces rows that are identical in their decision and in
// every field but one, unioning the differing field. Shaping slices the
// packet space finely (e.g. "port != 25" becomes the two paths [0,24]
// and [26,65535]); merging restores the human-readable rows the paper
// shows in Table 3. It iterates field by field to a fixpoint.
//
// The decision is the merge key's only decision part, so a caller
// encodes whatever identifies a row's outcome into it injectively: the
// pair code a<<pairShift | b for a pair diff, the interned vector id for
// DiffN.
func mergeRowsByteKey(numFields int, rows []rule.Rule) []rule.Rule {
	if len(rows) <= 1 {
		return rows
	}
	// keyBuf is reused across every row and round; keys[i] caches row
	// i's group key so it is computed exactly once per (row, field).
	var keyBuf []byte
	keys := make([]string, len(rows))
	changed := true
	for changed {
		changed = false
		// Merge the last (most specific) fields first: coalescing e.g. the
		// protocol split before the source split is what recovers the
		// paper's Table 3 rows rather than an equally-minimal but less
		// natural partition.
		for f := numFields - 1; f >= 0; f-- {
			groups := make(map[string][]int, len(rows))
			keys = keys[:0]
			for i, r := range rows {
				keyBuf = appendMergeKey(keyBuf[:0], r, f)
				key := string(keyBuf)
				keys = append(keys, key)
				groups[key] = append(groups[key], i)
			}
			if len(groups) == len(rows) {
				continue // nothing to merge on this field
			}
			merged := make([]rule.Rule, 0, len(groups))
			for i, r := range rows {
				idxs := groups[keys[i]]
				if idxs[0] != i {
					continue // folded into an earlier row
				}
				out := rule.Rule{Pred: r.Pred.Clone(), Decision: r.Decision}
				for _, j := range idxs[1:] {
					out.Pred[f] = out.Pred[f].Union(rows[j].Pred[f])
					changed = true
				}
				merged = append(merged, out)
			}
			rows = merged
		}
	}
	return rows
}

// appendMergeKey appends a binary serialization of the row's decision
// and all fields except f to b. Set.AppendKey's count-prefixed encoding
// keeps concatenated fields uniquely decodable, so equal keys imply
// equal rows; building one allocates nothing beyond the reused buffer.
func appendMergeKey(b []byte, r rule.Rule, f int) []byte {
	b = binary.AppendVarint(b, int64(r.Decision))
	for i, s := range r.Pred {
		if i == f {
			continue
		}
		b = s.AppendKey(b)
	}
	return b
}

// pairRowsReference is pairRows as it was before rows came in one pass:
// every path of the diagram as a rule, the agreeing ones filtered out,
// the rest merged by mergeRowsByteKey. It also returns how many
// differing paths it merged.
func pairRowsReference(diff *fdd.FDD) ([]Discrepancy, int) {
	rows := diff.Rules()
	differ := rows[:0]
	for _, r := range rows {
		if r.Decision>>pairShift != r.Decision&(1<<pairShift-1) {
			differ = append(differ, r)
		}
	}
	enumerated := len(differ)
	var out []Discrepancy
	for _, r := range mergeRowsByteKey(diff.Schema.NumFields(), differ) {
		out = append(out, Discrepancy{Pred: r.Pred, A: r.Decision >> pairShift, B: r.Decision & (1<<pairShift - 1)})
	}
	return out, enumerated
}

// directDiagram is the pair difference diagram of fa and fb as
// DiffFDDsDirect builds it.
func directDiagram(tb testing.TB, fa, fb *fdd.FDD) *fdd.FDD {
	tb.Helper()
	diff, err := newPairWalker().run(context.Background(), fa, fb)
	if err != nil {
		tb.Fatal(err)
	}
	return diff
}

// lockstepDiagram is the pair difference diagram of fa and fb as the
// sequential lockstep walk builds it. Unlike the direct walk's, it keeps
// one terminal per agreeing decision, so whole subtrees can agree.
func lockstepDiagram(tb testing.TB, fa, fb *fdd.FDD) *fdd.FDD {
	tb.Helper()
	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		tb.Fatal(err)
	}
	w := newCmpWalker(context.Background(), sa.Schema)
	return w.st.Diagram(sa.Schema, w.walk(sa.Root, sb.Root))
}

// coldPairs is the diff-cold shape: 16 RealLife(661) bases, each
// against a 25% perturbation of itself, constructed once per test
// binary.
var coldPairs = sync.OnceValues(func() ([][2]*fdd.FDD, error) {
	pairs := make([][2]*fdd.FDD, 16)
	for k := range pairs {
		base := synth.RealLife(661, int64(k+1))
		other, _ := synth.Perturb(base, 25, int64(500+k))
		for i, p := range []*rule.Policy{base, other} {
			f, err := fdd.Construct(p)
			if err != nil {
				return nil, fmt.Errorf("base %d: %w", k+1, err)
			}
			pairs[k][i] = f
		}
	}
	return pairs, nil
})

// coldDiagrams returns the direct difference diagrams of coldPairs.
func coldDiagrams(tb testing.TB) []*fdd.FDD {
	tb.Helper()
	pairs, err := coldPairs()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*fdd.FDD, len(pairs))
	for k, p := range pairs {
		out[k] = directDiagram(tb, p[0], p[1])
	}
	return out
}

// assertPairRowsMatchReference fails unless pairRows lists exactly the
// reference's rows, decisions and order included, from as many differing
// paths. It returns the row count.
func assertPairRowsMatchReference(t *testing.T, name string, diff *fdd.FDD) int {
	t.Helper()
	got, st, err := pairRows(context.Background(), diff)
	if err != nil {
		t.Fatal(err)
	}
	want, enumerated := pairRowsReference(diff)
	if !reflect.DeepEqual(got, want) {
		first := min(len(got), len(want))
		for i := 0; i < first; i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				first = i
				break
			}
		}
		t.Fatalf("%s: rows differ (got %d, reference %d, first difference at row %d)",
			name, len(got), len(want), first)
	}
	if st.enumerated != enumerated {
		t.Fatalf("%s: %d rows enumerated, reference merged %d", name, st.enumerated, enumerated)
	}
	return len(got)
}

// TestPairRowsMatchReference pins the one-pass rows to the path
// enumeration, filter and merge they replaced, on the diff-cold pairs
// (direct diagrams), the cross-compare teams and the adversarial
// policies (direct and lockstep diagrams).
func TestPairRowsMatchReference(t *testing.T) {
	t.Parallel()
	rows := 0
	both := func(name string, fa, fb *fdd.FDD) {
		rows += assertPairRowsMatchReference(t, name+" direct", directDiagram(t, fa, fb))
		rows += assertPairRowsMatchReference(t, name+" lockstep", lockstepDiagram(t, fa, fb))
	}
	for k, teams := range crossCompareTeams(t) {
		for i := range teams {
			for j := i + 1; j < len(teams); j++ {
				both(fmt.Sprintf("base %d team%d/team%d", k+1, i+1, j+1), teams[i], teams[j])
			}
		}
	}
	for n := 8; n <= 16; n += 4 {
		a := synth.Adversarial(n)
		b, _ := synth.Perturb(a, 30, int64(n))
		both(fmt.Sprintf("adversarial(%d) perturbed", n), mustConstruct(t, a), mustConstruct(t, b))
	}
	if !testing.Short() {
		for k, diff := range coldDiagrams(t) {
			rows += assertPairRowsMatchReference(t, fmt.Sprintf("reallife(661) base %d", k+1), diff)
		}
	}
	requireRows(t, rows)
}

// TestMergeRowsKeyCollisions forces every group key to one value, so
// every row probes one chain and grouping rests on the equality check
// alone; the merge must still match the reference, as it does with
// real keys.
func TestMergeRowsKeyCollisions(t *testing.T) {
	t.Parallel()
	collide := func(uint64) uint64 { return 42 }
	merged := 0
	for _, teams := range crossCompareTeams(t)[:2] {
		for i := range teams {
			for j := i + 1; j < len(teams); j++ {
				diff := directDiagram(t, teams[i], teams[j])
				var differ []rule.Rule
				for _, r := range diff.Rules() {
					if r.Decision != agreeTerminal {
						differ = append(differ, r)
					}
				}
				nf := diff.Schema.NumFields()
				want := mergeRowsByteKey(nf, differ)
				for _, override := range []func(uint64) uint64{nil, collide} {
					got := mergeRuleRows(nf, differ, override)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("team%d/team%d (override %v): %d rows, reference %d",
							i+1, j+1, override != nil, len(got), len(want))
					}
				}
				merged += len(differ) - len(want)
			}
		}
	}
	if merged == 0 {
		t.Fatal("no pair had rows to merge")
	}
}

// TestPairRowsAllocs pins what the rows of the 16 diff-cold pairs
// allocate in the steady state, summed: each union allocates its
// result, and the survivors take one predicate slab and one row slice;
// the enumeration and the merge tables live in pooled working sets.
// The reference allocated about 5,080 times per pair.
func TestPairRowsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("661-rule pairs take seconds")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop working sets at random")
	}
	total := 0.0
	for _, diff := range coldDiagrams(t) {
		total += testing.AllocsPerRun(3, func() { pairRows(context.Background(), diff) })
	}
	if total > pairRowsAllocLimit {
		t.Fatalf("pairRows allocates %.0f times over the 16 diff-cold pairs, want at most %d",
			total, pairRowsAllocLimit)
	}
}

// pairRowsAllocLimit bounds TestPairRowsAllocs: 3,433 allocations
// measured (215 per pair), plus room for a working set lost from the
// pool to a collection between runs.
const pairRowsAllocLimit = 3600

// BenchmarkPairRows turns the difference diagrams of the diff-cold pairs
// into report rows, one pair per op in turn: in one pass, and the
// reference way (all paths as rules, filtered, merged by byte keys).
func BenchmarkPairRows(b *testing.B) {
	diffs := coldDiagrams(b)
	b.Run("onePass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			pairRows(context.Background(), diffs[i%len(diffs)])
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			pairRowsReference(diffs[i%len(diffs)])
		}
	})
}

func mustConstruct(tb testing.TB, p *rule.Policy) *fdd.FDD {
	tb.Helper()
	f, err := fdd.Construct(p)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}
