package compare

import (
	"testing"

	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// fuzzRows decodes data into numFields (2 or 3) and a pile of rows over
// [0, 15] per field. Each row takes one decision byte and two bytes per
// field: the first is an interval (low nibble start, high nibble
// length), the second, when odd, adds a second interval to the field's
// set. Small domains and few decisions make merges common.
func fuzzRows(data []byte) (numFields int, preds []rule.Predicate, codes []byte) {
	if len(data) == 0 {
		return 2, nil, nil
	}
	numFields = 2 + int(data[0]%2)
	data = data[1:]
	span := func(b byte) interval.Interval {
		lo := uint64(b & 15)
		hi := lo + uint64(b>>4)
		if hi > 15 {
			hi = 15
		}
		return interval.MustNew(lo, hi)
	}
	for len(data) >= 1+2*numFields && len(preds) < 64 {
		pred := make(rule.Predicate, numFields)
		for f := range pred {
			a, b := data[1+2*f], data[2+2*f]
			if b&1 == 1 {
				pred[f] = interval.NewSet(span(a), span(b>>1))
			} else {
				pred[f] = interval.NewSet(span(a))
			}
		}
		preds = append(preds, pred)
		codes = append(codes, data[0])
		data = data[1+2*numFields:]
	}
	return numFields, preds, codes
}

func sameRows(t *testing.T, kind string, got, want []rule.Predicate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rows: %d merged rows, reference %d", kind, len(got), len(want))
	}
	for i := range got {
		for f := range got[i] {
			if !got[i][f].Equal(want[i][f]) {
				t.Fatalf("%s row %d field %d: %v, reference %v", kind, i, f, got[i][f], want[i][f])
			}
		}
	}
}

// FuzzMergeRowsMatchesReference holds the one-pass merge (rowSet.merge)
// to the three merges before it, on arbitrary row sets: to
// mergeRowsByteKey on both kinds of rows, with real group keys and with
// every key forced to one value; pair rows (keyed by the pair code) to
// the string-key pair merge; and N-way rows (keyed by an interned
// vector id, as DiffN does) to mergeN. Plain go test runs it over the
// seed corpus.
func FuzzMergeRowsMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0x40, 0, 0x07, 0, 1, 0x45, 0, 0x07, 0})
	f.Add([]byte{1, 5, 0x30, 0, 0x11, 0, 0x22, 0, 5, 0x34, 0, 0x11, 0, 0x22, 0, 5, 0x00, 0, 0xf2, 0, 0x22, 0})
	f.Add([]byte{0, 2, 0x20, 3, 0x10, 0, 2, 0x23, 0, 0x10, 0, 3, 0x20, 3, 0x12, 0, 2, 0xf0, 0, 0x13, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		numFields, preds, codes := fuzzRows(data)

		// Pair rows: A and B from the low and high bits of the code.
		var pairRowsIn []rule.Rule
		var pairRef []Discrepancy
		for i, c := range codes {
			a, b := rule.Decision(1+c&3), rule.Decision(1+c>>2&3)
			pairRowsIn = append(pairRowsIn, rule.Rule{Pred: preds[i].Clone(), Decision: a<<pairShift | b})
			pairRef = append(pairRef, Discrepancy{Pred: preds[i].Clone(), A: a, B: b})
		}
		got := mergeRuleRows(numFields, pairRowsIn, nil)
		sameAsByteKey(t, "pair", numFields, pairRowsIn, got)
		want := mergeDiscrepanciesStringKey(numFields, pairRef)
		var gotPreds, wantPreds []rule.Predicate
		for i := range got {
			if i < len(want) && (got[i].Decision>>pairShift != want[i].A || got[i].Decision&(1<<pairShift-1) != want[i].B) {
				t.Fatalf("pair row %d: decision %d/%d, reference %v/%v", i,
					got[i].Decision>>pairShift, got[i].Decision&(1<<pairShift-1), want[i].A, want[i].B)
			}
			gotPreds = append(gotPreds, got[i].Pred)
		}
		for _, d := range want {
			wantPreds = append(wantPreds, d.Pred)
		}
		sameRows(t, "pair", gotPreds, wantPreds)

		// N-way rows: a three-decision vector from the code's low bits,
		// interned to a synthetic decision.
		ids := map[string]rule.Decision{}
		vectors := [][]rule.Decision{nil}
		var nRowsIn []rule.Rule
		var nRef []NDiscrepancy
		for i, c := range codes {
			vec := []rule.Decision{rule.Decision(1 + c&1), rule.Decision(1 + c>>1&1), rule.Decision(1 + c>>2&1)}
			id, ok := ids[vecKey(vec)]
			if !ok {
				id = rule.Decision(len(vectors))
				ids[vecKey(vec)] = id
				vectors = append(vectors, vec)
			}
			nRowsIn = append(nRowsIn, rule.Rule{Pred: preds[i].Clone(), Decision: id})
			nRef = append(nRef, NDiscrepancy{Pred: preds[i].Clone(), Decisions: vec})
		}
		gotN := mergeRuleRows(numFields, nRowsIn, nil)
		sameAsByteKey(t, "N-way", numFields, nRowsIn, gotN)
		wantN := mergeN(numFields, nRef)
		gotPreds, wantPreds = nil, nil
		for i := range gotN {
			if i < len(wantN) && vecKey(vectors[gotN[i].Decision]) != vecKey(wantN[i].Decisions) {
				t.Fatalf("N-way row %d: decisions %v, reference %v", i, vectors[gotN[i].Decision], wantN[i].Decisions)
			}
			gotPreds = append(gotPreds, gotN[i].Pred)
		}
		for _, d := range wantN {
			wantPreds = append(wantPreds, d.Pred)
		}
		sameRows(t, "N-way", gotPreds, wantPreds)
	})
}

// sameAsByteKey fails unless got, rows merged by rowSet.merge, equals
// mergeRowsByteKey's merge of rows, and unless merging rows again with
// every group key colliding gives the same.
func sameAsByteKey(t *testing.T, kind string, numFields int, rows, got []rule.Rule) {
	t.Helper()
	want := mergeRowsByteKey(numFields, rows)
	collided := mergeRuleRows(numFields, rows, func(uint64) uint64 { return 7 })
	for name, rs := range map[string][]rule.Rule{"": got, " (colliding keys)": collided} {
		if len(rs) != len(want) {
			t.Fatalf("%s rows%s: %d merged rows, byte-key reference %d", kind, name, len(rs), len(want))
		}
		for i := range rs {
			if rs[i].Decision != want[i].Decision {
				t.Fatalf("%s row %d%s: decision %d, byte-key reference %d", kind, i, name, rs[i].Decision, want[i].Decision)
			}
		}
		var gotPreds, wantPreds []rule.Predicate
		for i := range rs {
			gotPreds = append(gotPreds, rs[i].Pred)
			wantPreds = append(wantPreds, want[i].Pred)
		}
		sameRows(t, kind+name, gotPreds, wantPreds)
	}
}
