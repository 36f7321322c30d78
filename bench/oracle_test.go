package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"testing"

	"diversefw/internal/api"
	"diversefw/internal/compare"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// smallDiff is a 40-rule pair with its true report, rendered as the
// server would answer /v1/diff.
func smallDiff(t *testing.T) (*op, api.DiffResponse) {
	t.Helper()
	pols := func() []*rule.Policy {
		a := synth.RealLife(40, 3)
		b, _ := synth.Perturb(a, 40, 4)
		return []*rule.Policy{a, b}
	}
	ps := pols()
	report, err := compare.Diff(ps[0], ps[1])
	if err != nil {
		t.Fatal(err)
	}
	resp := api.ConvertReport(ps[0].Schema, report)
	if len(resp.Discrepancies) < 2 {
		t.Fatalf("test pair has %d rows, want several", len(resp.Discrepancies))
	}
	return &op{kind: opDiff, key: 0, policies: pols}, resp
}

// largestRow is the index of the row covering the most packets: the
// one whose loss the biased packets are surest to expose.
func largestRow(t *testing.T, o *op, rows []api.Discrepancy) int {
	t.Helper()
	schema := o.policies()[0].Schema
	best, bestSize := -1, -1.0
	for i, row := range rows {
		pred, _, _, err := parseRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		size := 0.0
		for _, s := range pred {
			size += math.Log2(float64(s.Count()))
		}
		if size > bestSize {
			best, bestSize = i, size
		}
	}
	return best
}

func TestOracleAcceptsTrueReport(t *testing.T) {
	o, resp := smallDiff(t)
	if v := checkAnswer(o, mustJSON(resp)); v.err != nil {
		t.Fatalf("true report rejected: %v", v.err)
	}
}

func TestOracleRejectsFlippedRow(t *testing.T) {
	o, resp := smallDiff(t)
	row := &resp.Discrepancies[len(resp.Discrepancies)/2]
	row.A, row.B = row.B, row.A
	if v := checkAnswer(o, mustJSON(resp)); v.err == nil {
		t.Fatal("report with a flipped row accepted")
	}
}

func TestOracleRejectsDroppedRow(t *testing.T) {
	o, resp := smallDiff(t)
	i := largestRow(t, o, resp.Discrepancies)
	resp.Discrepancies = append(resp.Discrepancies[:i], resp.Discrepancies[i+1:]...)
	if v := checkAnswer(o, mustJSON(resp)); v.err == nil {
		t.Fatal("report with a dropped row accepted")
	}
}

// TestBadAnswersCountAsFailed pins that the oracle's rejections reach
// the run's failed count, and so error_rate: of four measured ops, one
// answered right, one with a flipped row, one with a dropped row, and
// one with a 500, three fail.
func TestBadAnswersCountAsFailed(t *testing.T) {
	o, resp := smallDiff(t)
	good := mustJSON(resp)
	flipped := resp
	flipped.Discrepancies = append([]api.Discrepancy(nil), resp.Discrepancies...)
	flipped.Discrepancies[0].A, flipped.Discrepancies[0].B = flipped.Discrepancies[0].B, flipped.Discrepancies[0].A
	dropped := resp
	i := largestRow(t, o, resp.Discrepancies)
	dropped.Discrepancies = append(append([]api.Discrepancy(nil), resp.Discrepancies[:i]...), resp.Discrepancies[i+1:]...)

	// Distinct keys: the oracle judges each answer on its own, not
	// against the others.
	d := newRunner(nil, "")
	add := func(key, status int, body []byte) {
		op := *o
		op.key = key
		rec := record{op: &op, status: status}
		rec.sum = sha256.Sum256(body)
		d.bodies[rec.sum] = body
		d.records = append(d.records, rec)
	}
	add(1, 200, good)
	add(2, 200, mustJSON(flipped))
	add(3, 200, mustJSON(dropped))
	add(4, 500, []byte(`{"error":{"code":"internal","message":"boom"}}`))

	a := verify(d.records, d.bodies)
	if a.measured != 4 || a.mismatches != 2 || a.transport != 1 || a.failed() != 3 {
		t.Fatalf("audit = %+v, want 4 measured, 2 mismatches, 1 transport", a)
	}
}

// TestSameRequestSameRows pins the warm check: a second answer to the
// same request must carry the rows of the first, even when each answer
// alone is a valid diff.
func TestSameRequestSameRows(t *testing.T) {
	o, resp := smallDiff(t)
	good := mustJSON(resp)
	cached := resp
	cached.Cached = true
	var reordered api.DiffResponse
	if err := json.Unmarshal(good, &reordered); err != nil {
		t.Fatal(err)
	}
	n := len(reordered.Discrepancies)
	reordered.Discrepancies[0], reordered.Discrepancies[n-1] = reordered.Discrepancies[n-1], reordered.Discrepancies[0]

	d := newRunner(nil, "")
	for round, body := range [][]byte{good, mustJSON(cached), mustJSON(reordered)} {
		rec := record{op: o, status: 200, round: round - 1, sum: sha256.Sum256(body)}
		d.bodies[rec.sum] = body
		d.records = append(d.records, rec)
	}
	a := verify(d.records, d.bodies)
	if a.mismatches != 1 {
		t.Fatalf("audit = %+v, want only the reordered answer rejected", a)
	}
}
