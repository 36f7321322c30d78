package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"diversefw/internal/api"
	"diversefw/internal/field"
	"diversefw/internal/packet"
	"diversefw/internal/rule"
)

// oraclePackets is how many biased packets the oracle sends through
// each compared pair.
const oraclePackets = 256

// verdict is the oracle's judgement of one answer.
type verdict struct {
	rows int
	// canon renders the answer's rows; answers to the same request must
	// render identically.
	canon string
	err   error
}

// checkAnswer decodes a 2xx answer to o and checks it against the
// policies o was generated from.
func checkAnswer(o *op, body []byte) verdict {
	pols := o.policies()
	r := rand.New(rand.NewSource(int64(o.key)))
	switch o.kind {
	case opDiff:
		var resp api.DiffResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return verdict{err: fmt.Errorf("decode diff: %w", err)}
		}
		if resp.Equivalent != (len(resp.Discrepancies) == 0) {
			return verdict{err: fmt.Errorf("equivalent=%v with %d rows", resp.Equivalent, len(resp.Discrepancies))}
		}
		return verdict{rows: len(resp.Discrepancies), canon: canonical(resp.Discrepancies),
			err: checkRows(r, resp.Discrepancies, pols[0], pols[1])}
	case opImpact:
		var resp api.ImpactResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return verdict{err: fmt.Errorf("decode impact: %w", err)}
		}
		rows := make([]api.Discrepancy, len(resp.Attributions))
		for i, a := range resp.Attributions {
			rows[i] = a.Region
		}
		v := verdict{rows: len(rows), canon: canonical(resp.Attributions)}
		if resp.NoImpact != (len(rows) == 0) {
			v.err = fmt.Errorf("noImpact=%v with %d rows", resp.NoImpact, len(rows))
		} else if v.err = checkRows(r, rows, pols[0], pols[1]); v.err == nil {
			v.err = checkAttribution(resp.Attributions, pols[0], pols[1])
		}
		return v
	case opCross:
		var resp api.CrossCompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return verdict{err: fmt.Errorf("decode crosscompare: %w", err)}
		}
		if resp.FailedPairs != 0 {
			return verdict{err: fmt.Errorf("%d failed pairs", resp.FailedPairs)}
		}
		pairs := make([]pairRows, len(resp.Pairs))
		for i, p := range resp.Pairs {
			if p.Error != nil {
				return verdict{err: fmt.Errorf("pair %s/%s: %s", p.A, p.B, p.Error.Message)}
			}
			pairs[i] = pairRows{A: p.A, B: p.B, Equivalent: p.Equivalent, Rows: p.Discrepancies}
		}
		return checkPairs(r, pairs, pols)
	case opJob:
		var resp api.JobStatusResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return verdict{err: fmt.Errorf("decode job: %w", err)}
		}
		if resp.State != "completed" || resp.Progress.OK != resp.Progress.Total {
			return verdict{err: fmt.Errorf("job %s: state %s, %d/%d pairs ok", resp.ID, resp.State, resp.Progress.OK, resp.Progress.Total)}
		}
		pairs := make([]pairRows, len(resp.Pairs))
		for i, p := range resp.Pairs {
			if p.Status != "ok" || p.Equivalent == nil {
				return verdict{err: fmt.Errorf("job pair %s/%s: status %s", p.A, p.B, p.Status)}
			}
			pairs[i] = pairRows{A: p.A, B: p.B, Equivalent: *p.Equivalent, Rows: p.Discrepancies}
		}
		return checkPairs(r, pairs, pols)
	}
	return verdict{err: fmt.Errorf("unknown op kind %d", o.kind)}
}

// pairRows is one cell of a cross-comparison answer, sync or job.
type pairRows struct {
	A, B       string
	Equivalent bool
	Rows       []api.Discrepancy
}

// checkPairs checks a full N-team matrix: every unordered pair exactly
// once, each against its two policies.
func checkPairs(r *rand.Rand, pairs []pairRows, pols []*rule.Policy) verdict {
	v := verdict{canon: canonical(pairs)}
	index := make(map[string]int, len(pols))
	for i := range pols {
		index[teamName(i)] = i
	}
	seen := make(map[[2]int]bool)
	for _, p := range pairs {
		i, okA := index[p.A]
		j, okB := index[p.B]
		if !okA || !okB || i == j || seen[[2]int{i, j}] || seen[[2]int{j, i}] {
			v.err = fmt.Errorf("unexpected pair %s/%s", p.A, p.B)
			return v
		}
		seen[[2]int{i, j}] = true
		if p.Equivalent != (len(p.Rows) == 0) {
			v.err = fmt.Errorf("pair %s/%s: equivalent=%v with %d rows", p.A, p.B, p.Equivalent, len(p.Rows))
			return v
		}
		if err := checkRows(r, p.Rows, pols[i], pols[j]); err != nil {
			v.err = fmt.Errorf("pair %s/%s: %w", p.A, p.B, err)
			return v
		}
		v.rows += len(p.Rows)
	}
	if want := len(pols) * (len(pols) - 1) / 2; len(pairs) != want {
		v.err = fmt.Errorf("%d pairs, want %d", len(pairs), want)
	}
	return v
}

// checkRows is the packet oracle for one compared pair. Each row must
// decide as it claims at a point sampled inside it, and for biased
// packets drawn inside the rules of either policy, a packet lies in some
// row exactly when a and b decide it differently. The first check
// catches a wrong row, the second a missing or overreaching one.
func checkRows(r *rand.Rand, rows []api.Discrepancy, a, b *rule.Policy) error {
	schema := a.Schema
	preds := make([]rule.Predicate, len(rows))
	for i, row := range rows {
		pred, da, db, err := parseRow(schema, row)
		if err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		if da == db {
			return fmt.Errorf("row %d: both sides %s", i+1, da)
		}
		pkt := pointIn(r, pred)
		ga, _, oka := a.Decide(pkt)
		gb, _, okb := b.Decide(pkt)
		if !oka || !okb || ga != da || gb != db {
			return fmt.Errorf("row %d claims %s/%s, policies decide %s/%s at %v", i+1, da, db, ga, gb, pkt)
		}
		preds[i] = pred
	}
	sm := packet.NewSampler(schema, r.Int63())
	for k := 0; k < oraclePackets; k++ {
		pkt := sm.BiasedPair(a, b)
		in := false
		for _, p := range preds {
			if p.Matches(pkt) {
				in = true
				break
			}
		}
		if disagree := !packet.Agree(a, b, pkt); in != disagree {
			return fmt.Errorf("packet %v: in a row=%v, policies disagree=%v", pkt, in, disagree)
		}
	}
	return nil
}

// checkAttribution checks the 1-based deciding rules an impact answer
// names, at the region's lower corner where the server takes its
// witness.
func checkAttribution(atts []api.Attribution, before, after *rule.Policy) error {
	for i, a := range atts {
		pred, _, _, err := parseRow(before.Schema, a.Region)
		if err != nil {
			return err
		}
		w := make(rule.Packet, len(pred))
		for f, s := range pred {
			w[f], _ = s.Min()
		}
		_, bi, _ := before.Decide(w)
		_, ai, _ := after.Decide(w)
		if bi+1 != a.BeforeRule || ai+1 != a.AfterRule {
			return fmt.Errorf("attribution %d names rules %d/%d, first matches are %d/%d", i+1, a.BeforeRule, a.AfterRule, bi+1, ai+1)
		}
	}
	return nil
}

func parseRow(schema *field.Schema, row api.Discrepancy) (rule.Predicate, rule.Decision, rule.Decision, error) {
	pred := make(rule.Predicate, schema.NumFields())
	for fi := range pred {
		f := schema.Field(fi)
		txt, ok := row.Fields[f.Name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("field %s missing", f.Name)
		}
		s, err := rule.ParseValueSet(f, txt)
		if err != nil {
			return nil, 0, 0, err
		}
		pred[fi] = s
	}
	if len(row.Fields) != len(pred) {
		return nil, 0, 0, fmt.Errorf("%d fields, schema has %d", len(row.Fields), len(pred))
	}
	da, err := rule.ParseDecision(row.A)
	if err != nil {
		return nil, 0, 0, err
	}
	db, err := rule.ParseDecision(row.B)
	return pred, da, db, err
}

// pointIn draws a packet inside the predicate: per field, a random
// interval of its set and a random value in it.
func pointIn(r *rand.Rand, pred rule.Predicate) rule.Packet {
	pkt := make(rule.Packet, len(pred))
	for f, s := range pred {
		ivs := s.Intervals()
		iv := ivs[r.Intn(len(ivs))]
		pkt[f] = iv.Lo + uint64(r.Int63n(int64(iv.Hi-iv.Lo)+1))
	}
	return pkt
}

func canonical(v interface{}) string { return string(mustJSON(v)) }

// audit is the oracle's verdict over a run's records.
type audit struct {
	measured   int // measured ops attempted
	transport  int // measured ops with a transport error or non-2xx
	mismatches int // measured ops whose answer the oracle rejected
	setupBad   int // set-up ops that failed either way
	rows       int // rows over the measured ops answered correctly
	firstErr   string
}

func (a audit) failed() int { return a.transport + a.mismatches }

// verify runs the oracle over every record once per distinct (request,
// answer), on all cores, then checks that answers to the same request
// carry the same rows.
func verify(recs []record, bodies map[[32]byte][]byte) audit {
	type memoKey struct {
		key int
		sum [32]byte
	}
	todo := make(map[memoKey]*op)
	for _, rec := range recs {
		if rec.ok() {
			todo[memoKey{rec.op.key, rec.sum}] = rec.op
		}
	}
	keys := make([]memoKey, 0, len(todo))
	for k := range todo {
		keys = append(keys, k)
	}
	verdicts := make([]verdict, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(keys); k = int(next.Add(1) - 1) {
				verdicts[k] = checkAnswer(todo[keys[k]], bodies[keys[k].sum])
			}
		}()
	}
	wg.Wait()
	memo := make(map[memoKey]verdict, len(keys))
	for k, key := range keys {
		memo[key] = verdicts[k]
	}

	var a audit
	fail := func(rec record, err error) {
		if rec.round < 0 {
			a.setupBad++
		} else if rec.ok() {
			a.mismatches++
		} else {
			a.transport++
		}
		if a.firstErr == "" {
			a.firstErr = fmt.Sprintf("%s op %d: %v", rec.op.kind, rec.op.key, err)
		}
	}
	canon := make(map[int]string)
	for _, rec := range recs {
		if rec.round >= 0 {
			a.measured++
		}
		if !rec.ok() {
			err := rec.err
			if err == nil {
				err = fmt.Errorf("HTTP %d", rec.status)
			}
			fail(rec, err)
			continue
		}
		v := memo[memoKey{rec.op.key, rec.sum}]
		if v.err != nil {
			fail(rec, v.err)
			continue
		}
		if c, seen := canon[rec.op.key]; !seen {
			canon[rec.op.key] = v.canon
		} else if c != v.canon {
			fail(rec, fmt.Errorf("rows differ from an earlier answer to the same request"))
			continue
		}
		if rec.round >= 0 {
			a.rows += v.rows
		}
	}
	return a
}
