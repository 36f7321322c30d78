package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"diversefw/internal/api"
	"diversefw/internal/impact"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// Workload names, as --workload takes them.
const (
	wlDiffCold     = "diff-cold"
	wlDiffWarm     = "diff-warm"
	wlImpactEdit   = "impact-edit"
	wlCrossCompare = "crosscompare"
)

var workloadNames = []string{wlDiffCold, wlDiffWarm, wlImpactEdit, wlCrossCompare}

// Input sizes. 661 rules is the paper's larger real-life firewall; the
// perturbation ranges are its Fig. 12 sweep (diffs) and a milder one for
// the N-team cross comparison, whose 15 pairs per op must stay short
// enough for a run to hold several hundred ops: at 60 rules a 20 s run
// held 140, and their spread in cost left p90 spreading by 0.14 over
// ten seeds.
const (
	realLifeRules  = 661
	warmPairs      = 16
	crossRules     = 40
	crossTeams     = 6
	editRepeatEach = 8
)

type opKind int

const (
	opDiff   opKind = iota // POST /v1/diff
	opImpact               // POST /v1/impact with edits
	opCross                // POST /v1/crosscompare
	opJob                  // POST /v1/jobs, then poll GET /v1/jobs/{id}
)

func (k opKind) String() string {
	return [...]string{"diff", "impact", "crosscompare", "job"}[k]
}

// op is one generated request. The server sees only the body; the
// generator parameters stay here for the oracle.
type op struct {
	kind opKind
	// parts concatenate to the request body. Impact ops share the large
	// before-policy prefix instead of each holding a copy.
	parts [][]byte
	// key groups ops that send the same request: their answers must
	// carry the same rows.
	key int
	// policies regenerates the policies the answer is about: diff a, b;
	// impact before, after; crosscompare and job the teams in order.
	policies func() []*rule.Policy
}

func (o *op) body() []byte {
	var n int
	for _, p := range o.parts {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for _, p := range o.parts {
		b = append(b, p...)
	}
	return b
}

// schedule is a workload's whole input: the set-up ops (priming and
// warmup, untimed) and the measured ops in the order they are sent.
type schedule struct {
	workload string
	prime    []*op
	ops      []*op
}

// opsPerSecond sizes each schedule: a run of --seconds sends
// opsPerSecond x seconds measured ops, all of them, however fast the
// server answers. The rates are a little below what the code answered
// when the benchmark was set, at the host reference's nominal speed
// (speed.go), so the rounds then took a little under --seconds; a
// faster server ends sooner.
var opsPerSecond = map[string]float64{
	wlDiffCold:     5,
	wlDiffWarm:     60,
	wlImpactEdit:   20,
	wlCrossCompare: 18,
}

// newSchedule generates a workload's schedule: a pure function of
// (workload, seed, n). Op i depends only on (workload, seed, i), so a
// longer schedule extends a shorter one.
func newSchedule(workload string, seed int64, n int) (*schedule, error) {
	switch workload {
	case wlDiffCold:
		return diffColdSchedule(seed, n), nil
	case wlDiffWarm:
		return diffWarmSchedule(seed, n), nil
	case wlImpactEdit:
		return impactSchedule(seed, n), nil
	case wlCrossCompare:
		return crossSchedule(seed, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// subSeed derives an independent seed for one stream and index, so
// every op draws its own parameters.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write([]byte(stream))
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

func text(p *rule.Policy) api.PolicyInput { return api.PolicyInput{Text: rule.FormatPolicy(p)} }

// spread is op i's position in [0, 1) along a golden-ratio sequence with
// a seeded start: uniform over the whole schedule like a random draw,
// but evenly spread over any run of consecutive ops, so every round
// samples the whole perturbation range and rounds differ less.
func spread(seed int64, stream string, i int) float64 {
	u0 := float64(subSeed(seed, stream+"/spread", 0)%1_000_003) / 1_000_003
	_, frac := math.Modf(u0 + float64(i)*0.6180339887498949)
	return frac
}

// basePool is how many base firewalls the diff and crosscompare
// workloads perturb. The pool is the same for every seed, as the paper
// perturbs one real firewall; the seed draws the perturbations, the
// edits and their order. Bases differ in cost by several times, so
// letting the seed pick them made a run's figures track the base drawn
// rather than the code measured.
const basePool = 8

// basePolicies returns the pool of real-life-shaped bases of the given
// size.
func basePolicies(rules int) []*rule.Policy {
	out := make([]*rule.Policy, basePool)
	for k := range out {
		out[k] = synth.RealLife(rules, int64(k+1))
	}
	return out
}

// diffPair is the paper's Fig. 12 pair: a fresh variant a of a pool base
// (1-5% of its rules perturbed, so no two ops share a policy and every
// compilation misses) against a perturbation of x% of a's rules, x = 5 +
// 45u for u in [0, 1).
func diffPair(base *rule.Policy, seed int64, u float64) func() []*rule.Policy {
	r := rand.New(rand.NewSource(seed))
	xa, pa, x, pb := 1+4*r.Float64(), r.Int63(), 5+u*45, r.Int63()
	return func() []*rule.Policy {
		a, _ := synth.Perturb(base, xa, pa)
		b, _ := synth.Perturb(a, x, pb)
		return []*rule.Policy{a, b}
	}
}

func diffOp(pols func() []*rule.Policy, key int) *op {
	ps := pols()
	body := mustJSON(api.DiffRequest{Schema: "five", A: text(ps[0]), B: text(ps[1])})
	return &op{kind: opDiff, parts: [][]byte{body}, key: key, policies: pols}
}

// diffColdSchedule sends a fresh pair per op, cycling over the bases so
// every round weighs them alike.
func diffColdSchedule(seed int64, n int) *schedule {
	s := &schedule{workload: wlDiffCold}
	bases := basePolicies(realLifeRules)
	for i := 0; i < 2; i++ {
		s.prime = append(s.prime, diffOp(diffPair(bases[i], subSeed(seed, "diff-cold/warmup", i), spread(seed, "diff-cold/warmup", i)), -1-i))
	}
	for i := 0; i < n; i++ {
		s.ops = append(s.ops, diffOp(diffPair(bases[i%basePool], subSeed(seed, "diff-cold", i), spread(seed, "diff-cold", i)), i))
	}
	return s
}

// diffWarmSchedule primes 16 pairs once and then cycles over them in a
// seeded order: the working set fits both engine caches, so every
// measured op is a hit. The 16 pairs are the same for every seed, which
// only sets the order. A hit's cost grows with the rows it encodes, and
// 16 pairs drawn per seed carried from 1.6k to 2.9k rows in all, which
// moved the whole workload by up to 20%.
func diffWarmSchedule(seed int64, n int) *schedule {
	s := &schedule{workload: wlDiffWarm}
	bases := basePolicies(realLifeRules)
	pairs := make([]*op, warmPairs)
	for k := range pairs {
		u := (float64(k) + 0.5) / warmPairs
		pairs[k] = diffOp(diffPair(bases[k%basePool], subSeed(0, "diff-warm/pair", k), u), k)
	}
	// Priming fills the caches; a second pass warms the hit path.
	s.prime = append(append(s.prime, pairs...), pairs...)
	order := rand.New(rand.NewSource(subSeed(seed, "diff-warm", 0))).Perm(warmPairs)
	for i := 0; i < n; i++ {
		s.ops = append(s.ops, pairs[order[i%warmPairs]])
	}
	return s
}

// impactSchedule edits one resident base, the pool's first. Each op
// carries 1-3 edits at positions uniform over the non-catch-all rules;
// every 8th op repeats an earlier op's script, for the engine's
// derived-from edge and its "inc|" report namespace.
func impactSchedule(seed int64, n int) *schedule {
	s := &schedule{workload: wlImpactEdit}
	bases := basePolicies(realLifeRules)
	base, donor := bases[0], bases[1]
	prefix := mustJSON(api.ImpactRequest{Schema: "five", Before: text(base)})
	// The request is {"schema":..,"before":..} with the edits spliced in
	// before the closing brace.
	head := append(prefix[:len(prefix)-1:len(prefix)-1], []byte(`,"edits":`)...)
	tail := []byte("}")
	mk := func(edits []impact.Edit, key int) *op {
		lines := make([]string, len(edits))
		for i, e := range edits {
			lines[i] = impact.FormatEdit(base.Schema, e)
		}
		return &op{kind: opImpact, parts: [][]byte{head, mustJSON(lines), tail}, key: key,
			policies: func() []*rule.Policy { return []*rule.Policy{base, applyEdits(base, edits)} }}
	}
	for i := 0; i < 8; i++ {
		r := rand.New(rand.NewSource(subSeed(seed, "impact-edit/warmup", i)))
		s.prime = append(s.prime, mk(randomEdits(r, base, donor, spread(seed, "impact-edit/warmup", i)), -1-i))
	}
	for i := 0; i < n; i++ {
		r := rand.New(rand.NewSource(subSeed(seed, "impact-edit", i)))
		if i%editRepeatEach == editRepeatEach-1 {
			s.ops = append(s.ops, s.ops[r.Intn(i)])
			continue
		}
		s.ops = append(s.ops, mk(randomEdits(r, base, donor, spread(seed, "impact-edit", i)), i))
	}
	return s
}

// randomEdits draws 1-3 replace/delete/insert/swap edits, each at a
// position uniform over the current non-catch-all rules, so the
// catch-all stays last and the edited policy stays comprehensive. The
// first edit's position is u's share of the way down the policy: the
// earliest edit sets how much a resume replays, and spreading it keeps
// every round's mix of cheap and costly edits alike.
func randomEdits(r *rand.Rand, base, donor *rule.Policy, u float64) []impact.Edit {
	size := base.Size()
	edits := make([]impact.Edit, 1+r.Intn(3))
	for k := range edits {
		pos := int(u * float64(size-1))
		if k > 0 {
			pos = r.Intn(size - 1)
		}
		payload := donor.Rules[r.Intn(donor.Size()-1)]
		switch r.Intn(4) {
		case 0:
			edits[k] = impact.Edit{Kind: impact.ReplaceRule, Index: pos, Rule: payload}
		case 1:
			edits[k] = impact.Edit{Kind: impact.DeleteRule, Index: pos}
			size--
		case 2:
			edits[k] = impact.Edit{Kind: impact.InsertRule, Index: pos, Rule: payload}
			size++
		default:
			j := r.Intn(size - 1)
			if j == pos {
				j = (j + 1) % (size - 1)
			}
			edits[k] = impact.Edit{Kind: impact.SwapRules, Index: pos, J: j}
		}
	}
	return edits
}

// applyEdits is the oracle's own reading of an edit script, built on
// the rule.Policy edit primitives rather than on impact.Apply.
func applyEdits(p *rule.Policy, edits []impact.Edit) *rule.Policy {
	cur := p
	for _, e := range edits {
		var err error
		switch e.Kind {
		case impact.ReplaceRule:
			cur, err = cur.ReplaceRule(e.Index, e.Rule)
		case impact.DeleteRule:
			cur, err = cur.DeleteRule(e.Index)
		case impact.InsertRule:
			cur, err = cur.InsertRule(e.Index, e.Rule)
		case impact.SwapRules:
			cur, err = cur.SwapRules(e.Index, e.J)
		}
		if err != nil {
			panic(err) // randomEdits keeps every position in range
		}
	}
	return cur
}

// teamName names the i-th (0-based) policy of a cross comparison.
func teamName(i int) string { return fmt.Sprintf("team%d", i+1) }

// crossSchedule is the paper's N-team design: each op compares six fresh
// perturbations of a pool base, 15 pairs, cycling over the bases. Team
// t's x is uniform in [5+5t, 10+5t], so every op spans [5, 35] evenly.
// Even ops use the synchronous endpoint, odd ops submit a job and poll
// it.
func crossSchedule(seed int64, n int) *schedule {
	s := &schedule{workload: wlCrossCompare}
	bases := basePolicies(crossRules)
	mk := func(base *rule.Policy, sd int64, kind opKind, key int) *op {
		r := rand.New(rand.NewSource(sd))
		xs := make([]float64, crossTeams)
		perts := make([]int64, crossTeams)
		for t := range xs {
			xs[t], perts[t] = 5+float64(t)*5+r.Float64()*5, r.Int63()
		}
		pols := func() []*rule.Policy {
			out := make([]*rule.Policy, crossTeams)
			for t := range out {
				out[t], _ = synth.Perturb(base, xs[t], perts[t])
			}
			return out
		}
		named := make([]api.NamedPolicy, crossTeams)
		for t, p := range pols() {
			named[t] = api.NamedPolicy{Name: teamName(t), Policy: text(p)}
		}
		var body []byte
		if kind == opCross {
			body = mustJSON(api.CrossCompareRequest{Schema: "five", Policies: named})
		} else {
			body = mustJSON(api.JobSubmitRequest{Kind: "crosscompare", Schema: "five", Policies: named})
		}
		return &op{kind: kind, parts: [][]byte{body}, key: key, policies: pols}
	}
	kindOf := func(i int) opKind {
		if i%2 == 0 {
			return opCross
		}
		return opJob
	}
	for i := 0; i < 2; i++ {
		s.prime = append(s.prime, mk(bases[i], subSeed(seed, "crosscompare/warmup", i), kindOf(i), -1-i))
	}
	for i := 0; i < n; i++ {
		s.ops = append(s.ops, mk(bases[i%basePool], subSeed(seed, "crosscompare", i), kindOf(i), i))
	}
	return s
}

// digest fingerprints the schedule: every op's kind and body, set-up ops
// first. Two runs with equal digests sent the same inputs.
func (s *schedule) digest() string {
	h := sha256.New()
	for _, list := range [][]*op{s.prime, s.ops} {
		for _, o := range list {
			fmt.Fprintf(h, "%s %d\n", o.kind, o.key)
			for _, p := range o.parts {
				h.Write(p)
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
