// Package synth generates synthetic firewall policies and the paper's two
// experiment workloads.
//
// Real firewall configurations are confidential (Section 8.2.2), so the
// paper generates synthetic policies "based on the characteristics of
// real-life firewalls" reported in Gupta's measurement study [13]:
// five-tuple rules whose IP fields are CIDR prefixes drawn from a limited
// pool of subnets (real rules keep referring to the same servers and
// networks), destination ports drawn mostly from well-known services,
// protocols mostly TCP/UDP, and a trailing catch-all. This package
// implements that generator plus:
//
//   - Perturb: the Section 8.2.1 protocol for deriving a "second team's
//     version" from a policy (select x% of rules, flip the decisions of a
//     random y% of the selection, delete the rest), used by the Fig. 12
//     experiment;
//   - InjectErrors: the Section 8.1 effectiveness workload (ordering
//     errors — rules wrongly moved to the front — plus missing rules).
package synth

import (
	"math"
	"math/rand"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/rule"
)

// Config controls the synthetic generator. Zero values select defaults.
type Config struct {
	// Rules is the total rule count including the final catch-all.
	Rules int
	// Seed makes generation deterministic.
	Seed int64
	// SrcPool and DstPool bound how many distinct address blocks the
	// policy refers to (small pools mimic real configurations and keep
	// FDDs compact; Gupta observed heavy value reuse). Defaults: 24, 24.
	SrcPool, DstPool int
	// PoolSeed seeds the address-block universe. Policies that model
	// different teams (or different revisions) protecting the same network
	// must share a PoolSeed while varying Seed: the blocks a firewall
	// refers to are facts about the network, not choices of the designer.
	// Zero selects the default shared universe.
	PoolSeed int64
	// DiscardFraction is the share of non-catch-all rules that discard.
	// Default: 0.55.
	DiscardFraction float64
}

func (c Config) withDefaults() Config {
	if c.Rules <= 0 {
		c.Rules = 50
	}
	if c.SrcPool <= 0 {
		c.SrcPool = 24
	}
	if c.DstPool <= 0 {
		c.DstPool = 24
	}
	if c.PoolSeed == 0 {
		c.PoolSeed = 42
	}
	if c.DiscardFraction <= 0 {
		c.DiscardFraction = 0.55
	}
	return c
}

// wellKnownPorts are the services that dominate real-life destination
// ports in [13].
var wellKnownPorts = []uint64{20, 21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 389, 443, 445, 993, 995, 1433, 3306, 3389, 8080}

// Synthetic generates a comprehensive five-tuple policy of cfg.Rules rules
// (the last being a catch-all) with the distributions described above.
func Synthetic(cfg Config) *rule.Policy {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	schema := field.IPv4FiveTuple()

	srcPool := makeAddrPool(rand.New(rand.NewSource(cfg.PoolSeed)), cfg.SrcPool)
	dstPool := makeAddrPool(rand.New(rand.NewSource(cfg.PoolSeed+1)), cfg.DstPool)

	rules := make([]rule.Rule, 0, cfg.Rules)
	for i := 0; i < cfg.Rules-1; i++ {
		pred := rule.Predicate{
			drawAddr(r, schema, 0, srcPool),
			drawAddr(r, schema, 1, dstPool),
			drawSrcPort(r, schema),
			drawDstPort(r, schema),
			drawProto(r, schema),
		}
		d := rule.Accept
		if r.Float64() < cfg.DiscardFraction {
			d = rule.Discard
		}
		rules = append(rules, rule.Rule{Pred: pred, Decision: d})
	}
	// Real policies end in a default rule; default-deny dominates.
	last := rule.Discard
	if r.Float64() < 0.2 {
		last = rule.Accept
	}
	rules = append(rules, rule.CatchAll(schema, last))
	p, err := rule.NewPolicy(schema, rules)
	if err != nil {
		// The generator only emits in-domain sets; failure is a bug.
		panic(err)
	}
	return p
}

// makeAddrPool builds n address blocks with the prefix-length mix of
// real-life rules: /16 and /24 subnets dominate, with some /8s and host
// addresses.
func makeAddrPool(r *rand.Rand, n int) []interval.Interval {
	pool := make([]interval.Interval, n)
	for i := range pool {
		var length int
		switch p := r.Float64(); {
		case p < 0.10:
			length = 8
		case p < 0.40:
			length = 16
		case p < 0.80:
			length = 24
		default:
			length = 32
		}
		base := uint64(r.Uint32()) &^ (1<<uint(32-length) - 1)
		pool[i] = interval.MustNew(base, base|(1<<uint(32-length)-1))
	}
	return pool
}

// drawAddr picks the field's value set: wildcard 25% of the time, else a
// pool block.
func drawAddr(r *rand.Rand, schema *field.Schema, fi int, pool []interval.Interval) interval.Set {
	if r.Float64() < 0.25 {
		return schema.FullSet(fi)
	}
	return interval.SetFromInterval(pool[r.Intn(len(pool))])
}

// drawSrcPort is nearly always a wildcard in real rules; occasionally the
// ephemeral range.
func drawSrcPort(r *rand.Rand, schema *field.Schema) interval.Set {
	switch p := r.Float64(); {
	case p < 0.90:
		return schema.FullSet(2)
	case p < 0.97:
		return interval.SetOf(1024, 65535)
	default:
		return interval.SetFromInterval(interval.Point(wellKnownPorts[r.Intn(len(wellKnownPorts))]))
	}
}

// drawDstPort is mostly a well-known service, sometimes a range or
// wildcard.
func drawDstPort(r *rand.Rand, schema *field.Schema) interval.Set {
	switch p := r.Float64(); {
	case p < 0.60:
		return interval.SetFromInterval(interval.Point(wellKnownPorts[r.Intn(len(wellKnownPorts))]))
	case p < 0.75:
		return interval.SetOf(1024, 65535)
	case p < 0.82:
		return interval.SetOf(0, 1023)
	default:
		return schema.FullSet(3)
	}
}

// drawProto follows the paper's observation: TCP dominates, then UDP,
// wildcard, ICMP.
func drawProto(r *rand.Rand, schema *field.Schema) interval.Set {
	switch p := r.Float64(); {
	case p < 0.60:
		return interval.SetFromInterval(interval.Point(6)) // tcp
	case p < 0.80:
		return interval.SetFromInterval(interval.Point(17)) // udp
	case p < 0.95:
		return schema.FullSet(4)
	default:
		return interval.SetFromInterval(interval.Point(1)) // icmp
	}
}

// Adversarial generates a worst-case construction policy: n-1 boxes plus
// a catch-all, engineered so that the reduced FDD itself is large.
// Every rule constrains every field to an interval half the domain wide,
// placed at an independent position per field: the offset of rule i in
// field f is the fractional part of (i+1)·√p_f for the f-th prime p_f (a
// Weyl sequence), scaled to the lower half of the domain. Because the
// positions are uncorrelated across fields, no field's partition
// determines another's, so the diagram must enumerate the box overlaps
// field by field: the reduced FDD grows roughly as n³ (measured below),
// and so does the number of nodes construction creates. Decisions
// alternate, so overlapping boxes keep distinct decision regions.
// (Boxes sharing one position sequence across fields would not do: their
// reduced diagram stays small, and construction interns as it goes.)
//
// The output is deterministic in n alone: regression tests pin the node
// counts at which budgets trip.
func Adversarial(n int) *rule.Policy {
	if n < 2 {
		n = 2
	}
	schema := field.IPv4FiveTuple()
	d := schema.NumFields()
	rules := make([]rule.Rule, 0, n)
	for i := 0; i < n-1; i++ {
		pred := make(rule.Predicate, d)
		for f := 0; f < d; f++ {
			dom := schema.Domain(f)
			half := (dom.Hi - dom.Lo + 1) / 2
			_, frac := math.Modf(float64(i+1) * math.Sqrt(float64(weylPrimes[f%len(weylPrimes)])))
			lo := dom.Lo + uint64(frac*float64(half))
			pred[f] = interval.SetFromInterval(interval.MustNew(lo, lo+half-1))
		}
		dec := rule.Accept
		if i%2 == 1 {
			dec = rule.Discard
		}
		rules = append(rules, rule.Rule{Pred: pred, Decision: dec})
	}
	rules = append(rules, rule.CatchAll(schema, rule.Discard))
	p, err := rule.NewPolicy(schema, rules)
	if err != nil {
		panic(err) // boxes start in the lower half and span half: always in-domain
	}
	return p
}

// weylPrimes seed Adversarial's per-field positions: square roots of
// distinct primes are linearly independent over the rationals, so the
// fields' offset sequences never line up.
var weylPrimes = []int{2, 3, 5, 7, 11, 13, 17, 19}

// RealLife generates a policy shaped like the paper's two real-life
// subjects (661 and 42 rules): a tighter pool of subnets (one
// organization's networks) and a default-deny tail.
func RealLife(size int, seed int64) *rule.Policy {
	return Synthetic(Config{
		Rules:           size,
		Seed:            seed,
		SrcPool:         12,
		DstPool:         12,
		DiscardFraction: 0.5,
	})
}

// PerturbStats records what a perturbation did.
type PerturbStats struct {
	// Selected is |S|: the x% of rules drawn in step one.
	Selected int
	// YPercent is the random y drawn in step two.
	YPercent int
	// Flipped rules had their decisions inverted; Deleted were removed.
	Flipped, Deleted int
}

// Perturb implements the Section 8.2.1 protocol: select xPercent of the
// policy's rules at random (set S), draw y uniformly from [0, 100], flip
// the decisions of y% of S, and delete the remaining (100-y)% of S. The
// result is the "second version" compared against the original in the
// Fig. 12 experiment. The final catch-all rule is never selected, keeping
// the result comprehensive (deleting it would make the policy reject the
// comparison pipeline, which real administrators also never do).
func Perturb(p *rule.Policy, xPercent float64, seed int64) (*rule.Policy, PerturbStats) {
	r := rand.New(rand.NewSource(seed))
	n := p.Size()
	selectable := n - 1 // spare the trailing catch-all
	k := int(float64(selectable)*xPercent/100 + 0.5)
	if k > selectable {
		k = selectable
	}
	perm := r.Perm(selectable)[:k]
	selected := make(map[int]bool, k)
	for _, i := range perm {
		selected[i] = true
	}

	y := r.Intn(101)
	stats := PerturbStats{Selected: k, YPercent: y}
	flipQuota := int(float64(k)*float64(y)/100 + 0.5)

	out := make([]rule.Rule, 0, n)
	flipped := 0
	for i, rl := range p.Rules {
		if !selected[i] {
			out = append(out, rl)
			continue
		}
		if flipped < flipQuota {
			flipped++
			out = append(out, rule.Rule{Pred: rl.Pred.Clone(), Decision: flip(rl.Decision)})
			continue
		}
		// Deleted: skip.
	}
	stats.Flipped = flipped
	stats.Deleted = k - flipped
	q, err := rule.NewPolicy(p.Schema, out)
	if err != nil {
		panic(err) // only valid rules are reused
	}
	return q, stats
}

// flip inverts a decision, preserving the logging variant.
func flip(d rule.Decision) rule.Decision {
	switch d {
	case rule.Accept:
		return rule.Discard
	case rule.Discard:
		return rule.Accept
	case rule.AcceptLog:
		return rule.DiscardLog
	case rule.DiscardLog:
		return rule.AcceptLog
	default:
		return d
	}
}

// ErrorConfig seeds the Section 8.1 effectiveness workload.
type ErrorConfig struct {
	// OrderingErrors is the number of rules wrongly moved to the front of
	// the policy — the paper found 72 of 82 original-firewall errors were
	// ordering mistakes of this shape.
	OrderingErrors int
	// MissingRules is the number of rules deleted outright (the paper's
	// remaining 10 errors).
	MissingRules int
	Seed         int64
}

// ErrorLog records which errors were injected.
type ErrorLog struct {
	// MovedToFront lists original indices of rules moved to the front, in
	// injection order.
	MovedToFront []int
	// Deleted lists original indices of removed rules.
	Deleted []int
}

// InjectErrors derives a faulty variant of the reference policy: ordering
// errors first (random non-catch-all rules moved to the front), then
// missing-rule errors (random non-catch-all rules deleted). Comparing the
// faulty policy against the reference with the discrepancy pipeline is the
// redesign experiment of Section 8.1.
func InjectErrors(p *rule.Policy, cfg ErrorConfig) (*rule.Policy, ErrorLog) {
	r := rand.New(rand.NewSource(cfg.Seed))
	cur := p.Clone()
	var log ErrorLog

	// Track original indices as rules move.
	orig := make([]int, cur.Size())
	for i := range orig {
		orig[i] = i
	}

	for k := 0; k < cfg.OrderingErrors && cur.Size() > 2; k++ {
		i := 1 + r.Intn(cur.Size()-2) // not the first (already front), not the catch-all
		moved := cur.Rules[i]
		movedOrig := orig[i]
		next, err := cur.DeleteRule(i)
		if err != nil {
			break
		}
		cur, err = next.InsertRule(0, moved)
		if err != nil {
			break
		}
		orig = append(orig[:i], orig[i+1:]...)
		orig = append([]int{movedOrig}, orig...)
		log.MovedToFront = append(log.MovedToFront, movedOrig)
	}

	for k := 0; k < cfg.MissingRules && cur.Size() > 2; k++ {
		i := r.Intn(cur.Size() - 1) // spare the catch-all
		next, err := cur.DeleteRule(i)
		if err != nil {
			break
		}
		log.Deleted = append(log.Deleted, orig[i])
		orig = append(orig[:i], orig[i+1:]...)
		cur = next
	}
	return cur, log
}
