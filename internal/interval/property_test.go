package interval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randSet builds a small random set over [0, ~1100] from a quick-check seed.
func randSet(r *rand.Rand) Set {
	n := r.Intn(5)
	ivs := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		lo := uint64(r.Intn(1000))
		hi := lo + uint64(r.Intn(100))
		ivs = append(ivs, MustNew(lo, hi))
	}
	return NewSet(ivs...)
}

// setPair is a quick.Generator producing two random sets.
type setPair struct{ a, b Set }

// Generate implements quick.Generator.
func (setPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(setPair{a: randSet(r), b: randSet(r)})
}

var _ quick.Generator = setPair{}

var quickCfg = &quick.Config{MaxCount: 300}

func TestPropSetCanonicalInvariant(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		for _, s := range []Set{p.a, p.b, p.a.Union(p.b), p.a.Intersect(p.b), p.a.Subtract(p.b)} {
			ivs := s.Intervals()
			for i := range ivs {
				if ivs[i].Lo > ivs[i].Hi {
					return false
				}
				if i > 0 {
					prev := ivs[i-1]
					// Strictly ascending with a gap of at least one value.
					if prev.Hi >= ivs[i].Lo || prev.Hi+1 == ivs[i].Lo {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionCommutative(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		return p.a.Union(p.b).Equal(p.b.Union(p.a))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectCommutative(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		return p.a.Intersect(p.b).Equal(p.b.Intersect(p.a))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropDeMorganWithinDomain(t *testing.T) {
	t.Parallel()
	domain := MustNew(0, 2000)
	f := func(p setPair) bool {
		a, b := p.a, p.b
		// ¬(a ∪ b) == ¬a ∩ ¬b within the domain.
		lhs := a.Union(b).ComplementWithin(domain)
		rhs := a.ComplementWithin(domain).Intersect(b.ComplementWithin(domain))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubtractDefinition(t *testing.T) {
	t.Parallel()
	domain := MustNew(0, 2000)
	f := func(p setPair) bool {
		// a - b == a ∩ ¬b within any domain covering both.
		lhs := p.a.Subtract(p.b)
		rhs := p.a.Intersect(p.b.ComplementWithin(domain))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropPartition(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		a, b := p.a, p.b
		// (a-b), (b-a), (a∩b) partition a∪b.
		d1, d2, in := a.Subtract(b), b.Subtract(a), a.Intersect(b)
		if d1.Overlaps(d2) || d1.Overlaps(in) || d2.Overlaps(in) {
			return false
		}
		return d1.Union(d2).Union(in).Equal(a.Union(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropCountAdditive(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		a, b := p.a, p.b
		// |a| + |b| == |a∪b| + |a∩b| (inclusion–exclusion on small sets).
		return a.Count()+b.Count() == a.Union(b).Count()+a.Intersect(b).Count()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropMembershipConsistency(t *testing.T) {
	t.Parallel()
	f := func(p setPair) bool {
		a, b := p.a, p.b
		u, in, sub := a.Union(b), a.Intersect(b), a.Subtract(b)
		for v := uint64(0); v <= 1200; v += 7 {
			inA, inB := a.Contains(v), b.Contains(v)
			if u.Contains(v) != (inA || inB) {
				return false
			}
			if in.Contains(v) != (inA && inB) {
				return false
			}
			if sub.Contains(v) != (inA && !inB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// The one-pass set algebra (Union's merge, Subtract's walk, ContainsSet)
// is checked against an element-enumerating reference: a set over a
// 64-value domain [base, base+63] is a uint64 bitmask, where union is
// OR, difference is AND NOT and containment is an empty difference. The
// domain sits at 0 and at the top of uint64, where a bound's +1 or -1
// would wrap.

// maskBases are the lowest values of the two 64-value test domains.
var maskBases = []uint64{0, Max - 63}

// maskSet returns the canonical set holding base+i for each bit i of m,
// built from its maximal runs so its form is known independently of
// NewSet.
func maskSet(m, base uint64) Set {
	var ivs []Interval
	for i := uint64(0); i < 64; {
		if m&(1<<i) == 0 {
			i++
			continue
		}
		j := i
		for j+1 < 64 && m&(1<<(j+1)) != 0 {
			j++
		}
		ivs = append(ivs, Interval{Lo: base + i, Hi: base + j})
		i = j + 1
	}
	return Set{ivs: ivs}
}

// setMask is maskSet's inverse; ok is false if s holds a value outside
// [base, base+63].
func setMask(s Set, base uint64) (m uint64, ok bool) {
	ok = true
	s.Enumerate(func(v uint64) bool {
		if v < base || v-base > 63 {
			ok = false
			return false
		}
		m |= 1 << (v - base)
		return true
	})
	return m, ok
}

// randMask draws a bitmask with runs, not independent bits, so sets have
// a handful of intervals that touch, overlap and nest.
func randMask(r *rand.Rand) uint64 {
	var m uint64
	for n := r.Intn(5); n > 0; n-- {
		lo := r.Intn(64)
		hi := lo + r.Intn(64-lo)
		for i := lo; i <= hi; i++ {
			m |= 1 << i
		}
	}
	return m
}

func TestPropSetAlgebraMatchesEnumeration(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		ma, mb := randMask(r), randMask(r)
		if trial%7 == 0 {
			mb = ma & randMask(r) // a subset of a, so containment holds
		}
		for _, base := range maskBases {
			a, b := maskSet(ma, base), maskSet(mb, base)
			for _, c := range []struct {
				op   string
				got  Set
				want uint64
			}{
				{"Union", a.Union(b), ma | mb},
				{"Subtract", a.Subtract(b), ma &^ mb},
				{"Intersect", a.Intersect(b), ma & mb},
			} {
				if !c.got.Equal(maskSet(c.want, base)) {
					m, _ := setMask(c.got, base)
					t.Fatalf("base %d: %v.%s(%v) = %v (mask %#x), want mask %#x",
						base, a, c.op, b, c.got, m, c.want)
				}
			}
			if got, want := a.ContainsSet(b), mb&^ma == 0; got != want {
				t.Fatalf("base %d: %v.ContainsSet(%v) = %v, want %v", base, a, b, got, want)
			}
		}
	}
}

// TestSetQueriesAllocateNothing pins the parse path's containment check
// and an emptied difference at zero allocations: rule parsing runs
// ContainsSet once per field per rule, and construction subtracts a
// covered label from the rule's set on every node it visits.
func TestSetQueriesAllocateNothing(t *testing.T) {
	full := SetOf(0, 65535)
	part := NewSet(MustNew(80, 80), MustNew(443, 443), MustNew(1024, 2047))
	if n := testing.AllocsPerRun(100, func() { _ = full.ContainsSet(part) }); n != 0 {
		t.Fatalf("ContainsSet: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !part.Subtract(full).Empty() {
			t.Fatal("a subset minus its superset must be empty")
		}
	}); n != 0 {
		t.Fatalf("Subtract with an empty result: %v allocs, want 0", n)
	}
}
