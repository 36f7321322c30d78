// Package interval implements closed integer intervals over uint64 and
// canonical sets of disjoint intervals.
//
// Every algorithm in this repository — FDD construction, shaping,
// comparison, rule generation, and redundancy detection — manipulates
// packet-field domains as finite intervals of nonnegative integers, exactly
// as in Section 3.1 of "Diverse Firewall Design" (Liu & Gouda). This package
// is the arithmetic substrate for all of them.
//
// An Interval is a closed range [Lo, Hi] with Lo <= Hi; the empty set is not
// representable as an Interval and is instead an empty Set. A Set is a
// canonical sequence of disjoint, non-adjacent intervals in ascending order.
package interval

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Max is the largest representable domain value. Field domains used by the
// firewall algorithms are sub-ranges of [0, Max].
const Max = math.MaxUint64

// Interval is a closed integer range [Lo, Hi] with Lo <= Hi.
// The zero value is the single point {0}.
type Interval struct {
	Lo, Hi uint64
}

// New returns the interval [lo, hi]. It reports an error if lo > hi.
func New(lo, hi uint64) (Interval, error) {
	if lo > hi {
		return Interval{}, fmt.Errorf("interval: invalid bounds [%d, %d]", lo, hi)
	}
	return Interval{Lo: lo, Hi: hi}, nil
}

// MustNew is like New but panics on invalid bounds. It is intended for
// constants and tests where the bounds are statically known to be valid.
func MustNew(lo, hi uint64) Interval {
	iv, err := New(lo, hi)
	if err != nil {
		panic(err)
	}
	return iv
}

// Point returns the single-value interval [v, v].
func Point(v uint64) Interval { return Interval{Lo: v, Hi: v} }

// Count returns the number of integers in the interval. For the full
// uint64 domain the true count 2^64 overflows; Count saturates at Max in
// that single case.
func (iv Interval) Count() uint64 {
	if iv.Lo == 0 && iv.Hi == Max {
		return Max // saturated: the exact count 2^64 is not representable
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint64) bool { return iv.Lo <= v && v <= iv.Hi }

// ContainsInterval reports whether other is entirely inside iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Overlaps reports whether the two intervals share at least one value.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Adjacent reports whether the two intervals are disjoint but touch, so
// that their union is a single interval.
func (iv Interval) Adjacent(other Interval) bool {
	if iv.Overlaps(other) {
		return false
	}
	if iv.Hi < other.Lo {
		return iv.Hi+1 == other.Lo
	}
	return other.Hi+1 == iv.Lo
}

// Intersect returns the common part of two intervals. ok is false if they
// are disjoint.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo := max(iv.Lo, other.Lo)
	hi := min(iv.Hi, other.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// Equal reports whether the two intervals have identical bounds.
func (iv Interval) Equal(other Interval) bool { return iv == other }

// Compare orders intervals by Lo, breaking ties by Hi. It returns -1, 0,
// or +1.
func (iv Interval) Compare(other Interval) int {
	switch {
	case iv.Lo < other.Lo:
		return -1
	case iv.Lo > other.Lo:
		return 1
	case iv.Hi < other.Hi:
		return -1
	case iv.Hi > other.Hi:
		return 1
	default:
		return 0
	}
}

// String renders the interval as "[lo, hi]", or "v" for a point.
func (iv Interval) String() string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf("%d", iv.Lo)
	}
	return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi)
}

// Set is a canonical set of integers: disjoint, non-adjacent intervals in
// ascending order. The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// NewSet returns the canonical set covering exactly the union of the given
// intervals (which may overlap, touch, and arrive in any order).
func NewSet(ivs ...Interval) Set {
	// The clone keeps the set from aliasing the caller's slice.
	return NewSetInPlace(slices.Clone(ivs))
}

// NewSetInPlace is NewSet without the copy: it sorts and merges ivs in
// place and adopts the canonical prefix ivs[:n] as the set's storage,
// where n is the set's NumIntervals. The adopted run's capacity is
// clipped at n (ivs[:n:n]), so no append through the set can ever write
// into ivs[n:], which stays the caller's to reuse; the caller must not
// write ivs[:n] again. Parsers use it to keep many sets in one slab.
func NewSetInPlace(ivs []Interval) Set {
	if len(ivs) == 0 {
		return Set{}
	}
	slices.SortFunc(ivs, Interval.Compare)
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		out = appendMerged(out, iv)
	}
	return Set{ivs: out[:len(out):len(out)]}
}

// appendMerged appends iv to the canonical list out, whose last interval
// starts at or before iv.Lo, merging the two when they overlap or touch.
func appendMerged(out []Interval, iv Interval) []Interval {
	if n := len(out); n > 0 {
		last := &out[n-1]
		if iv.Lo <= last.Hi || iv.Lo-1 == last.Hi {
			last.Hi = max(last.Hi, iv.Hi)
			return out
		}
	}
	return append(out, iv)
}

// SetOf returns the set holding the single interval [lo, hi].
func SetOf(lo, hi uint64) Set { return Set{ivs: []Interval{MustNew(lo, hi)}} }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Intervals returns the canonical intervals of the set in ascending order.
// The returned slice is a copy and may be modified by the caller.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// NumIntervals returns how many disjoint intervals form the set.
func (s Set) NumIntervals() int { return len(s.ivs) }

// Count returns the number of integers in the set, saturating at Max.
func (s Set) Count() uint64 {
	var total uint64
	for _, iv := range s.ivs {
		c := iv.Count()
		if total > Max-c {
			return Max
		}
		total += c
	}
	return total
}

// Min returns the smallest element. ok is false for the empty set.
func (s Set) Min() (v uint64, ok bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[0].Lo, true
}

// Max returns the largest element. ok is false for the empty set.
func (s Set) Max() (v uint64, ok bool) {
	if len(s.ivs) == 0 {
		return 0, false
	}
	return s.ivs[len(s.ivs)-1].Hi, true
}

// Contains reports whether v is an element of the set.
func (s Set) Contains(v uint64) bool {
	// Binary search over the canonical interval list.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= v })
	return i < len(s.ivs) && s.ivs[i].Contains(v)
}

// ContainsSet reports whether every element of other is in s. Canonical
// form leaves a gap between any two intervals of s, so each interval of
// other must lie inside a single interval of s: one walk over both
// lists, allocating nothing.
func (s Set) ContainsSet(other Set) bool {
	j := 0
	for _, iv := range other.ivs {
		for j < len(s.ivs) && s.ivs[j].Hi < iv.Lo {
			j++
		}
		if j == len(s.ivs) || !s.ivs[j].ContainsInterval(iv) {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets contain exactly the same integers.
// Canonical form makes this a structural comparison.
func (s Set) Equal(other Set) bool {
	if len(s.ivs) != len(other.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != other.ivs[i] {
			return false
		}
	}
	return true
}

// Union returns the set of integers in s or other, merging the two
// canonical lists in one pass.
func (s Set) Union(other Set) Set {
	if s.Empty() {
		return other
	}
	if other.Empty() {
		return s
	}
	return Set{ivs: s.AppendUnion(make([]Interval, 0, len(s.ivs)+len(other.ivs)), other)}
}

// AppendUnion appends the canonical intervals of s ∪ other to dst and
// returns the extended slice. Neither set may share storage with
// dst[len(dst):].
func (s Set) AppendUnion(dst []Interval, other Set) []Interval {
	a, b := s.ivs, other.ivs
	base := len(dst)
	for len(a) > 0 || len(b) > 0 {
		var iv Interval
		if len(b) == 0 || len(a) > 0 && a[0].Lo <= b[0].Lo {
			iv, a = a[0], a[1:]
		} else {
			iv, b = b[0], b[1:]
		}
		if n := len(dst); n > base {
			dst = appendMerged(dst, iv)
			continue
		}
		dst = append(dst, iv)
	}
	return dst
}

// Intersect returns the set of integers in both s and other.
func (s Set) Intersect(other Set) Set {
	return Set{ivs: s.AppendIntersect(nil, other)}
}

// AppendIntersect appends the canonical intervals of s ∩ other to dst
// and returns the extended slice, allocating only when dst must grow.
// Neither set may share storage with dst[len(dst):].
func (s Set) AppendIntersect(dst []Interval, other Set) []Interval {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if inter, ok := s.ivs[i].Intersect(other.ivs[j]); ok {
			dst = append(dst, inter)
		}
		if s.ivs[i].Hi < other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return dst // pieces are already disjoint, non-adjacent, ordered
}

// Subtract returns the set of integers in s but not in other. It walks
// both canonical lists once and allocates only when a piece survives:
// an empty result costs nothing.
func (s Set) Subtract(other Set) Set {
	if s.Empty() || other.Empty() {
		return s
	}
	if other.ContainsSet(s) {
		return Set{}
	}
	return Set{ivs: s.AppendSubtract(make([]Interval, 0, len(s.ivs)+len(other.ivs)), other)}
}

// AppendSubtract appends the canonical intervals of s minus other to dst
// and returns the extended slice, allocating only when dst must grow.
// Neither set may share storage with dst[len(dst):].
func (s Set) AppendSubtract(dst []Interval, other Set) []Interval {
	j := 0
	for _, iv := range s.ivs {
		for j < len(other.ivs) && other.ivs[j].Hi < iv.Lo {
			j++
		}
		// lo is the first value of iv not yet kept or cut; the cuts
		// overlapping iv are other.ivs[j:], in order.
		lo, done := iv.Lo, false
		for k := j; k < len(other.ivs) && other.ivs[k].Lo <= iv.Hi; k++ {
			sub := other.ivs[k]
			if sub.Lo > lo {
				dst = append(dst, Interval{Lo: lo, Hi: sub.Lo - 1})
			}
			if sub.Hi >= iv.Hi {
				done = true
				break
			}
			lo = sub.Hi + 1
		}
		if !done {
			dst = append(dst, Interval{Lo: lo, Hi: iv.Hi})
		}
	}
	return dst
}

// Overlaps reports whether the two sets share at least one integer.
func (s Set) Overlaps(other Set) bool {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(other.ivs) {
		if s.ivs[i].Overlaps(other.ivs[j]) {
			return true
		}
		if s.ivs[i].Hi < other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// ComplementWithin returns domain minus s. Elements of s outside the
// domain are ignored.
func (s Set) ComplementWithin(domain Interval) Set {
	return SetFromInterval(domain).Subtract(s)
}

// SetView returns the set whose canonical intervals are ivs, adopting
// the slice (capacity clipped) as its storage without copying or
// checking it. ivs must already be canonical, as the intervals of a Set
// are, and must not be written again. Stores that keep many sets in one
// pointer-free slab hand out their labels through it.
func SetView(ivs []Interval) Set {
	if len(ivs) == 0 {
		return Set{}
	}
	return Set{ivs: ivs[:len(ivs):len(ivs)]}
}

// SetFromInterval returns the set holding exactly iv.
func SetFromInterval(iv Interval) Set { return Set{ivs: []Interval{iv}} }

// String renders the set as "{}" or "{iv, iv, ...}".
func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// fnvPrime64 is the FNV-64 prime, the multiplier of the running hashes
// built by Hash. Canonical form makes both Hash and AppendKey functions
// of the set's *value*: equal sets always produce equal hashes and keys.
const fnvPrime64 = 1099511628211

// Hash folds the set into the running 64-bit hash h (FNV-1a style, one
// multiply per interval bound) and returns the new hash. It allocates
// nothing; hash-consing layers (e.g. the FDD node store) use it instead
// of formatting the set into a string key. Distinct sets may collide —
// callers must confirm with Equal.
func (s Set) Hash(h uint64) uint64 {
	h = (h ^ uint64(len(s.ivs))) * fnvPrime64
	for _, iv := range s.ivs {
		h = (h ^ iv.Lo) * fnvPrime64
		h = (h ^ iv.Hi) * fnvPrime64
	}
	return h
}

// AppendKey appends a compact binary encoding of the set to b and
// returns the extended slice: a uvarint interval count followed by
// 8-byte big-endian Lo/Hi bounds per interval. The count prefix makes
// concatenated keys uniquely decodable, so composite map keys can be
// built by appending several sets into one reused buffer — unlike
// String, AppendKey allocates only when b needs to grow.
func (s Set) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.ivs)))
	for _, iv := range s.ivs {
		b = binary.BigEndian.AppendUint64(b, iv.Lo)
		b = binary.BigEndian.AppendUint64(b, iv.Hi)
	}
	return b
}

// AppendIntervals appends the set's canonical intervals to dst and
// returns the extended slice. It is Intervals without the forced
// allocation, for callers that gather the intervals of many sets into
// one buffer (e.g. computing the union of disjoint edge labels).
func (s Set) AppendIntervals(dst []Interval) []Interval {
	return append(dst, s.ivs...)
}

// Enumerate calls fn for every element of the set in ascending order,
// stopping early if fn returns false. It is intended for small sets in
// tests and examples; enumerating a large set is the caller's risk.
func (s Set) Enumerate(fn func(v uint64) bool) {
	for _, iv := range s.ivs {
		for v := iv.Lo; ; v++ {
			if !fn(v) {
				return
			}
			if v == iv.Hi {
				break // avoid wrapping at Max
			}
		}
	}
}
