package interval

import (
	"math"
	"testing"
)

func TestNew(t *testing.T) {
	t.Parallel()
	if _, err := New(5, 3); err == nil {
		t.Fatal("New(5,3) should fail")
	}
	iv, err := New(3, 5)
	if err != nil {
		t.Fatalf("New(3,5): %v", err)
	}
	if iv.Lo != 3 || iv.Hi != 5 {
		t.Fatalf("got %v", iv)
	}
}

func TestMustNewPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(2,1) should panic")
		}
	}()
	MustNew(2, 1)
}

func TestPoint(t *testing.T) {
	t.Parallel()
	p := Point(42)
	if p.Lo != 42 || p.Hi != 42 {
		t.Fatalf("got %v", p)
	}
	if p.Count() != 1 {
		t.Fatalf("count = %d", p.Count())
	}
}

func TestCount(t *testing.T) {
	t.Parallel()
	cases := []struct {
		iv   Interval
		want uint64
	}{
		{MustNew(0, 0), 1},
		{MustNew(0, 9), 10},
		{MustNew(5, 5), 1},
		{MustNew(0, math.MaxUint64), math.MaxUint64}, // saturated
		{MustNew(1, math.MaxUint64), math.MaxUint64},
	}
	for _, c := range cases {
		if got := c.iv.Count(); got != c.want {
			t.Errorf("Count(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	t.Parallel()
	iv := MustNew(10, 20)
	for _, v := range []uint64{10, 15, 20} {
		if !iv.Contains(v) {
			t.Errorf("%v should contain %d", iv, v)
		}
	}
	for _, v := range []uint64{0, 9, 21, math.MaxUint64} {
		if iv.Contains(v) {
			t.Errorf("%v should not contain %d", iv, v)
		}
	}
}

func TestContainsInterval(t *testing.T) {
	t.Parallel()
	outer := MustNew(10, 20)
	cases := []struct {
		inner Interval
		want  bool
	}{
		{MustNew(10, 20), true},
		{MustNew(12, 18), true},
		{MustNew(10, 10), true},
		{MustNew(9, 20), false},
		{MustNew(10, 21), false},
		{MustNew(0, 5), false},
	}
	for _, c := range cases {
		if got := outer.ContainsInterval(c.inner); got != c.want {
			t.Errorf("ContainsInterval(%v, %v) = %v, want %v", outer, c.inner, got, c.want)
		}
	}
}

func TestOverlapsAndAdjacent(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b          Interval
		over, adjacnt bool
	}{
		{MustNew(0, 5), MustNew(5, 9), true, false},
		{MustNew(0, 5), MustNew(6, 9), false, true},
		{MustNew(6, 9), MustNew(0, 5), false, true},
		{MustNew(0, 5), MustNew(7, 9), false, false},
		{MustNew(0, 9), MustNew(3, 4), true, false},
		{MustNew(0, 0), MustNew(0, 0), true, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.over {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", c.a, c.b, got, c.over)
		}
		if got := c.b.Overlaps(c.a); got != c.over {
			t.Errorf("Overlaps(%v, %v) = %v, want %v (symmetric)", c.b, c.a, got, c.over)
		}
		if got := c.a.Adjacent(c.b); got != c.adjacnt {
			t.Errorf("Adjacent(%v, %v) = %v, want %v", c.a, c.b, got, c.adjacnt)
		}
	}
}

func TestAdjacentAtDomainEdges(t *testing.T) {
	t.Parallel()
	a := MustNew(0, math.MaxUint64-1)
	b := Point(math.MaxUint64)
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("intervals touching at MaxUint64 should be adjacent")
	}
}

func TestIntersect(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b Interval
		want Interval
		ok   bool
	}{
		{MustNew(0, 10), MustNew(5, 15), MustNew(5, 10), true},
		{MustNew(5, 15), MustNew(0, 10), MustNew(5, 10), true},
		{MustNew(0, 10), MustNew(10, 15), MustNew(10, 10), true},
		{MustNew(0, 10), MustNew(11, 15), Interval{}, false},
		{MustNew(3, 7), MustNew(0, 10), MustNew(3, 7), true},
	}
	for _, c := range cases {
		got, ok := c.a.Intersect(c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Intersect(%v, %v) = %v, %v; want %v, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestCompare(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b Interval
		want int
	}{
		{MustNew(0, 5), MustNew(0, 5), 0},
		{MustNew(0, 5), MustNew(1, 5), -1},
		{MustNew(1, 5), MustNew(0, 5), 1},
		{MustNew(0, 4), MustNew(0, 5), -1},
		{MustNew(0, 6), MustNew(0, 5), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalString(t *testing.T) {
	t.Parallel()
	if got := Point(7).String(); got != "7" {
		t.Errorf("Point(7).String() = %q", got)
	}
	if got := MustNew(1, 9).String(); got != "[1, 9]" {
		t.Errorf("MustNew(1,9).String() = %q", got)
	}
}

func TestNewSetCanonicalizes(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(5, 10), MustNew(0, 3), MustNew(4, 4), MustNew(20, 30), MustNew(25, 35))
	want := []Interval{MustNew(0, 10), MustNew(20, 35)}
	got := s.Intervals()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNewSetEmpty(t *testing.T) {
	t.Parallel()
	if !NewSet().Empty() {
		t.Fatal("NewSet() should be empty")
	}
	if NewSet().String() != "{}" {
		t.Fatalf("empty set string = %q", NewSet().String())
	}
}

func TestSetContains(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(0, 5), MustNew(10, 15), MustNew(100, 100))
	for _, v := range []uint64{0, 5, 10, 15, 100} {
		if !s.Contains(v) {
			t.Errorf("set should contain %d", v)
		}
	}
	for _, v := range []uint64{6, 9, 16, 99, 101, math.MaxUint64} {
		if s.Contains(v) {
			t.Errorf("set should not contain %d", v)
		}
	}
}

func TestSetMinMax(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(10, 15), MustNew(0, 5))
	if v, ok := s.Min(); !ok || v != 0 {
		t.Errorf("Min = %d, %v", v, ok)
	}
	if v, ok := s.Max(); !ok || v != 15 {
		t.Errorf("Max = %d, %v", v, ok)
	}
	var empty Set
	if _, ok := empty.Min(); ok {
		t.Error("empty Min should report !ok")
	}
	if _, ok := empty.Max(); ok {
		t.Error("empty Max should report !ok")
	}
}

func TestSetUnion(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 5), MustNew(10, 15))
	b := NewSet(MustNew(6, 9), MustNew(20, 25))
	got := a.Union(b)
	want := NewSet(MustNew(0, 15), MustNew(20, 25))
	if !got.Equal(want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
	if !a.Union(Set{}).Equal(a) || !(Set{}).Union(a).Equal(a) {
		t.Fatal("union with empty should be identity")
	}
}

func TestSetIntersect(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 10), MustNew(20, 30))
	b := NewSet(MustNew(5, 25))
	got := a.Intersect(b)
	want := NewSet(MustNew(5, 10), MustNew(20, 25))
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersect(Set{}).Empty() {
		t.Fatal("intersect with empty should be empty")
	}
}

func TestSetSubtract(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 10), MustNew(20, 30))
	b := NewSet(MustNew(5, 22), MustNew(30, 30))
	got := a.Subtract(b)
	want := NewSet(MustNew(0, 4), MustNew(23, 29))
	if !got.Equal(want) {
		t.Fatalf("Subtract = %v, want %v", got, want)
	}
	if !a.Subtract(Set{}).Equal(a) {
		t.Fatal("subtract empty should be identity")
	}
	if !a.Subtract(a).Empty() {
		t.Fatal("a - a should be empty")
	}
}

func TestSetOverlaps(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 5), MustNew(10, 15))
	if !a.Overlaps(NewSet(MustNew(5, 7))) {
		t.Error("should overlap at 5")
	}
	if a.Overlaps(NewSet(MustNew(6, 9), MustNew(16, 20))) {
		t.Error("should not overlap")
	}
	if a.Overlaps(Set{}) {
		t.Error("nothing overlaps the empty set")
	}
}

func TestSetContainsSet(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 10))
	if !a.ContainsSet(NewSet(MustNew(2, 3), MustNew(8, 10))) {
		t.Error("should contain subset")
	}
	if a.ContainsSet(NewSet(MustNew(9, 11))) {
		t.Error("should not contain overflowing set")
	}
	if !a.ContainsSet(Set{}) {
		t.Error("every set contains the empty set")
	}
}

func TestComplementWithin(t *testing.T) {
	t.Parallel()
	domain := MustNew(0, 100)
	s := NewSet(MustNew(0, 10), MustNew(50, 60))
	got := s.ComplementWithin(domain)
	want := NewSet(MustNew(11, 49), MustNew(61, 100))
	if !got.Equal(want) {
		t.Fatalf("complement = %v, want %v", got, want)
	}
	// Complement of complement is the original (within domain).
	if !got.ComplementWithin(domain).Equal(s) {
		t.Fatal("double complement should round-trip")
	}
}

func TestSetCount(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(0, 9), MustNew(100, 109))
	if got := s.Count(); got != 20 {
		t.Fatalf("Count = %d, want 20", got)
	}
	full := SetFromInterval(MustNew(0, math.MaxUint64))
	if got := full.Count(); got != math.MaxUint64 {
		t.Fatalf("full-domain Count should saturate, got %d", got)
	}
}

func TestEnumerate(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(2, 4), MustNew(7, 8))
	var got []uint64
	s.Enumerate(func(v uint64) bool {
		got = append(got, v)
		return true
	})
	want := []uint64{2, 3, 4, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(0, 100))
	count := 0
	s.Enumerate(func(v uint64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("enumerated %d values, want 3", count)
	}
}

func TestEnumerateAtMaxBoundary(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(math.MaxUint64-1, math.MaxUint64))
	var got []uint64
	s.Enumerate(func(v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 2 || got[0] != math.MaxUint64-1 || got[1] != math.MaxUint64 {
		t.Fatalf("got %v", got)
	}
}

func TestSetEqual(t *testing.T) {
	t.Parallel()
	a := NewSet(MustNew(0, 5), MustNew(7, 9))
	b := NewSet(MustNew(0, 3), MustNew(4, 5), MustNew(7, 9))
	if !a.Equal(b) {
		t.Error("canonicalized sets with the same elements should be equal")
	}
	c := NewSet(MustNew(0, 5))
	if a.Equal(c) {
		t.Error("different sets should not be equal")
	}
}

func TestSetString(t *testing.T) {
	t.Parallel()
	s := NewSet(MustNew(0, 5), Point(9))
	if got := s.String(); got != "{[0, 5], 9}" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewSetInPlace(t *testing.T) {
	t.Parallel()
	slab := []Interval{MustNew(20, 30), MustNew(0, 3), MustNew(4, 10), MustNew(25, 35), MustNew(99, 99)}
	s := NewSetInPlace(slab[:4])
	if want := NewSet(MustNew(0, 10), MustNew(20, 35)); !s.Equal(want) {
		t.Fatalf("got %v, want %v", s, want)
	}
	// The set adopts the merged prefix of the slab without copying...
	if &s.ivs[0] != &slab[0] {
		t.Fatal("NewSetInPlace copied its run")
	}
	// ...and clips its capacity there, so growing the set reallocates
	// instead of overwriting the slab's next interval.
	if cap(s.ivs) != len(s.ivs) {
		t.Fatalf("cap = %d, want %d", cap(s.ivs), len(s.ivs))
	}
	_ = append(s.ivs, MustNew(50, 60))
	if slab[2] != MustNew(20, 30) || slab[4] != Point(99) {
		t.Fatalf("append through the set wrote into the slab: %v", slab)
	}
	if !NewSetInPlace(nil).Empty() {
		t.Fatal("NewSetInPlace(nil) should be empty")
	}
}
