package main

import (
	"bytes"
	"testing"
)

// TestScheduleDeterministic pins that every workload's schedule is a
// pure function of (workload, seed): it regenerates byte for byte, a
// longer schedule extends a shorter one, and another seed changes it.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			gen := func(seed int64, n int) *schedule {
				s, err := newSchedule(w, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := gen(7, 12), gen(7, 12)
			if a.digest() != b.digest() {
				t.Fatal("same seed, different digest")
			}
			for i := range a.ops {
				if !bytes.Equal(a.ops[i].body(), b.ops[i].body()) || a.ops[i].key != b.ops[i].key {
					t.Fatalf("op %d differs between two generations", i)
				}
			}
			long := gen(7, 20)
			for i := range a.ops {
				if !bytes.Equal(a.ops[i].body(), long.ops[i].body()) {
					t.Fatalf("op %d of a 12-op schedule differs from the 20-op one", i)
				}
			}
			if gen(8, 12).digest() == a.digest() {
				t.Fatal("seeds 7 and 8 generate the same schedule")
			}
		})
	}
}

// TestImpactEditsStayInRange checks that every generated edit script
// applies (the oracle's own applyEdits panics otherwise) and keeps the
// catch-all last, so the edited policy stays comprehensive.
func TestImpactEditsStayInRange(t *testing.T) {
	s, err := newSchedule(wlImpactEdit, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range s.ops {
		ps := o.policies()
		if !ps[1].EndsWithCatchAll() {
			t.Fatalf("op %d: edited policy lost its catch-all", i)
		}
	}
}
