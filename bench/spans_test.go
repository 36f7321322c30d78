package main

import (
	"math"
	"sync"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSelfTime pins the self-time rule on a hand-built tree: an op
// [0,100] whose two construct children overlap ([10,60] and [40,90],
// the concurrent pair), one of which has a child of its own [20,30],
// plus a child reaching outside its parent [95,120] whose part past the
// parent's end does not count.
func TestSelfTime(t *testing.T) {
	spans := withSelfTime([]span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fdd.construct", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "fdd.construct", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "inner", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "api.encode", Start: 95, End: 120},
	})
	want := map[int]float64{
		1: 100 - 80 - 5, // children cover [10,90] and [95,100]
		2: 50 - 10,
		3: 50,
		4: 10,
		5: 25,
	}
	for _, s := range spans {
		if !near(s.Self, want[s.ID]) {
			t.Errorf("span %d (%s): self %v, want %v", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

// TestRecorderConcurrent records the construct pair's way, from two
// goroutines under one parent, and checks both spans land intact.
func TestRecorderConcurrent(t *testing.T) {
	r := newRecorder()
	root := r.begin(0, 0, "op")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := r.begin(0, root, "fdd.construct")
				r.end(id)
				r.setCount(id, 1)
			}
		}()
	}
	wg.Wait()
	r.end(root)
	spans := r.finish()
	s := sumSpans(spans, "fdd.construct", true)
	if s.calls != 200 || s.count != 200 {
		t.Fatalf("recorded %d calls with count %d, want 200 and 200", s.calls, s.count)
	}
	if spans[0].Self < 0 || spans[0].Self > spans[0].dur() {
		t.Fatalf("root self %v outside [0, %v]", spans[0].Self, spans[0].dur())
	}
}

// TestSumSpansSkipsSetupAndProbes pins which spans feed per-op figures.
func TestSumSpansSkipsSetupAndProbes(t *testing.T) {
	spans := withSelfTime([]span{
		{ID: 1, Name: "engine.hash", Start: 0, End: 2},
		{ID: 2, Name: "engine.hash", Start: 0, End: 4, Setup: true},
		{ID: 3, Name: "engine.hash", Start: 0, End: 8, Probe: true},
	})
	if s := sumSpans(spans, "engine.hash", true); s.calls != 1 || !near(s.selfUS, 2) {
		t.Fatalf("measured-only sum = %+v", s)
	}
	if s := sumSpans(spans, "engine.hash", false); s.calls != 3 || !near(s.durUS, 14) {
		t.Fatalf("all-spans sum = %+v", s)
	}
}

// TestUnattributed pins the residual: untraced mean latency minus the
// traced ops' mean root duration (microseconds in, milliseconds out).
func TestUnattributed(t *testing.T) {
	if got := unattributedMs(10, []float64{6000, 8000}); !near(got, 3) {
		t.Fatalf("unattributed = %v, want 3", got)
	}
	if got := unattributedMs(5, []float64{7000}); !near(got, -2) {
		t.Fatalf("unattributed = %v, want -2 (replay slower than the served op)", got)
	}
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 3000},
		{ID: 2, Parent: 1, Name: "api.decode", Start: 0, End: 1000},
		{ID: 3, Name: "op", Start: 0, End: 9000, Setup: true},
		{ID: 4, Name: "op", Start: 0, End: 5000},
	}
	if got := unattributedMs(6, opDurations(spans)); !near(got, 2) {
		t.Fatalf("unattributed over measured ops = %v, want 2", got)
	}
}
