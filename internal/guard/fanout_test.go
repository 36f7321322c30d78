package guard

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn with GOMAXPROCS set to n, so FanOut starts real
// worker pools even on a single-CPU machine.
func withProcs(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestFanOutParallelEachItemOnce: at every worker count, FanOut runs
// each item exactly once, on min(n, GOMAXPROCS) workers (one, on the
// caller, when that is below two), each of which sets up and tears down
// once and claims its items in increasing index order.
func TestFanOutParallelEachItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 3, 50} {
			hits := make([]atomic.Int32, n)
			var started, finished atomic.Int32
			withProcs(procs, func() {
				FanOut(context.Background(), n, func(next func() (int, bool)) {
					started.Add(1)
					last := -1
					for k, ok := next(); ok; k, ok = next() {
						if k <= last {
							t.Errorf("procs %d n %d: claimed item %d after %d", procs, n, k, last)
						}
						last = k
						hits[k].Add(1)
					}
					finished.Add(1)
				})
			})
			if want := int32(max(1, min(n, procs))); started.Load() != want || finished.Load() != want {
				t.Fatalf("procs %d n %d: %d workers started, %d finished; want %d",
					procs, n, started.Load(), finished.Load(), want)
			}
			for k := range hits {
				if h := hits[k].Load(); h != 1 {
					t.Fatalf("procs %d n %d: item %d ran %d times", procs, n, k, h)
				}
			}
		}
	}
}

// TestFanOutCancelStopsClaims: no item is claimed once ctx is done —
// a dead ctx runs none, and a cancel from inside an item ends the walk
// after that item — while every worker still tears down.
func TestFanOutCancelStopsClaims(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	withProcs(4, func() {
		var ran, finished atomic.Int32
		FanOut(dead, 20, func(next func() (int, bool)) {
			for _, ok := next(); ok; _, ok = next() {
				ran.Add(1)
			}
			finished.Add(1)
		})
		if ran.Load() != 0 || finished.Load() != 4 {
			t.Fatalf("dead ctx: %d items ran, %d workers finished; want 0 and 4", ran.Load(), finished.Load())
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withProcs(1, func() {
		ran := 0
		FanOut(ctx, 20, func(next func() (int, bool)) {
			for k, ok := next(); ok; k, ok = next() {
				ran++
				if k == 10 {
					cancel()
				}
			}
		})
		if ran != 11 {
			t.Fatalf("canceled at item 10: %d items ran, want 11", ran)
		}
	})
}
