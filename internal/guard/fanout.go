package guard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut runs n independent items on at most GOMAXPROCS workers and
// returns once every worker has returned. Each worker is one call of
// worker, which sets up its own state (its Meter, its node store),
// claims items by calling next until next reports false, and then tears
// its state down. Items are claimed in index order, one at a time, so a
// caller that writes item k's result to index k gets the same result
// whatever the schedule. No item is claimed once ctx is done. With one
// worker, the single call runs on the calling goroutine.
func FanOut(ctx context.Context, n int, worker func(next func() (int, bool))) {
	var claimed atomic.Int64
	next := func() (int, bool) {
		k := int(claimed.Add(1)) - 1
		return k, k < n && ctx.Err() == nil
	}
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers < 2 {
		worker(next)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			worker(next)
		}()
	}
	wg.Wait()
}
