package engine

import (
	"context"
	"sync"

	"diversefw/internal/guard"
)

// flightGroup deduplicates concurrent identical computations: callers
// asking for the same key while a computation is in flight share its
// result instead of starting their own (the thundering-herd case where a
// popular policy is submitted by many requests at once compiles once).
//
// Flights are decoupled from any single caller: fn runs on its own
// goroutine under a context detached from the initiating request, so one
// caller aborting cannot fail the computation for everyone else. Each
// waiter stops waiting when its own context dies; when the *last* waiter
// leaves, the flight's context is canceled and the flight is forgotten.
// Results are never remembered by the group itself — a failed or canceled
// flight leaves no trace, so the next caller starts fresh and an aborted
// request can neither poison nor pin a cache entry.
type flightGroup[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
}

type flight[V any] struct {
	done    chan struct{} // closed when fn has returned
	val     V
	err     error
	waiters int                // callers currently waiting on done
	cancel  context.CancelFunc // cancels fn's context
}

// do returns fn's result for key, coalescing concurrent callers. shared
// reports whether this caller joined a flight another caller started.
// ctx only bounds this caller's wait: on ctx death the caller gets
// ctx.Err() while the flight keeps running for the remaining waiters
// (and is canceled if there are none).
func (g *flightGroup[V]) do(ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight[V])
	}
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		return g.wait(ctx, key, f, true)
	}
	// Detach the flight from the caller: context values (tracing et al.)
	// flow through, cancellation and deadline do not.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()

	go func() {
		val, ferr := fn(fctx)
		g.mu.Lock()
		f.val, f.err = val, ferr
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or the caller's context dies,
// whichever comes first. A caller whose context died while it waited gets
// ctx.Err() even when the flight has completed by the time it runs again:
// a select between two ready channels picks either, and a request past
// its deadline must not be answered by the chance of that pick.
func (g *flightGroup[V]) wait(ctx context.Context, key string, f *flight[V], shared bool) (V, bool, error) {
	select {
	case <-f.done:
		// Nor by the lag of the timer that cancels a context at its
		// deadline: a flight that ends past the caller's deadline fails
		// the caller even while that timer has yet to run.
		err := guard.CtxErr(ctx)
		if err == nil {
			return f.val, shared, f.err
		}
		var zero V
		return zero, shared, err
	case <-ctx.Done():
	}
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && g.flights[key] == f {
		// No caller is interested anymore; a later request must not find
		// a doomed flight.
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if last {
		f.cancel()
	}
	var zero V
	return zero, shared, ctx.Err()
}
