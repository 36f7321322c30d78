package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// settleGoroutines waits for the goroutine count to return to at most
// base, failing with a full stack dump if it does not within the
// deadline. Counts need a settle loop: flight goroutines finish
// asynchronously after their waiters return.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBudgetExceededCompileFailsTypedAndUncached(t *testing.T) {
	// A node budget far below what even the 3-rule example needs: the
	// first per-rule flush trips it.
	e := New(Config{Limits: guard.Limits{MaxFDDNodes: 2}})
	p := mustPolicy(t, teamA)
	_, _, err := e.Compile(context.Background(), p)
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("Compile = %v, want a budget error", err)
	}
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("want *guard.ErrBudgetExceeded in chain, got %v", err)
	}
	if be.Kind != guard.KindNodes {
		t.Fatalf("Kind = %q, want %q", be.Kind, guard.KindNodes)
	}
	// The failed flight must not have been cached — neither as a value
	// nor as a poisoned error entry.
	if s := e.Stats(); s.Compile.Entries != 0 {
		t.Fatalf("compile cache entries = %d after failed flight, want 0", s.Compile.Entries)
	}
	// A retry fails the same way (recomputed, not replayed from cache).
	_, hit, err := e.Compile(context.Background(), p)
	if hit || !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
}

func TestBudgetAllowsNormalPoliciesAndStopsRetriesFresh(t *testing.T) {
	// Generous limits: the example policies compile fine.
	e := New(Config{Limits: guard.Limits{MaxFDDNodes: 1 << 20, MaxEdgeSplits: 1 << 20}})
	a := mustPolicy(t, teamA)
	b := mustPolicy(t, teamB)
	r, _, err := e.DiffPolicies(context.Background(), a, b)
	if err != nil {
		t.Fatalf("DiffPolicies under generous budget: %v", err)
	}
	if len(r.Discrepancies) == 0 {
		t.Fatal("teamA and teamB differ")
	}
}

func TestCoalescedWaitersShareOneBudgetFailure(t *testing.T) {
	e := New(Config{Limits: guard.Limits{MaxFDDNodes: 2}})
	// Stall construction start so all waiters pile onto one flight.
	real := e.construct
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		once.Do(func() { close(started) })
		<-release
		return real(ctx, p, resumable)
	}
	p := mustPolicy(t, teamA)
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = e.Compile(context.Background(), p)
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	// Every waiter — the flight owner and everyone coalesced onto it —
	// sees the budget error; none gets a stale success or a hang.
	for i, err := range errs {
		if !errors.Is(err, guard.ErrBudget) {
			t.Fatalf("waiter %d: %v, want budget error", i, err)
		}
	}
	if s := e.Stats(); s.Compile.Entries != 0 {
		t.Fatal("failed shared flight must not be cached")
	}
	// Successful constructions are counted; the budget-tripped ones are
	// not successes.
	if s := e.Stats(); s.Compilations != 0 {
		t.Fatalf("compilations = %d, want 0 (every flight tripped its budget)", s.Compilations)
	}
}

func TestCacheInsertFaultDegradesToMissNotCorruption(t *testing.T) {
	e := New(Config{})
	fail := errors.New("injected insert failure")
	remove := chaos.Register(chaos.PointCacheInsertCompile, chaos.FailWith(fail))
	defer remove()
	p := mustPolicy(t, teamA)
	c1, _, err := e.Compile(context.Background(), p)
	if err != nil || c1 == nil || c1.FDD == nil {
		t.Fatalf("compile with failing cache insert should still succeed: %v", err)
	}
	if s := e.Stats(); s.Compile.Entries != 0 {
		t.Fatal("failed insert must leave the cache empty")
	}
	// Next request recompiles — a miss, not an error and not stale data.
	c2, hit, err := e.Compile(context.Background(), p)
	if err != nil || hit {
		t.Fatalf("second compile: hit=%v err=%v", hit, err)
	}
	if c2.Hash != c1.Hash {
		t.Fatal("recompilation must produce the same content address")
	}
	if s := e.Stats(); s.Compilations != 2 {
		t.Fatalf("compilations = %d, want 2 (insert skipped both times)", e.Stats().Compilations)
	}
	remove()
	// With the fault gone, inserts work again.
	if _, _, err := e.Compile(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Compile.Entries != 1 {
		t.Fatalf("entries = %d after fault removed, want 1", s.Compile.Entries)
	}
}

func TestInjectedCompileFailureIsNeverCached(t *testing.T) {
	e := New(Config{})
	boom := errors.New("injected compile failure")
	remove := chaos.Register(chaos.PointCompile, chaos.FailWith(boom))
	p := mustPolicy(t, teamA)
	if _, _, err := e.Compile(context.Background(), p); !errors.Is(err, boom) {
		t.Fatalf("Compile = %v, want injected failure", err)
	}
	remove()
	// The failure must not stick: the same request now succeeds.
	if _, _, err := e.Compile(context.Background(), p); err != nil {
		t.Fatalf("Compile after fault removed: %v", err)
	}
}

func TestDiffBudgetExceededTypedAndUncached(t *testing.T) {
	// Compile with no limits, then diff on an engine whose limits are
	// tiny: the diff flight's budget trips during the diff walk.
	free := New(Config{})
	a, _, err := free.Compile(context.Background(), mustPolicy(t, teamA))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := free.Compile(context.Background(), mustPolicy(t, teamB))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Limits: guard.Limits{MaxFDDNodes: 2}})
	_, _, err = e.Diff(context.Background(), a, b)
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("Diff = %v, want budget error", err)
	}
	if s := e.Stats(); s.Reports.Entries != 0 {
		t.Fatal("failed diff flight must not be cached")
	}
}

// TestAdversarialDiffBudgetTripsInDirectWalk compiles two worst-case
// construction policies without limits, then diffs them on an engine
// whose node budget is far below what the product walk materializes for
// this pair yet is never consulted by construction here: the
// typed budget error — policy_too_complex on the wire — must come from
// the direct walk, leave no report behind, and leave nothing resident
// across repeats.
func TestAdversarialDiffBudgetTripsInDirectWalk(t *testing.T) {
	free := New(Config{})
	a, _, err := free.Compile(context.Background(), synth.Adversarial(8))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := free.Compile(context.Background(), synth.Adversarial(6))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Limits: guard.Limits{MaxFDDNodes: 32}})
	diff := func() error {
		_, _, err := e.Diff(context.Background(), a, b)
		return err
	}

	ctx, tr := trace.New(context.Background(), "test", trace.NewID())
	_, _, err = e.Diff(ctx, a, b)
	tr.Root().End()
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != guard.KindNodes {
		t.Fatalf("Diff = %v, want a %s budget error", err, guard.KindNodes)
	}
	root := tr.Root().Snapshot()
	if _, ok := root.Find("construct"); ok {
		t.Fatal("the limited engine constructed: the budget was charged outside the walk")
	}
	sp, ok := root.Find("diff")
	if !ok {
		t.Fatal("diff span missing")
	}
	if sp.Attrs["budgetExceeded"] != string(guard.KindNodes) {
		t.Fatalf("diff span attrs = %v, want budgetExceeded=%s", sp.Attrs, guard.KindNodes)
	}
	if _, ok := sp.Find("compare.direct"); !ok {
		t.Fatal("the budget tripped before the direct walk ran")
	}
	if s := e.Stats(); s.Reports.Entries != 0 || s.Compilations != 0 {
		t.Fatalf("aborted walk left state: %d reports, %d compilations", s.Reports.Entries, s.Compilations)
	}

	// Repeats recompute and fail the same way; none of the aborted walks'
	// memo or node store stays reachable (each walk allocates ~60 KB, so
	// keeping them would grow the heap by ~12 MB).
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < 5; i++ {
		diff() //nolint:errcheck
	}
	before := heap()
	for i := 0; i < 200; i++ {
		if err := diff(); !errors.Is(err, guard.ErrBudget) {
			t.Fatalf("repeat %d: %v, want budget error", i, err)
		}
	}
	if after := heap(); after > before+1<<20 {
		t.Fatalf("heap grew from %d to %d bytes over 200 aborted walks", before, after)
	}
	if s := e.Stats(); s.Reports.Entries != 0 {
		t.Fatalf("report cache entries = %d after aborted walks, want 0", s.Reports.Entries)
	}
}

// TestNoGoroutineLeaksOnAbortPaths drives the failure paths that spawn
// flight goroutines — budget-exceeded flights, canceled waiters,
// injected faults — and asserts the goroutine count settles back.
func TestNoGoroutineLeaksOnAbortPaths(t *testing.T) {
	base := runtime.NumGoroutine()

	limited := New(Config{Limits: guard.Limits{MaxFDDNodes: 2}})
	p := mustPolicy(t, teamA)
	for i := 0; i < 20; i++ {
		limited.Compile(context.Background(), p) //nolint:errcheck
	}

	// Canceled waiters abandoning a stalled flight.
	e := New(Config{})
	real := e.construct
	block := make(chan struct{})
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, p, resumable)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Compile(ctx, p) //nolint:errcheck
		}()
		// Cancel promptly; the last waiter's departure cancels the flight.
		cancel()
	}
	wg.Wait()
	close(block)

	// Injected mid-pipeline faults.
	remove := chaos.Register(chaos.PointDiff, chaos.FailWith(errors.New("boom")))
	free := New(Config{})
	ca, _, err := free.Compile(context.Background(), mustPolicy(t, teamA))
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := free.Compile(context.Background(), mustPolicy(t, teamB))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		free.Diff(context.Background(), ca, cb) //nolint:errcheck
	}
	remove()

	settleGoroutines(t, base)
}
