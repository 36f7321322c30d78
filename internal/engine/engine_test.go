package engine

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/rule"
)

const teamA = `
I in 0 && D in 192.168.0.1 && N in 25 -> accept
I in 0 && S in 224.168.0.0/16 -> discard
any -> accept
`

const teamB = `
I in 0 && S in 224.168.0.0/16 -> discard
I in 0 && D in 192.168.0.1 && N in 25 && P in 0 -> accept
I in 0 && D in 192.168.0.1 -> discard
any -> accept
`

func mustPolicy(t *testing.T, text string) *rule.Policy {
	t.Helper()
	p, err := rule.ParsePolicyString(field.PaperExample(), text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPolicyHashCanonical(t *testing.T) {
	t.Parallel()
	p1 := mustPolicy(t, teamA)
	// Same rules, different whitespace and comments: same address.
	p2 := mustPolicy(t, "# a comment\n"+strings.ReplaceAll(teamA, " && ", "  &&  "))
	if PolicyHash(p1) != PolicyHash(p2) {
		t.Fatal("formatting variants should share one content address")
	}
	if PolicyHash(p1) == PolicyHash(mustPolicy(t, teamB)) {
		t.Fatal("different policies must not collide")
	}
	// The same rule text over a different schema is a different address.
	fiveText := "dport in 25 -> accept\nany -> discard\n"
	p5, err := rule.ParsePolicyString(field.IPv4FiveTuple(), fiveText)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := rule.ParsePolicyString(field.FourTuple(), fiveText)
	if err != nil {
		t.Fatal(err)
	}
	if PolicyHash(p5) == PolicyHash(p4) {
		t.Fatal("schema must be part of the content address")
	}
}

// TestCompileSingleflightDedup is the thundering-herd acceptance test: N
// concurrent compiles of one policy must observe exactly one
// construction, under -race.
func TestCompileSingleflightDedup(t *testing.T) {
	t.Parallel()
	e := New(Config{})
	real := e.construct
	var calls atomic.Int32
	release := make(chan struct{})
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, p, resumable)
	}

	p := mustPolicy(t, teamA)
	const n = 16
	results := make([]*Compiled, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = e.Compile(context.Background(), p)
		}(i)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("constructions = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different *Compiled", i)
		}
	}
	st := e.Stats()
	if st.Compilations != 1 {
		t.Fatalf("Stats().Compilations = %d, want 1", st.Compilations)
	}
	if st.Compile.Entries != 1 {
		t.Fatalf("compile cache entries = %d, want 1", st.Compile.Entries)
	}
}

// TestCanceledCompileDoesNotPoisonCache: a caller aborting mid-compile
// gets its ctx error, the abandoned flight is canceled (not pinned), no
// error is cached, and the next caller compiles fresh and succeeds.
func TestCanceledCompileDoesNotPoisonCache(t *testing.T) {
	t.Parallel()
	e := New(Config{})
	real := e.construct
	started := make(chan struct{})
	flightCanceled := make(chan struct{})
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		close(started)
		<-ctx.Done()
		close(flightCanceled)
		return nil, ctx.Err()
	}

	p := mustPolicy(t, teamA)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := e.Compile(ctx, p)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("canceled caller got %v, want context.Canceled", err)
	}
	// The last waiter leaving must cancel the flight itself — otherwise
	// the abandoned compilation burns CPU forever.
	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned flight was never canceled")
	}

	// Nothing was cached, and the failed flight left no trace: a fresh
	// compile runs and succeeds.
	e.construct = real
	c, hit, err := e.Compile(context.Background(), p)
	if err != nil || hit || c == nil {
		t.Fatalf("fresh compile after cancellation: c=%v hit=%v err=%v", c, hit, err)
	}
	if c2, hit2, err := e.Compile(context.Background(), p); err != nil || !hit2 || c2 != c {
		t.Fatalf("second compile: hit=%v err=%v", hit2, err)
	}
	if st := e.Stats(); st.Compilations != 1 {
		t.Fatalf("Stats().Compilations = %d, want 1 (the aborted flight must not count)", st.Compilations)
	}
}

// TestCancelOneOfManyWaiters: with several waiters on one flight, one
// waiter aborting must not fail the flight for the rest.
func TestCancelOneOfManyWaiters(t *testing.T) {
	t.Parallel()
	e := New(Config{})
	real := e.construct
	started := make(chan struct{})
	release := make(chan struct{})
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, p, resumable)
	}

	p := mustPolicy(t, teamA)
	ctx1, cancel1 := context.WithCancel(context.Background())
	err1 := make(chan error, 1)
	go func() {
		_, _, err := e.Compile(ctx1, p)
		err1 <- err
	}()
	<-started
	err2 := make(chan error, 1)
	go func() {
		_, _, err := e.Compile(context.Background(), p)
		err2 <- err
	}()
	// Both callers must be on the flight before waiter 1 gives up —
	// otherwise its cancellation (as last waiter) would end the flight
	// and waiter 2 would just start a fresh one.
	key := PolicyHash(p)
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.compiled.flights.mu.Lock()
		f := e.compiled.flights.flights[key]
		waiters := 0
		if f != nil {
			waiters = f.waiters
		}
		e.compiled.flights.mu.Unlock()
		if waiters == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second waiter never joined the flight (waiters = %d)", waiters)
		}
		time.Sleep(time.Millisecond)
	}
	// Waiter 1 gives up; waiter 2 must still get the result once the
	// construction finishes.
	cancel1()
	if err := <-err1; err != context.Canceled {
		t.Fatalf("waiter 1: %v, want context.Canceled", err)
	}
	close(release)
	if err := <-err2; err != nil {
		t.Fatalf("waiter 2: %v, want success", err)
	}
	if st := e.Stats(); st.Compilations != 1 {
		t.Fatalf("Stats().Compilations = %d, want 1", st.Compilations)
	}
}

func TestDiffPoliciesReportCache(t *testing.T) {
	t.Parallel()
	e := New(Config{})
	pa := mustPolicy(t, teamA)
	pb := mustPolicy(t, teamB)

	r1, st1, err := e.DiffPolicies(context.Background(), pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ReportCached || st1.CompileHits != 0 {
		t.Fatalf("cold diff stats = %+v", st1)
	}
	if len(r1.Discrepancies) != 3 {
		t.Fatalf("discrepancies = %d, want 3 (the paper's Table 3)", len(r1.Discrepancies))
	}
	if r1.Timing.Construct <= 0 {
		t.Fatalf("cold report should carry the compile wall time, got %v", r1.Timing.Construct)
	}

	r2, st2, err := e.DiffPolicies(context.Background(), pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ReportCached || st2.CompileHits != 2 {
		t.Fatalf("warm diff stats = %+v", st2)
	}
	if r2 != r1 {
		t.Fatal("warm diff should return the cached report")
	}

	// A formatting variant of the same pair is the same pair.
	pa2 := mustPolicy(t, "# v2\n"+teamA)
	_, st3, err := e.DiffPolicies(context.Background(), pa2, pb)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.ReportCached {
		t.Fatalf("reformatted pair stats = %+v, want report hit", st3)
	}

	// Direction matters: (b, a) is a different report with mirrored sides.
	rBA, stBA, err := e.DiffPolicies(context.Background(), pb, pa)
	if err != nil {
		t.Fatal(err)
	}
	if stBA.ReportCached || rBA == r1 {
		t.Fatal("(b, a) must not reuse the (a, b) report")
	}
	if st := e.Stats(); st.Compilations != 2 {
		t.Fatalf("Stats().Compilations = %d, want 2", st.Compilations)
	}
}

func TestDiffPoliciesSchemaMismatch(t *testing.T) {
	t.Parallel()
	e := New(Config{})
	pa := mustPolicy(t, teamA)
	five, err := rule.ParsePolicyString(field.IPv4FiveTuple(), "any -> accept\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DiffPolicies(context.Background(), pa, five); err == nil {
		t.Fatal("cross-schema diff must fail")
	}
}

func TestCompileEvictionKeepsServing(t *testing.T) {
	t.Parallel()
	// A compile cache too small for two entries: the second compile
	// evicts the first, and re-requesting the first recompiles.
	e := New(Config{CompileCacheBytes: 1})
	pa := mustPolicy(t, teamA)
	pb := mustPolicy(t, teamB)
	if _, _, err := e.Compile(context.Background(), pa); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Compile(context.Background(), pb); err != nil {
		t.Fatal(err)
	}
	c, hit, err := e.Compile(context.Background(), pa)
	if err != nil || hit || c == nil {
		t.Fatalf("post-eviction compile: hit=%v err=%v", hit, err)
	}
	st := e.Stats()
	if st.Compile.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st.Compile)
	}
	if st.Compilations != 3 {
		t.Fatalf("Stats().Compilations = %d, want 3", st.Compilations)
	}
}
