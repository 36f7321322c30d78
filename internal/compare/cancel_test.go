package compare

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

func bigPair(n int) (*rule.Policy, *rule.Policy) {
	return synth.Synthetic(synth.Config{Rules: n, Seed: 1}),
		synth.Synthetic(synth.Config{Rules: n, Seed: 2})
}

func TestDiffContextPreCanceled(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	report, err := DiffContext(ctx, pa, pb)
	if report != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("report=%v err=%v, want nil report and context.Canceled", report, err)
	}
	// A pre-canceled context must abort during construction, not after
	// walking the whole pipeline.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-canceled diff took %v", elapsed)
	}
}

// midRunCtx is a context whose polls count the pipeline's progress: its
// at-th Err call closes reached and blocks until the context is
// canceled. The cancel, made on another goroutine once reached is
// closed, so lands mid-run however late the scheduler runs that
// goroutine; a sleep-then-cancel lands after the run when the timer
// fires late on a busy machine.
type midRunCtx struct {
	context.Context
	at      int32
	polls   atomic.Int32
	reached chan struct{}
}

// cancelAtPoll returns a midRunCtx that another goroutine cancels once
// its at-th poll is reached, and the cancel func for cleanup.
func cancelAtPoll(at int32) (*midRunCtx, context.CancelFunc) {
	inner, cancel := context.WithCancel(context.Background())
	ctx := &midRunCtx{Context: inner, at: at, reached: make(chan struct{})}
	go func() {
		select {
		case <-ctx.reached:
			cancel()
		case <-inner.Done():
		}
	}()
	return ctx, cancel
}

func (c *midRunCtx) Err() error {
	if c.polls.Add(1) == c.at {
		close(c.reached)
		<-c.Context.Done()
	}
	return c.Context.Err()
}

func TestDiffContextCancelMidRun(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(1500)
	// Each construction polls ctx at least once per rule, so the 1,000th
	// poll falls inside construction; the only way to return without an
	// error would be to ignore the cancel.
	ctx, cancel := cancelAtPoll(1000)
	defer cancel()
	report, err := DiffContext(ctx, pa, pb)
	if report != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("report=%v err=%v, want nil report and context.Canceled", report, err)
	}
}

func TestDiffContextDeadline(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(1500)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	report, err := DiffContext(ctx, pa, pb)
	if report != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("report=%v err=%v, want nil report and context.DeadlineExceeded", report, err)
	}
}

// TestDiffContextCancelParallel drives a cancellation through the
// paper's shaping and lockstep stages on the shared fan-out: every
// worker polls the one ctx through its own meter, so all of them stop
// (and it is the -race regression test for that stop).
func TestDiffContextCancelParallel(t *testing.T) {
	pa, pb := bigPair(1500)
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 4, func() {
		// The shaping and lockstep workers poll ctx thousands of times
		// between them; the 2,000th poll stops one of them mid-walk
		// until the cancel, which the others then see on their own.
		ctx, cancel := cancelAtPoll(2000)
		defer cancel()
		if _, err := lockstepFDDs(ctx, fa, fb); !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	})
}

func TestDiffContextBackgroundUnchanged(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(60)
	want, err := Diff(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DiffContext(context.Background(), pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Discrepancies) != len(want.Discrepancies) ||
		got.PathsCompared != want.PathsCompared || got.RawPaths != want.RawPaths {
		t.Fatalf("context and plain diff disagree: %d/%d/%d vs %d/%d/%d",
			len(got.Discrepancies), got.PathsCompared, got.RawPaths,
			len(want.Discrepancies), want.PathsCompared, want.RawPaths)
	}
}

func TestCrossCompareContextCanceled(t *testing.T) {
	t.Parallel()
	policies := make([]*rule.Policy, 4)
	for i := range policies {
		policies[i] = synth.Synthetic(synth.Config{Rules: 600, Seed: int64(i + 1)})
	}
	// The four constructions alone poll ctx at least 2,400 times.
	ctx, cancel := cancelAtPoll(2000)
	defer cancel()
	if _, err := CrossCompareContext(ctx, policies); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// countingCtx counts its Err calls: the polls a pipeline makes.
type countingCtx struct {
	context.Context
	polls atomic.Int32
}

func (c *countingCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// TestDiffRowsHonorCancel cancels a direct diff between its product
// walk and its rows: at the first poll after the walk's last one. The
// rows must see the cancel and return the wrapped error with no report,
// as the walk would have. Counting the polls of the walk alone and of
// the whole diff also shows the enumeration and the merge poll on the
// way, not only once at the end.
func TestDiffRowsHonorCancel(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(1500)
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatal(err)
	}
	walk := &countingCtx{Context: context.Background()}
	if _, err := newPairWalker().run(walk, fa, fb); err != nil {
		t.Fatal(err)
	}
	whole := &countingCtx{Context: context.Background()}
	report, err := DiffFDDsDirectContext(whole, fa, fb)
	if err != nil || report.Equivalent() {
		t.Fatalf("uncanceled diff: err %v", err)
	}
	if rowPolls := whole.polls.Load() - walk.polls.Load(); rowPolls < 3 {
		t.Fatalf("the rows of %d discrepancies polled %d times, want more than the final poll",
			len(report.Discrepancies), rowPolls)
	}

	ctx, cancel := cancelAtPoll(walk.polls.Load() + 1)
	defer cancel()
	report, err = DiffFDDsDirectContext(ctx, fa, fb)
	if report != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("report=%v err=%v, want nil report and context.Canceled", report, err)
	}
}
