package compare

import (
	"context"
	"errors"
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

func TestDiffContextCancelMidRun(t *testing.T) {
	t.Parallel()
	pa, pb := bigPair(1500)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	report, err := DiffContext(ctx, pa, pb)
	// The full 1,500-rule diff takes several times 5ms on any hardware
	// (about 45ms on a 2-vCPU Xeon, most of it construction); the only
	// way to return without an error would be to ignore the cancel.
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
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(25 * time.Millisecond)
			cancel()
		}()
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
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := CrossCompareContext(ctx, policies); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}
