package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/metrics"
	"diversefw/internal/trace"
)

// TestRunReusesCompiledFDDs: a Run cross-comparison reports its pairs in
// (i, j) order, constructs each policy exactly once however many pairs
// share it, and a warm rerun of the same matrix is all report-cache
// hits.
func TestRunReusesCompiledFDDs(t *testing.T) {
	names, policies := testPolicies(t, 3)
	eng := engine.New(engine.Config{})
	c := New(eng, Config{Workers: 2})
	defer c.Close()
	spec := Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies}

	snap, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCompleted || len(snap.Pairs) != 3 {
		t.Fatalf("state = %s, pairs = %d, want completed with 3", snap.State, len(snap.Pairs))
	}
	for k, want := range []Pair{{0, 1}, {0, 2}, {1, 2}} {
		pr := snap.Pairs[k]
		if pr.Pair != want || pr.Status != PairOK || pr.Report == nil {
			t.Fatalf("pair %d = %+v, want %v ok", k, pr, want)
		}
	}
	// N policies, N compilations — the pairs themselves construct nothing.
	if st := eng.Stats(); st.Compilations != uint64(len(policies)) {
		t.Fatalf("Stats().Compilations = %d, want %d", st.Compilations, len(policies))
	}

	before := eng.Stats().Reports.Hits
	if _, err := c.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if hits := eng.Stats().Reports.Hits - before; hits != 3 {
		t.Fatalf("warm rerun report hits = %d, want 3", hits)
	}
}

// TestRunLeavesNoJobRecord: a Run job belongs to its caller. It is not
// listed, journaled or traced on its own, and the job-level instruments
// do not count it; its pair spans land on the caller's trace and the
// pair-level instruments count its pairs.
func TestRunLeavesNoJobRecord(t *testing.T) {
	dir := t.TempDir()
	names, policies := testPolicies(t, 3)
	reg := metrics.NewRegistry()
	buf := trace.NewBuffer(8, 0, 0)
	c := New(engine.New(engine.Config{}), Config{
		Workers: 2, Store: openTestJournal(t, dir), Metrics: reg, Traces: buf,
	})

	ctx, tr := trace.New(context.Background(), "request", "")
	snap, err := c.Run(ctx, Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCompleted || snap.Progress.OK != 3 || snap.TraceID != "" {
		t.Fatalf("snapshot = %s %+v trace %q", snap.State, snap.Progress, snap.TraceID)
	}
	if n := len(c.List()); n != 0 {
		t.Fatalf("List() has %d jobs after Run, want 0", n)
	}
	if _, err := c.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(run job) = %v, want ErrNotFound", err)
	}
	if n := len(buf.Snapshot().Recent); n != 0 {
		t.Fatalf("trace buffer holds %d traces after Run, want 0", n)
	}
	if got := c.inst.submitted.Value(); got != 0 {
		t.Fatalf("fwjobs_submitted_total = %d, want 0", got)
	}
	if got := c.inst.active.Value(); got != 0 {
		t.Fatalf("fwjobs_active = %d, want 0", got)
	}
	if got := c.inst.pairs.With(string(PairOK)).Value(); got != 3 {
		t.Fatalf("fwjobs_pairs_total{status=ok} = %d, want 3", got)
	}

	tr.Finish()
	spans := map[string]int{}
	for _, child := range tr.Snapshot().Root.Children {
		spans[child.Name]++
	}
	// Each distinct policy and pair misses its cache once; a pair that
	// joins another's compile flight opens a compile span of its own.
	if spans["job.pair"] != 3 || spans["compile"] < 3 || spans["diff"] != 3 {
		t.Fatalf("caller trace children = %v, want 3 job.pair, 3+ compile, 3 diff", spans)
	}

	c.Close()
	rep := openTestJournal(t, dir).RecoveryReport()
	if rep.RecordsApplied != 0 || rep.JobsRecovered != 0 {
		t.Fatalf("journal after Run: %+v, want no records", rep)
	}
}

// blockPairs makes every pair block at the chaos point until its job
// dies, and returns a channel closed once the first pair is blocked.
func blockPairs(t *testing.T) <-chan struct{} {
	t.Helper()
	started := make(chan struct{})
	var once sync.Once
	remove := chaos.Register(chaos.PointJobPair, func(ctx context.Context) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	t.Cleanup(remove)
	return started
}

// closeWithin fails the test when Close does not return promptly.
func closeWithin(t *testing.T, c *Coordinator) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestRunCancel: canceling the caller's context mid-run returns
// context.Canceled with every unsettled pair skipped, and Close still
// returns.
func TestRunCancel(t *testing.T) {
	names, policies := testPolicies(t, 3)
	started := blockPairs(t)
	c := New(engine.New(engine.Config{}), Config{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	snap, err := c.Run(ctx, Spec{Kind: KindCrossCompare, Names: names, Policies: policies})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if snap.State != StateCanceled || snap.Progress.Skipped != 3 || snap.Progress.Settled != 3 {
		t.Fatalf("snapshot = %s %+v, want canceled with 3 skipped", snap.State, snap.Progress)
	}
	for _, pr := range snap.Pairs {
		if pr.Status != PairSkipped {
			t.Fatalf("pair %q = %s, want skipped", pr.Name, pr.Status)
		}
	}
	closeWithin(t, c)
}

// TestRunClosed: Close interrupts a Run, which returns ErrClosed, and a
// Run after Close fails fast with ErrClosed.
func TestRunClosed(t *testing.T) {
	names, policies := testPolicies(t, 3)
	started := blockPairs(t)
	c := New(engine.New(engine.Config{}), Config{Workers: 2})
	spec := Spec{Kind: KindCrossCompare, Names: names, Policies: policies}

	go func() {
		<-started
		c.Close()
	}()
	snap, err := c.Run(context.Background(), spec)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Run interrupted by Close = %v, want ErrClosed", err)
	}
	if snap.State != StateCanceled || snap.Progress.Skipped != 3 {
		t.Fatalf("snapshot = %s %+v, want canceled with 3 skipped", snap.State, snap.Progress)
	}
	closeWithin(t, c)
	if _, err := c.Run(context.Background(), spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}
