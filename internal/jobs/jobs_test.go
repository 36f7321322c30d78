package jobs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// testPolicies builds n small distinct synthetic policies named p1..pn.
func testPolicies(t *testing.T, n int) ([]string, []*rule.Policy) {
	t.Helper()
	names := make([]string, n)
	policies := make([]*rule.Policy, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("p%d", i+1)
		policies[i] = synth.Synthetic(synth.Config{Rules: 15, Seed: int64(i + 1)})
	}
	return names, policies
}

// waitJob blocks until the job is terminal (or the test deadline).
func waitJob(t *testing.T, c *Coordinator, id string) Snapshot {
	t.Helper()
	done, err := c.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	snap, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestHashSharder: shard places a pair in range, deterministically and
// symmetrically.
func TestHashSharder(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for i := 0; i < 50; i++ {
			a, b := fmt.Sprintf("hash%d", i), fmt.Sprintf("hash%d", i*7+1)
			w := shard(a, b, workers)
			if w < 0 || w >= workers {
				t.Fatalf("Shard(%q, %q, %d) = %d out of range", a, b, workers, w)
			}
			if w2 := shard(a, b, workers); w2 != w {
				t.Fatalf("Shard not deterministic: %d then %d", w, w2)
			}
			// Symmetric: argument order must not change placement.
			if w2 := shard(b, a, workers); w2 != w {
				t.Fatalf("Shard not symmetric: (a,b)=%d (b,a)=%d", w, w2)
			}
		}
	}
}

func TestCrossCompareJobCompletes(t *testing.T) {
	names, policies := testPolicies(t, 4)
	reg := metrics.NewRegistry()
	buf := trace.NewBuffer(8, 0, 0)
	c := New(engine.New(engine.Config{}), Config{Workers: 3, Metrics: reg, Traces: buf})
	defer c.Close()

	snap, err := c.Submit(Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Progress.Total != 6 {
		t.Fatalf("4 policies: total pairs = %d, want 6", snap.Progress.Total)
	}
	final := waitJob(t, c, snap.ID)
	if final.State != StateCompleted {
		t.Fatalf("state = %s", final.State)
	}
	p := final.Progress
	if p.Settled != 6 || p.OK != 6 || p.Errors != 0 || p.Skipped != 0 {
		t.Fatalf("progress = %+v", p)
	}
	for _, pr := range final.Pairs {
		if pr.Status != PairOK || pr.Report == nil || pr.Err != nil {
			t.Fatalf("pair %q = %+v", pr.Name, pr)
		}
	}
	if final.Pairs[0].Name != "p1 vs p2" {
		t.Fatalf("derived pair name = %q", final.Pairs[0].Name)
	}
	if final.TraceID == "" || final.Started.IsZero() || final.Finished.IsZero() {
		t.Fatalf("missing trace/timestamps: %+v", final)
	}
	// The RETAINED job trace carries one job.pair span per pair — the
	// last pair's span must land before finalize snapshots the trace.
	var jobTraces, pairSpans int
	for _, rec := range buf.Snapshot().Recent {
		if rec.Root.Name != "job" {
			continue
		}
		jobTraces++
		rec.Root.Walk(func(s trace.SpanRecord) {
			if s.Name == "job.pair" {
				pairSpans++
			}
		})
	}
	if jobTraces != 1 || pairSpans != 6 {
		t.Fatalf("retained traces: %d job traces with %d job.pair spans, want 1 with 6", jobTraces, pairSpans)
	}
}

func TestBatchDiffSelectsExactPairs(t *testing.T) {
	names, policies := testPolicies(t, 3)
	c := New(engine.New(engine.Config{}), Config{Workers: 2})
	defer c.Close()

	snap, err := c.Submit(Spec{
		Kind: KindBatchDiff, SchemaName: "five", Names: names, Policies: policies,
		Pairs:     []Pair{{I: 0, J: 2}, {I: 2, J: 1}},
		PairNames: []string{"edge", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, snap.ID)
	if final.State != StateCompleted || final.Progress.OK != 2 {
		t.Fatalf("state = %s progress = %+v", final.State, final.Progress)
	}
	if final.Pairs[0].Name != "edge" || final.Pairs[1].Name != "p3 vs p2" {
		t.Fatalf("pair names = %q, %q", final.Pairs[0].Name, final.Pairs[1].Name)
	}
}

func TestSubmitValidation(t *testing.T) {
	names, policies := testPolicies(t, 2)
	c := New(engine.New(engine.Config{}), Config{})
	defer c.Close()

	cases := []Spec{
		{Kind: KindCrossCompare, Names: names[:1], Policies: policies[:1]},                   // too few
		{Kind: KindBatchDiff, Names: names, Policies: policies},                              // no pairs
		{Kind: KindBatchDiff, Names: names, Policies: policies, Pairs: []Pair{{I: 0, J: 5}}}, // out of range
		{Kind: KindBatchDiff, Names: names, Policies: policies, Pairs: []Pair{{I: 1, J: 1}}}, // self pair
		{Kind: Kind("frobnicate"), Names: names, Policies: policies},                         // unknown kind
		{Kind: KindCrossCompare, Names: names[:1], Policies: policies},                       // names mismatch
	}
	for i, spec := range cases {
		if _, err := c.Submit(spec); err == nil {
			t.Fatalf("case %d: Submit accepted invalid spec", i)
		}
	}
}

func TestCancelReachesInFlightPairs(t *testing.T) {
	names, policies := testPolicies(t, 3)
	// Every pair blocks until its context dies: cancellation is the only
	// way this job can end.
	remove := chaos.Register(chaos.PointJobPair, chaos.Latency(time.Hour))
	defer remove()

	c := New(engine.New(engine.Config{}), Config{Workers: 2})
	defer c.Close()
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a worker to actually pick a pair up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := c.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	canceled, err := c.Cancel(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("state after cancel = %s", canceled.State)
	}
	if canceled.Progress.Skipped != canceled.Progress.Total {
		t.Fatalf("progress after cancel = %+v, want all skipped", canceled.Progress)
	}
	// The Done channel is closed and a second cancel is a no-op.
	final := waitJob(t, c, snap.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s", final.State)
	}
	if again, err := c.Cancel(snap.ID); err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %v, state %s", err, again.State)
	}
}

func TestRetentionPurgesFinishedJobs(t *testing.T) {
	names, policies := testPolicies(t, 2)
	c := New(engine.New(engine.Config{}), Config{Workers: 1, Retention: 20 * time.Millisecond})
	defer c.Close()
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, snap.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Get(snap.ID); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never purged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := len(c.List()); n != 0 {
		t.Fatalf("List() has %d jobs after purge", n)
	}
}

func TestMaxJobsCap(t *testing.T) {
	names, policies := testPolicies(t, 2)
	remove := chaos.Register(chaos.PointJobPair, chaos.Latency(time.Hour))
	defer remove()
	c := New(engine.New(engine.Config{}), Config{Workers: 1, MaxJobs: 1})
	defer c.Close()
	spec := Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("over-cap Submit = %v, want ErrTooManyJobs", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	names, policies := testPolicies(t, 2)
	c := New(engine.New(engine.Config{}), Config{})
	c.Close()
	_, err := c.Submit(Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

func TestCloseCancelsLiveJobs(t *testing.T) {
	names, policies := testPolicies(t, 3)
	remove := chaos.Register(chaos.PointJobPair, chaos.Latency(time.Hour))
	defer remove()
	c := New(engine.New(engine.Config{}), Config{Workers: 2})
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, SchemaName: "five", Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	final, err := c.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after Close = %s", final.State)
	}
}
