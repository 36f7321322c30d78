package trace

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	ctx, tr := New(context.Background(), "root", "abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q, want abc123", tr.ID())
	}
	ctx2, sp := Start(ctx, "construct")
	if sp == nil {
		t.Fatal("Start under an active trace returned nil span")
	}
	sp.SetAttr("nodes", 42)
	grand := sp.StartChild("reduce")
	grand.End()
	sp.End()
	Event(ctx2, "cache-lookup", A("hit", true))
	_, sib := Start(ctx, "compare")
	sib.End()
	tr.Finish()

	rec := tr.Snapshot()
	if rec.TraceID != "abc123" {
		t.Fatalf("TraceID = %q", rec.TraceID)
	}
	if rec.Root.Name != "root" {
		t.Fatalf("root name = %q", rec.Root.Name)
	}
	if len(rec.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(rec.Root.Children))
	}
	cons, ok := rec.Root.Find("construct")
	if !ok {
		t.Fatal("construct span missing")
	}
	if got := cons.Attrs["nodes"]; got != 42 {
		t.Fatalf("nodes attr = %v, want 42", got)
	}
	// Event attaches to the context's active span — construct, since ctx2
	// carries it.
	if _, ok := cons.Find("cache-lookup"); !ok {
		t.Fatal("cache-lookup event not under construct")
	}
	if _, ok := cons.Find("reduce"); !ok {
		t.Fatal("reduce child missing")
	}
	if _, ok := rec.Root.Find("compare"); !ok {
		t.Fatal("compare sibling missing")
	}

	var names []string
	rec.Root.Walk(func(s SpanRecord) { names = append(names, s.Name) })
	if len(names) != 5 {
		t.Fatalf("Walk visited %d spans, want 5: %v", len(names), names)
	}
	if names[0] != "root" {
		t.Fatalf("Walk order starts at %q, want root", names[0])
	}
}

func TestEndIdempotent(t *testing.T) {
	_, tr := New(context.Background(), "root", "")
	tr.Finish()
	first := tr.Snapshot().Root.DurationMicros
	time.Sleep(2 * time.Millisecond)
	tr.Finish()
	if again := tr.Snapshot().Root.DurationMicros; again != first {
		t.Fatalf("second Finish moved duration: %d -> %d", first, again)
	}
}

func TestUntracedNoops(t *testing.T) {
	ctx := context.Background()
	if Active(ctx) != nil {
		t.Fatal("Active on plain context should be nil")
	}
	ctx2, sp := Start(ctx, "phase")
	if sp != nil {
		t.Fatal("Start on untraced context should return nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start on untraced context should return ctx unchanged")
	}
	// Every method must be a no-op on nil, not a panic.
	sp.SetAttr("k", 1)
	sp.End()
	sp.AddCompleted("w", time.Now(), time.Millisecond)
	if c := sp.StartChild("c"); c != nil {
		t.Fatal("StartChild on nil span should return nil")
	}
	if got := sp.Snapshot(); got.Name != "" {
		t.Fatalf("nil Snapshot = %+v", got)
	}
	Event(ctx, "e") // must not panic
}

func TestSnapshotWhileRunning(t *testing.T) {
	_, tr := New(context.Background(), "root", "")
	time.Sleep(time.Millisecond)
	rec := tr.Snapshot()
	if rec.Root.DurationMicros <= 0 {
		t.Fatalf("running span duration = %d, want > 0", rec.Root.DurationMicros)
	}
}

func TestNewGeneratesID(t *testing.T) {
	_, tr := New(context.Background(), "root", "")
	if len(tr.ID()) != 16 {
		t.Fatalf("generated ID %q, want 16 hex chars", tr.ID())
	}
	_, tr2 := New(context.Background(), "root", "")
	if tr.ID() == tr2.ID() {
		t.Fatalf("two generated IDs collided: %q", tr.ID())
	}
}

// TestWalkDurationsMatchesSnapshot: WalkDurations visits the spans
// SnapshotAt records, in its walk order, with the same durations, running
// spans included; and it may run while another goroutine adds children,
// attributes and ends to the tree it walks.
func TestWalkDurationsMatchesSnapshot(t *testing.T) {
	_, tr := New(context.Background(), "root", "walk")
	mid := tr.Root().StartChild("mid")
	tr.Root().AddCompleted("done", time.Now().Add(-time.Second), 1500*time.Microsecond)
	mid.StartChild("running").StartChild("ended").End()
	type visit struct {
		name   string
		micros int64
	}
	walk := func(now time.Time) (walked, snap []visit) {
		tr.Root().WalkDurations(now, func(name string, d time.Duration) {
			walked = append(walked, visit{name, d.Microseconds()})
		})
		tr.Root().SnapshotAt(now).Walk(func(sr SpanRecord) {
			snap = append(snap, visit{sr.Name, sr.DurationMicros})
		})
		return walked, snap
	}
	now := time.Now().Add(time.Second)
	if walked, snap := walk(now); len(walked) != 5 || fmt.Sprint(walked) != fmt.Sprint(snap) {
		t.Fatalf("walk visited %v, the snapshot records %v", walked, snap)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 1000 {
			c := mid.StartChild("leaf")
			c.SetAttr("i", i)
			if i%2 == 0 {
				c.End()
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		// A child added after the walk read its parent is missing from
		// the walk and may be in the later snapshot.
		walked, snap := walk(time.Now())
		if len(walked) < 5 || len(walked) > len(snap) || walked[0] != snap[0] || walked[1] != snap[1] {
			t.Fatalf("walk visited %d spans from %v, the later snapshot %d from %v", len(walked), walked[:2], len(snap), snap[:2])
		}
	}
	var nilSpan *Span
	nilSpan.WalkDurations(time.Now(), func(string, time.Duration) { t.Fatal("a nil span was walked") })
}
