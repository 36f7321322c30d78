package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

// countingCtx counts its Err calls and reports cancellation once
// canceled is set.
type countingCtx struct {
	context.Context
	polls    int
	canceled bool
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.canceled {
		return context.Canceled
	}
	return nil
}

// tick runs n metered visits, each charging one node, and reports
// whether any of them stopped the walk.
func tick(m *Meter, n int) bool {
	stopped := false
	for range n {
		m.AddNodes(1)
		if m.Tick() {
			stopped = true
		}
	}
	return stopped
}

func TestMeterPollCadence(t *testing.T) {
	b := NewBudget(Limits{})
	ctx := &countingCtx{Context: WithBudget(context.Background(), b)}
	m := NewMeter(ctx)
	if tick(&m, PollEvery-1) {
		t.Fatal("stopped before any poll")
	}
	if ctx.polls != 0 || b.Usage().Nodes != 0 {
		t.Fatalf("before the first poll: %d ctx polls, %d nodes charged; want none",
			ctx.polls, b.Usage().Nodes)
	}
	tick(&m, 1)
	if ctx.polls != 1 || b.Usage().Nodes != PollEvery {
		t.Fatalf("at the first poll: %d ctx polls, %d nodes charged; want 1 and %d",
			ctx.polls, b.Usage().Nodes, PollEvery)
	}
	tick(&m, 2*PollEvery)
	if ctx.polls != 3 || b.Usage().Nodes != 3*PollEvery {
		t.Fatalf("after three intervals: %d ctx polls, %d nodes charged; want 3 and %d",
			ctx.polls, b.Usage().Nodes, 3*PollEvery)
	}
}

func TestMeterLatchAndPrecedence(t *testing.T) {
	t.Run("cancel latches", func(t *testing.T) {
		ctx := &countingCtx{Context: context.Background(), canceled: true}
		m := NewMeter(ctx)
		if !tick(&m, PollEvery) {
			t.Fatal("a canceled ctx did not stop the walk at the poll")
		}
		polls := ctx.polls
		for range 10 {
			if !m.Tick() {
				t.Fatal("a latched meter let a visit through")
			}
		}
		if ctx.polls != polls {
			t.Fatalf("a latched meter polled ctx %d more times", ctx.polls-polls)
		}
		if !errors.Is(m.Err(), context.Canceled) || !errors.Is(m.Flush(), context.Canceled) {
			t.Fatalf("Err = %v, Flush = %v; want context.Canceled", m.Err(), m.Flush())
		}
	})
	t.Run("budget over cancel at one poll", func(t *testing.T) {
		b := NewBudget(Limits{MaxFDDNodes: 10})
		ctx, cancel := context.WithCancel(WithBudget(context.Background(), b))
		cancel()
		m := NewMeter(ctx)
		tick(&m, PollEvery)
		var be *ErrBudgetExceeded
		if !errors.As(m.Err(), &be) || be.Kind != KindNodes {
			t.Fatalf("Err = %v, want the fdd_nodes crossing", m.Err())
		}
	})
	t.Run("budget over an earlier cancel", func(t *testing.T) {
		b := NewBudget(Limits{})
		ctx, cancel := context.WithCancel(WithBudget(context.Background(), b))
		cancel()
		m := NewMeter(ctx)
		if err := m.Flush(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Flush = %v, want context.Canceled", err)
		}
		// Another shard crosses the budget after this one stopped on the
		// cancel: the walk's error is the crossing.
		b.ForceExceed(KindSplits)
		var be *ErrBudgetExceeded
		if !errors.As(m.Err(), &be) || be.Kind != KindSplits {
			t.Fatalf("Err = %v, want the edge_splits crossing", m.Err())
		}
	})
	t.Run("first budget error kept", func(t *testing.T) {
		b := NewBudget(Limits{MaxEdgeSplits: 1})
		m := NewMeter(WithBudget(context.Background(), b))
		m.AddSplits(2)
		if err := m.Flush(); !errors.Is(err, ErrBudget) {
			t.Fatalf("Flush = %v, want a budget error", err)
		}
		m.AddNodes(1 << 20)
		m.Flush()
		if u := b.Usage(); u.Nodes != 0 || u.Exceeded != KindSplits {
			t.Fatalf("usage after the latch = %+v, want no nodes charged and edge_splits exceeded", u)
		}
	})
}

func TestMeterFlushChargesTail(t *testing.T) {
	b := NewBudget(Limits{})
	m := NewMeter(WithBudget(context.Background(), b))
	m.AddSplits(3)
	tick(&m, 5)
	if u := b.Usage(); u.Nodes != 0 || u.Splits != 0 {
		t.Fatalf("charged %+v before the flush", u)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if u := b.Usage(); u.Nodes != 5 || u.Splits != 3 {
		t.Fatalf("Flush charged %d nodes and %d splits, want 5 and 3", u.Nodes, u.Splits)
	}
	// A second flush has nothing left to charge.
	if err := m.Flush(); err != nil || b.Usage().Nodes != 5 {
		t.Fatalf("second Flush = %v with %d nodes charged", err, b.Usage().Nodes)
	}
}

func TestMeterNilBudget(t *testing.T) {
	m := NewMeter(context.Background())
	if tick(&m, 3*PollEvery) {
		t.Fatal("an unbudgeted, live meter stopped")
	}
	m.AddSplits(1 << 40)
	if err := m.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	var zero Meter
	zero.AddNodes(1 << 40)
	if tick(&zero, 3*PollEvery) || zero.Flush() != nil {
		t.Fatal("the zero meter stopped")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m = NewMeter(ctx)
	if !tick(&m, PollEvery) || !errors.Is(m.Err(), context.Canceled) {
		t.Fatalf("an unbudgeted meter ignored cancellation: %v", m.Err())
	}
}

func TestMeterPollChecksWallClock(t *testing.T) {
	b := NewBudget(Limits{MaxWall: time.Millisecond})
	m := NewMeter(WithBudget(context.Background(), b))
	time.Sleep(5 * time.Millisecond)
	// Visits that charge nothing: the poll still reads the clock.
	for range PollEvery - 1 {
		if m.Tick() {
			t.Fatal("stopped before the poll")
		}
	}
	if !m.Tick() {
		t.Fatal("a poll with nothing pending missed the wall-clock deadline")
	}
	var be *ErrBudgetExceeded
	if !errors.As(m.Err(), &be) || be.Kind != KindWall {
		t.Fatalf("Err = %v, want the wall_clock crossing", m.Err())
	}
}

func TestVerb(t *testing.T) {
	if got := Verb(&ErrBudgetExceeded{Kind: KindNodes}); got != "aborted" {
		t.Fatalf("Verb(budget) = %q", got)
	}
	if got := Verb(context.Canceled); got != "canceled" {
		t.Fatalf("Verb(cancel) = %q", got)
	}
}

// lateTimerCtx is a context whose deadline is d but whose cancel timer
// has not run: Err stays nil, as it does past a deadline on a machine
// too busy to run the timer.
type lateTimerCtx struct {
	context.Context
	d time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.d, true }

// TestMeterDeadlineByClock: a meter and CtxErr report a passed deadline
// as context.DeadlineExceeded before the context's timer has canceled
// it, and a deadline still ahead as nothing.
func TestMeterDeadlineByClock(t *testing.T) {
	past := lateTimerCtx{context.Background(), time.Now().Add(-time.Millisecond)}
	m := NewMeter(past)
	if err := m.Flush(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("meter past its deadline: Flush = %v, want context.DeadlineExceeded", err)
	}
	if err := CtxErr(past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CtxErr past the deadline = %v, want context.DeadlineExceeded", err)
	}
	ahead := lateTimerCtx{context.Background(), time.Now().Add(time.Hour)}
	m = NewMeter(ahead)
	if err := m.Flush(); err != nil {
		t.Fatalf("meter before its deadline: Flush = %v, want nil", err)
	}
	if err := CtxErr(ahead); err != nil {
		t.Fatalf("CtxErr before the deadline = %v, want nil", err)
	}
}
