package guard

import (
	"context"
	"errors"
	"time"
)

// PollEvery is how many visits a Meter counts between polls: frequent
// enough that a cancellation or a budget crossing stops a walk within
// microseconds of work, rare enough that the poll (an atomic add per
// pending kind plus a mutex acquisition inside context) stays invisible
// in profiles.
const PollEvery = 256

// Meter is one goroutine's abort meter for a pipeline walk. The walk
// calls Tick once per visit and records the work it materializes with
// AddNodes and AddSplits; every PollEvery ticks the meter charges the
// pending work to the context's Budget and polls ctx. The first error
// it sees is latched, and every later Tick reports it, so a walk
// unwinds by checking one bool per visit. Flush charges the tail when
// the walk ends.
//
// A Meter is not safe for concurrent use: each shard of a parallel walk
// takes its own. The shards need no shared flag to stop each other —
// the Budget latches its own crossing and every shard polls the same
// ctx, so a sibling stops within one poll interval, and a Flush after
// the shards have joined sees whichever condition stopped them.
//
// The zero Meter never stops and charges nothing.
type Meter struct {
	ctx    context.Context
	budget *Budget
	// deadline is ctx's deadline, the zero time when it has none.
	deadline time.Time
	left     int   // ticks until the next poll
	nodes    int64 // pending node charges
	splits   int64 // pending split charges
	err      error // latched by the first poll that failed
}

// NewMeter returns a meter that polls ctx and charges ctx's Budget (none
// when ctx carries no budget).
func NewMeter(ctx context.Context) Meter {
	m := Meter{ctx: ctx, budget: FromContext(ctx), left: PollEvery}
	if ctx != nil {
		m.deadline, _ = ctx.Deadline()
	}
	return m
}

// CtxErr is ctx.Err(), except that a context whose deadline has passed
// reports context.DeadlineExceeded also before the runtime has fired the
// timer that cancels it. That timer can run tens of milliseconds late
// on a machine whose CPUs are all busy; a wait that checks CtxErr, like
// a Meter's poll, stops at the deadline whatever the scheduler does.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Tick counts one visit and reports whether the walk must stop. It
// polls once every PollEvery calls and, once an error is latched, on
// every call.
func (m *Meter) Tick() bool {
	m.left--
	if m.left > 0 {
		return false
	}
	return m.poll()
}

// AddNodes records n materialized nodes, charged at the next poll.
func (m *Meter) AddNodes(n int) { m.nodes += int64(n) }

// AddSplits records n shaping edge splits, charged at the next poll.
func (m *Meter) AddSplits(n int) { m.splits += int64(n) }

// Flush charges the pending work, polls once more, and returns Err. A
// walk calls it when it ends, so its tail is charged even when the walk
// was shorter than one poll interval.
func (m *Meter) Flush() error {
	m.poll()
	return m.Err()
}

// Err returns the latched error, nil while the walk may go on. The
// budget's typed error takes precedence over a cancellation, also one
// latched before the budget crossed, so callers can map an over-budget
// walk to its typed failure whichever shard saw what first.
func (m *Meter) Err() error {
	if m.err != nil && m.budget != nil {
		if e := m.budget.exceeded.Load(); e != nil {
			return e
		}
	}
	return m.err
}

// poll charges the pending work and checks the budget (wall clock
// included) and then ctx, latching the first error. It reports whether
// one is latched; until one is, it restarts the countdown.
func (m *Meter) poll() bool {
	if m.err != nil {
		return true
	}
	nodes, splits := m.nodes, m.splits
	m.nodes, m.splits = 0, 0
	if b := m.budget; b != nil {
		if nodes > 0 {
			m.err = b.AddNodes(nodes)
		}
		if m.err == nil && splits > 0 {
			m.err = b.AddSplits(splits)
		}
		if m.err == nil {
			m.err = b.Err()
		}
	}
	if m.err == nil && m.ctx != nil {
		m.err = m.ctx.Err()
		if m.err == nil && !m.deadline.IsZero() && !time.Now().Before(m.deadline) {
			m.err = context.DeadlineExceeded
		}
	}
	if m.err != nil {
		return true
	}
	m.left = PollEvery
	return false
}

// Verb names how a walk that stopped on err ended, for the stage's
// error message: "aborted" for a budget crossing, "canceled" otherwise.
func Verb(err error) string {
	if errors.Is(err, ErrBudget) {
		return "aborted"
	}
	return "canceled"
}
