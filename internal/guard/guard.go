// Package guard provides per-request work budgets for the analysis
// pipeline. FDD construction, shaping, and comparison are worst-case
// exponential in the number of rules (PAPER.md Sections 3-4), so a
// single pathological policy can otherwise exhaust memory or pin a
// worker for minutes. A Budget caps the four resources that blow up —
// FDD nodes materialized, shaping edge splits, approximate resident
// bytes, and wall clock — and the pipeline walks abort with a typed
// ErrBudgetExceeded the moment any cap is crossed.
//
// Every walk charges and polls through one Meter per goroutine (see
// meter.go): it accumulates work locally and, every PollEvery visits,
// flushes it into the Budget's atomics and polls ctx, so the hot path
// pays one atomic add per batch, not per node. Once any flush crosses a
// limit the budget latches its error; every other worker sees the latch
// on its next poll and unwinds, exactly like cancellation.
//
// Budgets travel through context.Context (WithBudget / FromContext) and
// survive context.WithoutCancel, so a budget set on a request flows
// into the engine's detached singleflight flights like trace spans do.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Kind names one budgeted resource.
type Kind string

// The budgeted resource kinds. The string values are stable: they are
// surfaced in error messages, metrics labels, and trace attributes.
const (
	// KindNodes counts FDD nodes materialized: construction appends,
	// shaping subgraph replication, and comparison interning all create
	// nodes, and node count is the memory and CPU driver of the paper's
	// blowup bound.
	KindNodes Kind = "fdd_nodes"
	// KindSplits counts shaping edge splits (each split also replicates
	// a subgraph — the Section 4 complexity driver).
	KindSplits Kind = "edge_splits"
	// KindBytes is the approximate resident-byte estimate derived from
	// nodes and edges (same cost model as the engine's cache charging).
	KindBytes Kind = "bytes"
	// KindWall is wall-clock time since the budget was created.
	KindWall Kind = "wall_clock"
)

// ErrBudgetExceeded reports that a pipeline walk crossed a work budget.
// Callers match it with errors.As (it carries which resource tripped)
// or errors.Is against ErrBudget.
type ErrBudgetExceeded struct {
	Kind  Kind
	Limit int64
	Used  int64
}

// ErrBudget is the errors.Is target matching any ErrBudgetExceeded.
var ErrBudget = errors.New("work budget exceeded")

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("work budget exceeded: %s used %d of limit %d", e.Kind, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrBudget) true for any ErrBudgetExceeded.
func (e *ErrBudgetExceeded) Is(target error) bool { return target == ErrBudget }

// Limits configures a Budget. Zero fields are unlimited.
type Limits struct {
	// MaxFDDNodes caps nodes materialized across one request's
	// construction, shaping, and comparison walks.
	MaxFDDNodes int64
	// MaxEdgeSplits caps shaping edge splits.
	MaxEdgeSplits int64
	// MaxBytes caps the approximate resident bytes of diagrams built for
	// the request.
	MaxBytes int64
	// MaxWall caps wall-clock time from NewBudget.
	MaxWall time.Duration
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.MaxFDDNodes > 0 || l.MaxEdgeSplits > 0 || l.MaxBytes > 0 || l.MaxWall > 0
}

// Budget tracks one request's work against its limits. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops returning
// nil), so pipeline code charges unconditionally — an unbudgeted walk
// pays one nil check per batch.
type Budget struct {
	limits   Limits
	start    time.Time
	deadline time.Time // zero when MaxWall is unset

	nodes  atomic.Int64
	splits atomic.Int64
	bytes  atomic.Int64

	// exceeded latches the first crossing so every walker unwinds with
	// the same error and later polls are one atomic load.
	exceeded atomic.Pointer[ErrBudgetExceeded]
}

// NewBudget starts a budget clock with the given limits.
func NewBudget(l Limits) *Budget {
	b := &Budget{limits: l, start: time.Now()}
	if l.MaxWall > 0 {
		b.deadline = b.start.Add(l.MaxWall)
	}
	return b
}

// Limits returns the configured limits.
func (b *Budget) Limits() Limits {
	if b == nil {
		return Limits{}
	}
	return b.limits
}

// trip latches err if no earlier crossing did, and returns the latched
// error (the winner of a race, so all walkers agree).
func (b *Budget) trip(err *ErrBudgetExceeded) *ErrBudgetExceeded {
	if b.exceeded.CompareAndSwap(nil, err) {
		return err
	}
	return b.exceeded.Load()
}

// ForceExceed trips the budget as if kind's limit were crossed, no
// matter the real usage. It is the hook fault injection uses to make
// "budget exhausted mid-pipeline" deterministic in tests.
func (b *Budget) ForceExceed(kind Kind) error {
	if b == nil {
		return nil
	}
	return b.trip(&ErrBudgetExceeded{Kind: kind, Limit: 0, Used: 0})
}

// AddNodes charges n materialized nodes (and their approximate bytes)
// and reports whether the budget is now exceeded. Callers batch: one
// call per few hundred nodes, not per node.
func (b *Budget) AddNodes(n int64) error {
	if b == nil {
		return nil
	}
	if err := b.exceeded.Load(); err != nil {
		return err
	}
	used := b.nodes.Add(n)
	if b.limits.MaxFDDNodes > 0 && used > b.limits.MaxFDDNodes {
		return b.trip(&ErrBudgetExceeded{Kind: KindNodes, Limit: b.limits.MaxFDDNodes, Used: used})
	}
	// Nodes dominate the resident-size estimate; edges are charged with
	// their node. nodeApproxBytes keeps the two caps independently
	// meaningful without a second walk.
	usedBytes := b.bytes.Add(n * nodeApproxBytes)
	if b.limits.MaxBytes > 0 && usedBytes > b.limits.MaxBytes {
		return b.trip(&ErrBudgetExceeded{Kind: KindBytes, Limit: b.limits.MaxBytes, Used: usedBytes})
	}
	return b.checkWall()
}

// nodeApproxBytes is the per-node resident estimate: one node header
// plus its average edge and label share (the engine's cache cost model
// uses the same constants).
const nodeApproxBytes = 128

// AddSplits charges n shaping edge splits.
func (b *Budget) AddSplits(n int64) error {
	if b == nil {
		return nil
	}
	if err := b.exceeded.Load(); err != nil {
		return err
	}
	used := b.splits.Add(n)
	if b.limits.MaxEdgeSplits > 0 && used > b.limits.MaxEdgeSplits {
		return b.trip(&ErrBudgetExceeded{Kind: KindSplits, Limit: b.limits.MaxEdgeSplits, Used: used})
	}
	return b.checkWall()
}

// checkWall trips the budget when the wall-clock deadline has passed.
func (b *Budget) checkWall() error {
	if b == nil {
		return nil
	}
	if err := b.exceeded.Load(); err != nil {
		return err
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return b.trip(&ErrBudgetExceeded{
			Kind:  KindWall,
			Limit: int64(b.limits.MaxWall / time.Millisecond),
			Used:  int64(time.Since(b.start) / time.Millisecond),
		})
	}
	return nil
}

// Err returns the latched ErrBudgetExceeded, or nil. It also polls the
// wall clock, so a walk that only reads Err still times out.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if err := b.checkWall(); err != nil {
		return err
	}
	return nil
}

// Usage is a point-in-time snapshot of a budget's consumption, for
// trace attributes and stats endpoints.
type Usage struct {
	Nodes  int64 `json:"nodes"`
	Splits int64 `json:"splits"`
	Bytes  int64 `json:"bytes"`
	// WallMillis is elapsed wall clock since the budget started.
	WallMillis int64 `json:"wallMillis"`
	// Exceeded names the resource that tripped, empty if none did.
	Exceeded Kind `json:"exceeded,omitempty"`
}

// Usage returns the current consumption snapshot.
func (b *Budget) Usage() Usage {
	if b == nil {
		return Usage{}
	}
	u := Usage{
		Nodes:      b.nodes.Load(),
		Splits:     b.splits.Load(),
		Bytes:      b.bytes.Load(),
		WallMillis: int64(time.Since(b.start) / time.Millisecond),
	}
	if err := b.exceeded.Load(); err != nil {
		u.Exceeded = err.Kind
	}
	return u
}

// ctxKey carries the active *Budget through a context chain. Like trace
// spans, budgets are context values, so they survive
// context.WithoutCancel into detached singleflight flights.
type ctxKey struct{}

// WithBudget returns a context carrying b.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext returns the context's budget, or nil (all Budget methods
// are nil-safe, so callers charge unconditionally).
func FromContext(ctx context.Context) *Budget {
	b, _ := ctx.Value(ctxKey{}).(*Budget)
	return b
}
