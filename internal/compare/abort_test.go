package compare

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
)

// dumpFDD renders f's structure, shared nodes once, so two dumps are
// equal exactly when the diagrams have the same shape, labels and
// decisions.
func dumpFDD(f *fdd.FDD) string {
	var sb strings.Builder
	ids := make(map[*fdd.Node]int)
	var walk func(n *fdd.Node) int
	walk = func(n *fdd.Node) int {
		if id, ok := ids[n]; ok {
			return id
		}
		to := make([]int, len(n.Edges))
		for i, e := range n.Edges {
			to[i] = walk(e.To)
		}
		id := len(ids)
		ids[n] = id
		if n.IsTerminal() {
			fmt.Fprintf(&sb, "%d:=%d\n", id, n.Decision)
			return id
		}
		fmt.Fprintf(&sb, "%d:f%d", id, n.Field)
		for i, e := range n.Edges {
			fmt.Fprintf(&sb, " %v->%d", e.Label, to[i])
		}
		sb.WriteByte('\n')
		return id
	}
	walk(f.Root)
	return sb.String()
}

// walkUsage runs walk under an unlimited budget and returns what it
// charged.
func walkUsage(t *testing.T, walk func(context.Context) error) guard.Usage {
	t.Helper()
	b := guard.NewBudget(guard.Limits{})
	if err := walk(guard.WithBudget(context.Background(), b)); err != nil {
		t.Fatal(err)
	}
	return b.Usage()
}

// TestBudgetAbortsBelowEngine drives a budget crossing through each
// metered walk on its own — construction, simplification, shaping (by
// edge splits and by nodes), the lockstep comparison and the product
// walk — on 1 worker and on 4. Each limit is half of what the walk
// charges when it runs to the end, several poll intervals' worth. Every walk must return the typed
// budget error of the crossed kind and no result; a crossing must win
// over a cancellation, whether both precede the walk or the cancel
// lands while it runs; the inputs must come back unmodified; and no
// goroutine may outlive the walks.
func TestBudgetAbortsBelowEngine(t *testing.T) {
	pa := synth.Synthetic(synth.Config{Rules: 80, Seed: 41})
	pb := synth.Synthetic(synth.Config{Rules: 80, Seed: 42})
	fa, err := fdd.Construct(pa)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic pair's product memoizes down to a few hundred node
	// pairs; two adversarial diagrams give the product walk real work.
	xa, err := fdd.Construct(synth.Adversarial(24))
	if err != nil {
		t.Fatal(err)
	}
	xb, err := fdd.Construct(synth.Adversarial(20))
	if err != nil {
		t.Fatal(err)
	}
	inputs := func() string {
		return rule.FormatPolicy(pa) + rule.FormatPolicy(pb) + dumpFDD(fa) + dumpFDD(fb) +
			dumpFDD(sa) + dumpFDD(sb) + dumpFDD(xa) + dumpFDD(xb)
	}
	before := inputs()

	simplifyBoth := func(ctx context.Context) error {
		if _, err := fa.SimplifyContext(ctx); err != nil {
			return err
		}
		_, err := fb.SimplifyContext(ctx)
		return err
	}
	shapeWalk := func(ctx context.Context) error {
		ra, rb, err := shape.MakeSemiIsomorphicContext(ctx, fa, fb)
		if err == nil && (ra == nil || rb == nil) {
			return errors.New("shaping returned no diagram")
		}
		if err != nil && (ra != nil || rb != nil) {
			return fmt.Errorf("aborted shaping returned a diagram: %w", err)
		}
		return err
	}
	report := func(r *Report, err error) error {
		if err == nil && r == nil {
			return errors.New("no report")
		}
		if err != nil && r != nil {
			return fmt.Errorf("aborted walk returned a report: %w", err)
		}
		return err
	}
	construct := func(ctx context.Context) error {
		f, err := fdd.ConstructContext(ctx, pa)
		if err != nil && f != nil {
			return fmt.Errorf("aborted construction returned a diagram: %w", err)
		}
		return err
	}
	lockstep := func(ctx context.Context) error { return report(CompareSemiIsomorphicContext(ctx, sa, sb)) }
	product := func(ctx context.Context) error { return report(DiffFDDsDirectContext(ctx, xa, xb)) }

	simplified := walkUsage(t, simplifyBoth).Nodes
	shaped := walkUsage(t, shapeWalk)
	// work is what the walk charges of the crossed kind when it runs to
	// the end, past the fitting simplification in "shape nodes".
	cases := []struct {
		name   string
		walk   func(context.Context) error
		kind   guard.Kind
		work   int64
		limits func(half int64) guard.Limits
	}{
		{"construction", construct, guard.KindNodes, walkUsage(t, construct).Nodes,
			func(half int64) guard.Limits { return guard.Limits{MaxFDDNodes: half} }},
		{"simplify", simplifyBoth, guard.KindNodes, simplified,
			func(half int64) guard.Limits { return guard.Limits{MaxFDDNodes: half} }},
		{"shape splits", shapeWalk, guard.KindSplits, shaped.Splits,
			func(half int64) guard.Limits { return guard.Limits{MaxEdgeSplits: half} }},
		{"shape nodes", shapeWalk, guard.KindNodes, shaped.Nodes - simplified,
			func(half int64) guard.Limits { return guard.Limits{MaxFDDNodes: simplified + half} }},
		{"lockstep", lockstep, guard.KindNodes, walkUsage(t, lockstep).Nodes,
			func(half int64) guard.Limits { return guard.Limits{MaxFDDNodes: half} }},
		{"product", product, guard.KindNodes, walkUsage(t, product).Nodes,
			func(half int64) guard.Limits { return guard.Limits{MaxFDDNodes: half} }},
	}
	for _, c := range cases {
		// Several poll intervals of work, so the crossing lands mid-walk,
		// not only at the final flush.
		if c.work < 4*guard.PollEvery {
			t.Fatalf("%s charges only %d: too small to abort mid-walk", c.name, c.work)
		}
	}

	base := runtime.NumGoroutine()
	wantCrossing := func(t *testing.T, err error, kind guard.Kind) {
		t.Helper()
		var be *guard.ErrBudgetExceeded
		if !errors.As(err, &be) || be.Kind != kind {
			t.Fatalf("err = %v, want the typed %s crossing", err, kind)
		}
	}
	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				withProcs(t, procs, func() {
					b := guard.NewBudget(c.limits(c.work / 2))
					wantCrossing(t, c.walk(guard.WithBudget(context.Background(), b)), c.kind)
					if u := b.Usage(); u.Exceeded != c.kind {
						t.Fatalf("budget usage %+v, want %s exceeded", u, c.kind)
					}

					// Crossed and canceled before the walk starts.
					b = guard.NewBudget(guard.Limits{})
					b.ForceExceed(c.kind)
					ctx, cancel := context.WithCancel(guard.WithBudget(context.Background(), b))
					cancel()
					wantCrossing(t, c.walk(ctx), c.kind)

					// Crossed, then canceled, while the walk runs: any stop
					// must report the crossing.
					b = guard.NewBudget(guard.Limits{})
					ctx, cancel = context.WithCancel(guard.WithBudget(context.Background(), b))
					done := make(chan struct{})
					go func() {
						defer close(done)
						b.ForceExceed(c.kind)
						cancel()
					}()
					if err := c.walk(ctx); err != nil {
						wantCrossing(t, err, c.kind)
					}
					<-done
				})
				if after := inputs(); after != before {
					t.Fatal("an aborted walk modified its inputs")
				}
			})
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLockstepBudgetChargesEveryPath pins that the lockstep walk
// charges its tail: every node it visits is one unit, so a finished
// walk has charged at least one unit per path pair it compared, on one
// worker and on several, also when it is shorter than one poll
// interval.
func TestLockstepBudgetChargesEveryPath(t *testing.T) {
	pairs := [][2]*rule.Policy{
		{paper.TeamA(), paper.TeamB()},
		{synth.Synthetic(synth.Config{Rules: 60, Seed: 1}), synth.Synthetic(synth.Config{Rules: 60, Seed: 2})},
	}
	for i, pair := range pairs {
		fa, err := fdd.Construct(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		fb, err := fdd.Construct(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			withProcs(t, procs, func() {
				b := guard.NewBudget(guard.Limits{})
				r, err := CompareSemiIsomorphicContext(guard.WithBudget(context.Background(), b), sa, sb)
				if err != nil {
					t.Fatal(err)
				}
				if n := b.Usage().Nodes; n < int64(r.PathsCompared) {
					t.Fatalf("pair %d, %d workers: charged %d nodes for %d compared paths",
						i, procs, n, r.PathsCompared)
				}
			})
		}
	}
}
