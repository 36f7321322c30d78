package fdd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"diversefw/internal/guard"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// checkpointRules lists the prefix lengths of b's checkpoints.
func checkpointRules(b *Builder) []int {
	var out []int
	for _, cp := range b.checkpoints {
		out = append(out, cp.rules)
	}
	return out
}

// TestTrimKeepsOnlyTheDiagram pins what a builder trimmed at birth
// keeps and what its first Resume restores: the trimmed builder holds
// its diagram and no store; the replay re-interns that diagram as the
// new store's own materialization, ends on its root and rebuilds the
// untrimmed builder's checkpoints; and the resumed diagram matches an
// untrimmed builder's resume, sharing the trimmed base's subgraphs by
// pointer.
func TestTrimKeepsOnlyTheDiagram(t *testing.T) {
	p := synth.RealLife(400, 3)
	kept, err := NewBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	root := b.FDD().Root
	if b.NumCheckpoints() != 0 {
		t.Fatalf("trimmed builder keeps %d checkpoints", b.NumCheckpoints())
	}
	if b.StoreNodes() != 0 || b.StoreBytes() != 0 || b.core.st != nil || b.core.nodes != nil {
		t.Fatalf("trimmed builder keeps a store of %d nodes, %d bytes", b.StoreNodes(), b.StoreBytes())
	}

	after := flipRule(t, p, p.Size()-3)
	want, wst, err := kept.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st != wst {
		t.Fatalf("trimmed resume stats %+v, untrimmed %+v", st, wst)
	}
	if !reflect.DeepEqual(checkpointRules(b), checkpointRules(kept)) {
		t.Fatalf("replay rebuilt checkpoints %v, the untrimmed builder holds %v",
			checkpointRules(b), checkpointRules(kept))
	}
	if !sameFunction(t, nb.FDD(), want.FDD()) {
		t.Fatal("resume of a trimmed builder differs from the untrimmed one's")
	}
	stored := b.StoreNodes()
	if b.core.st.ReduceNode(p.Schema, root) != b.root || b.StoreNodes() != stored || b.core.nodes[b.root] != root {
		t.Fatal("the trimmed diagram is not its store's materialization of the root")
	}
	if !sharesNode(nb.FDD().Root, root) {
		t.Fatal("the resumed diagram shares no node with the trimmed base's")
	}
	assertStoreIsReachable(t, b.core.st, b, nb)
}

// TestReplayMustEndOnTheDiagram checks the replay's identity check: a
// trimmed builder whose diagram is not its policy's (here another
// policy's diagram swapped in behind its back) must fail to resume,
// not resume from checkpoints its diagram shares nothing with.
func TestReplayMustEndOnTheDiagram(t *testing.T) {
	p := synth.RealLife(100, 5)
	b, err := NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewBuilder(synth.RealLife(100, 6))
	if err != nil {
		t.Fatal(err)
	}
	if sameFunction(t, other.FDD(), b.fdd) {
		t.Fatal("the swapped-in diagram decides like the builder's own")
	}
	b.fdd = other.FDD()
	if _, _, err := b.Resume(context.Background(), flipRule(t, p, p.Size()-2)); err == nil {
		t.Fatal("a replay that did not end on the diagram's root resumed")
	}
}

// TestAbortedReplayLeavesBuilderTrimmed aborts the replay of a trimmed
// builder by a tiny budget, by a budget that trips after a few
// promotions, and by cancellation between appends. Each abort must
// leave the builder trimmed (no checkpoints) and its store indexed with
// no overlay open; the next Resume must then replay, match scratch
// construction, and share the diagram's root.
func TestAbortedReplayLeavesBuilderTrimmed(t *testing.T) {
	p := synth.RealLife(300, 4)
	b, err := NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	root := b.FDD().Root
	after := flipRule(t, p, p.Size()-3)
	aborts := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"tiny budget", guard.WithBudget(context.Background(),
			guard.NewBudget(guard.Limits{MaxFDDNodes: 1})), guard.ErrBudget},
		{"budget after promotions", guard.WithBudget(context.Background(),
			guard.NewBudget(guard.Limits{MaxFDDNodes: 6000})), guard.ErrBudget},
		{"cancellation", &countdownCtx{Context: context.Background(), n: 70}, context.Canceled},
	}
	for _, a := range aborts {
		if _, _, err := b.Resume(a.ctx, after); !errors.Is(err, a.want) {
			t.Fatalf("%s: Resume returned %v, want %v", a.name, err, a.want)
		}
		if b.NumCheckpoints() != 0 {
			t.Fatalf("%s: an aborted replay left %d checkpoints", a.name, b.NumCheckpoints())
		}
		assertStoreIndexed(t, b.core.st)
	}
	nb, st, err := b.Resume(context.Background(), after)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointRules == 0 || b.NumCheckpoints() == 0 {
		t.Fatalf("the replay after aborted ones rebuilt no checkpoints (stats %+v)", st)
	}
	if b.FDD().Root != root {
		t.Fatal("replays replaced the diagram's root")
	}
	scratch, err := NewBuilder(after)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFunction(t, nb.FDD(), scratch.FDD()) {
		t.Fatal("resume after aborted replays differs from scratch construction")
	}
	if !reflect.DeepEqual(nb.Effective(), scratch.Effective()) {
		t.Fatal("resume after aborted replays has different effective bits")
	}
	assertStoreIndexed(t, b.core.st)
}

// TestTrimmedResumeRace resumes one trimmed builder from many goroutines
// at once, each with its own edit. Exactly one Resume may replay the
// base (its construct.resume span says baseReplayed), the others must
// resume from the checkpoints it rebuilt, and every result must match
// scratch construction. Run under -race it also proves that checkpoint
// reads and the replay's writes are serialized by the family lock.
func TestTrimmedResumeRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := synth.RealLife(240, 17)
	b, err := NewTrimmedBuilderContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	r := rand.New(rand.NewSource(17))
	afters := make([]*rule.Policy, goroutines)
	scratches := make([]*Builder, goroutines)
	for g := range afters {
		afters[g] = flipRule(t, p, p.Size()-2-r.Intn(p.Size()/2))
		if scratches[g], err = NewBuilder(afters[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	replayed := make([]bool, goroutines)
	errs := make([]error, goroutines)
	for g := range afters {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// The checkpoint count is read beside the Resumes, one of which
			// rebuilds the checkpoints.
			b.NumCheckpoints()
			ctx, tr := trace.New(context.Background(), "resume", fmt.Sprint(g))
			nb, _, err := b.Resume(ctx, afters[g])
			tr.Finish()
			if err != nil {
				errs[g] = err
				return
			}
			sp, ok := tr.Snapshot().Root.Find("construct.resume")
			if !ok {
				errs[g] = errors.New("no construct.resume span")
				return
			}
			replayed[g] = sp.Attrs["baseReplayed"] == true
			in := NewStore()
			if in.ReduceNode(p.Schema, nb.FDD().Root) != in.ReduceNode(p.Schema, scratches[g].FDD().Root) ||
				!reflect.DeepEqual(nb.Effective(), scratches[g].Effective()) {
				errs[g] = fmt.Errorf("goroutine %d: resumed diagram differs from scratch", g)
			}
		}(g)
	}
	wg.Wait()
	replays := 0
	for g := range afters {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if replayed[g] {
			replays++
		}
	}
	if replays != 1 {
		t.Fatalf("%d of %d concurrent Resumes replayed the trimmed base, want 1", replays, goroutines)
	}
}

// sharesNode reports whether the diagrams rooted at a and b share a
// nonterminal node (by pointer).
func sharesNode(a, b *Node) bool {
	nodes := func(root *Node) map[*Node]bool {
		seen := make(map[*Node]bool)
		var walk func(x *Node)
		walk = func(x *Node) {
			if seen[x] || x.IsTerminal() {
				return
			}
			seen[x] = true
			for _, e := range x.Edges {
				walk(e.To)
			}
		}
		walk(root)
		return seen
	}
	inB := nodes(b)
	for n := range nodes(a) {
		if inB[n] {
			return true
		}
	}
	return false
}
