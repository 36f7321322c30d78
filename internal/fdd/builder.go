package fdd

import (
	"context"
	"fmt"
	"sync"

	"diversefw/internal/guard"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// Builder is a resumable FDD construction: the paper's append loop, plus
// root snapshots ("checkpoints") taken every checkpointEvery rules.
// Appends hash-cons every node they create into an overlay of a
// pointer-free store shared by the whole builder family (store.go,
// append.go), and each checkpoint root is promoted into the family's
// part of it; stored nodes are never mutated, so a checkpoint is a
// single root id — no copying, no serialization.
//
// Resume exploits the checkpoints for change-impact analysis: to build
// the FDD of an edited policy, it finds the longest common rule prefix
// between the old and new policies, restarts from the deepest checkpoint
// at or before that prefix, and re-appends only the suffix. A tail edit
// on an N-rule policy re-appends a handful of rules instead of N, and —
// because the resumed diagram is canonical in the same store as the base
// and materialized through the family's one id→*Node table —
// unchanged subgraphs come back pointer-identical, which downstream
// comparisons can short-circuit on.
//
// Checkpoints cost memory, and taking them costs time: the family store
// keeps every checkpoint's partial diagram. A builder that will most
// likely never be resumed is built trimmed instead
// (NewTrimmedBuilderContext), keeping only its final diagram; its first
// Resume then replays the policy to rebuild the checkpoints (see
// replay).
//
// A Builder is safe for concurrent use: the shared node store, the
// checkpoints and the trimmed state are guarded by the family's mutex,
// and the published FDD and effective bits are immutable once the
// builder is returned.
type Builder struct {
	core      *builderCore
	policy    *rule.Policy
	fdd       *FDD
	root      uint32 // fdd's root id in the family store, while untrimmed
	effective []bool
	// checkpoints and trimmed change under core.mu only: the first
	// Resume of a trimmed builder rebuilds its checkpoints.
	checkpoints []checkpoint
	trimmed     bool
}

// builderCore is the state shared by every builder in one resume family:
// the hash-consing store all of them canonicalize into, and the table
// from store id to the *Node each build materialized for it, through
// which every diagram of the family is published. The mutex serializes
// construction; reads of finished diagrams never need it (published
// nodes are immutable). A trimmed family holds no store (st and nodes
// are nil) until a Resume replays.
type builderCore struct {
	mu    sync.Mutex
	st    *Store
	nodes []*Node
}

// checkpoint is one resumable prefix: the root id, canonical in the
// family store, of the partial diagram after the first `rules` rules
// were appended.
type checkpoint struct {
	rules int
	root  uint32
}

// maxCheckpoints bounds the checkpoint list. When it fills, the older
// half is thinned to every second entry, so spacing degrades
// geometrically for old prefixes while the tail — where edits
// concentrate (the paper's dominant error case is mis-ordered insertions
// near the end) — keeps the full checkpointEvery resolution.
const maxCheckpoints = 128

// NewBuilder constructs the FDD for p, retaining resume checkpoints.
func NewBuilder(p *rule.Policy) (*Builder, error) {
	return NewBuilderContext(context.Background(), p)
}

// NewBuilderContext is NewBuilder with cancellation and budgeting; the
// semantics of both match ConstructEffectiveContext.
func NewBuilderContext(ctx context.Context, p *rule.Policy) (*Builder, error) {
	return newBuilder(ctx, p, true)
}

// NewTrimmedBuilderContext is NewBuilderContext for a builder that will
// most likely never be resumed: it takes no checkpoint on the way, so
// it does the appends' work alone, and returns a trimmed builder, which
// holds its diagram and effective bits and no store. It still resumes:
// its first Resume re-interns the diagram into a fresh store, making
// the diagram that store's materialization of itself, then replays p to
// rebuild the checkpoints. The replay must end on the diagram's root,
// so resumed diagrams still share subgraphs with it by pointer.
func NewTrimmedBuilderContext(ctx context.Context, p *rule.Policy) (*Builder, error) {
	return newBuilder(ctx, p, false)
}

// newBuilder builds p in a family of its own, keeping its checkpoints
// and store when resumable, else releasing the store at once.
func newBuilder(ctx context.Context, p *rule.Policy, resumable bool) (*Builder, error) {
	if p.Size() == 0 {
		return nil, fmt.Errorf("fdd: cannot construct from an empty policy")
	}
	ctx, sp := trace.Start(ctx, "construct")
	defer sp.End()
	sp.SetAttr("rules", p.Size())
	core := &builderCore{st: NewStore()}
	core.mu.Lock()
	defer core.mu.Unlock()
	b, err := core.build(ctx, sp, p, 0, noNode, nil, nil, resumable)
	if err != nil || !resumable {
		core.st.Release()
		core.st, core.nodes = nil, nil
	}
	if err != nil {
		return nil, err
	}
	if sp != nil {
		st := b.fdd.Stats()
		sp.SetAttr("nodes", st.Nodes)
		sp.SetAttr("edges", st.Edges)
	}
	return b, nil
}

// FDD returns the constructed diagram. Treat it as immutable: its nodes
// are the builder family's materialization of its shared store, which
// other diagrams of the family share.
func (b *Builder) FDD() *FDD { return b.fdd }

// Policy returns the policy this builder constructed.
func (b *Builder) Policy() *rule.Policy { return b.policy }

// Effective reports, per rule, whether the rule contributed any region of
// the packet space (see ConstructEffectiveContext). Read-only.
func (b *Builder) Effective() []bool { return b.effective }

// NumCheckpoints returns how many resumable prefixes the builder holds
// (none once trimmed, until a Resume replays them).
func (b *Builder) NumCheckpoints() int {
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	return len(b.checkpoints)
}

// StoreNodes returns the node count of the family's shared store: the
// final diagrams' nodes and the checkpoint roots' partial diagrams. The
// intermediate diagrams between checkpoints never reach the store. A
// trimmed builder holds no store, so its count is 0.
func (b *Builder) StoreNodes() int {
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	if b.core.st == nil {
		return 0
	}
	return b.core.st.NumNodes()
}

// StoreBytes estimates the resident size of the family's resume state:
// the store's slabs and unique table, and the id→*Node table of the
// family's diagrams (the diagrams themselves are not counted). A trimmed
// builder holds none.
func (b *Builder) StoreBytes() int64 {
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	if b.core.st == nil {
		return 0
	}
	return b.core.st.bytes() + 8*int64(cap(b.core.nodes))
}

// replay rebuilds a trimmed builder's checkpoints: it re-interns the
// builder's diagram into the family store (a fresh one unless an earlier
// replay left it) and re-appends its own policy, which must end on that
// very root. A replay that fails leaves the builder trimmed (any
// checkpoint roots it promoted before failing stay in the store, for the
// next replay to find). Callers hold core.mu.
func (b *Builder) replay(ctx context.Context) error {
	core := b.core
	if core.st == nil {
		core.st = NewStore()
	}
	root := core.st.reintern(b.fdd.Schema, b.fdd.Root, &core.nodes)
	rb, err := core.build(ctx, nil, b.policy, 0, noNode, nil, nil, true)
	if err != nil {
		return err
	}
	if rb.root != root {
		return fmt.Errorf("fdd: replaying a trimmed builder did not return its diagram")
	}
	b.root, b.checkpoints, b.trimmed = root, rb.checkpoints, false
	return nil
}

// ResumeStats describes how much work a Resume avoided.
type ResumeStats struct {
	// CheckpointRules is the prefix length of the checkpoint resumed
	// from; 0 means no usable checkpoint (the edit touched the head) and
	// the diagram was rebuilt from the first rule.
	CheckpointRules int
	// RulesReappended is how many rules were appended after the
	// checkpoint — the work actually done.
	RulesReappended int
}

// Resume constructs the FDD for the edited policy `after`, reusing the
// deepest checkpoint whose rule prefix the edit left untouched. The
// returned builder shares this builder's node store (and is itself
// resumable); the base builder and its FDD are not modified, except that
// a trimmed base first replays its policy to rebuild its checkpoints,
// which it keeps for later Resumes.
//
// The result is identical — graph-isomorphic, and pointer-identical on
// shared subgraphs — to constructing `after` from scratch: appending is
// semantic per rule, and the reduced ordered form is canonical per
// decision function, so the resume cadence cannot leak into the output.
func (b *Builder) Resume(ctx context.Context, after *rule.Policy) (*Builder, ResumeStats, error) {
	return b.ResumePrefix(ctx, after, 0)
}

// ResumePrefix is Resume for a caller that knows `after` keeps at least
// its first `kept` rules from this builder's policy, as the lowest
// position an edit script touches tells (impact.UntouchedPrefix): the
// common rule prefix is sought from there on, so the kept rules are not
// compared. A kept beyond the true common prefix builds a wrong diagram.
func (b *Builder) ResumePrefix(ctx context.Context, after *rule.Policy, kept int) (*Builder, ResumeStats, error) {
	var st ResumeStats
	if after.Size() == 0 {
		return nil, st, fmt.Errorf("fdd: cannot construct from an empty policy")
	}
	if !b.policy.Schema.Equal(after.Schema) {
		return nil, st, fmt.Errorf("fdd: resume across different schemas")
	}
	prefix := commonRulePrefix(b.policy, after, kept)
	ctx, sp := trace.Start(ctx, "construct.resume")
	defer sp.End()
	sp.SetAttr("rules", after.Size())
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	sp.SetAttr("baseReplayed", b.trimmed)
	if b.trimmed {
		if err := b.replay(ctx); err != nil {
			return nil, st, err
		}
	}
	start, used, root := 0, 0, noNode
	for i, cp := range b.checkpoints {
		if cp.rules > prefix {
			break
		}
		start, root, used = cp.rules, cp.root, i+1
	}
	st.CheckpointRules = start
	st.RulesReappended = after.Size() - start
	sp.SetAttr("checkpointUsed", st.CheckpointRules)
	sp.SetAttr("rulesReappended", st.RulesReappended)
	nb, err := b.core.build(ctx, nil, after, start, root, b.checkpoints[:used], b.effective[:start], true)
	if err != nil {
		return nil, st, err
	}
	return nb, st, nil
}

// build runs the append loop for rules[start:] on top of the partial
// root (canonical in the family store; noNode when start is 0) and
// materializes the final diagram through the family's table. A
// resumable build promotes and records a checkpoint every
// checkpointEvery rules and promotes its final root; any other keeps
// every node in the overlay, whose nodes are dropped when it returns,
// and returns a trimmed builder (the caller releases the store). Rule i
// is effective exactly when its append changed the root: within one
// canonical store, equal functions are equal ids. base and effPrefix
// describe the prefix already in root and are copied, never aliased.
// Callers hold core.mu, which also keeps the family store still while
// the build's overlay sits on it.
func (core *builderCore) build(ctx context.Context, sp *trace.Span, p *rule.Policy,
	start int, root uint32, base []checkpoint, effPrefix []bool, resumable bool) (b *Builder, err error) {
	// The append recursion has no error path (it cannot fail on valid
	// input); a stop by the meter, on a budget crossing or a
	// cancellation, surfaces as a budgetPanic so the hot path stays
	// two-valued, and is converted back to an error here.
	defer func() {
		if r := recover(); r != nil {
			bp, ok := r.(budgetPanic)
			if !ok {
				panic(r)
			}
			b, err = nil, fmt.Errorf("fdd: construction %s: %w", guard.Verb(bp.err), bp.err)
		}
	}()
	ap := newAppender(p.Schema, core.st)
	defer ap.release()
	// Every exit, a budget panic and a cancellation included, drops the
	// overlay: the family keeps only what promotions moved into it.
	core.st.openOverlay(p.Size() - start)
	defer core.st.closeOverlay()
	ap.m = guard.NewMeter(ctx)
	effective := make([]bool, p.Size())
	copy(effective, effPrefix)
	var cps []checkpoint
	if resumable {
		cps = make([]checkpoint, len(base), len(base)+(p.Size()-start)/checkpointEvery+1)
		copy(cps, base)
	}
	i := start
	if i == 0 {
		ap.start(p.Rules[0].Pred, p.Rules[0].Decision)
		root = ap.path(0)
		effective[0] = true
		i = 1
	}
	for ; ; i++ {
		// One meter flush between appends, and one after the last, keeps
		// cancellation and the wall-clock cap live at rule granularity
		// even when appends create few nodes, and charges every append;
		// mid-append stops unwind via budgetPanic.
		if err := ap.m.Flush(); err != nil {
			return nil, fmt.Errorf("fdd: construction %s: %w", guard.Verb(err), err)
		}
		if i == p.Size() {
			break
		}
		r := p.Rules[i]
		next := ap.appendRule(root, r.Pred, r.Decision)
		effective[i] = next != root
		root = next
		// The cadence is anchored to absolute rule indices so every
		// builder in a family snapshots the same prefix lengths.
		if resumable && i%checkpointEvery == 0 {
			root = ap.promote(root)
			cps = appendCheckpoint(cps, checkpoint{rules: i + 1, root: root})
		}
	}
	if resumable {
		root = ap.promote(root)
	} else {
		ap.overlayNodes += core.st.overlayNodes()
	}
	if sp != nil {
		// The build's work: every node it interned, most of them in
		// intermediate diagrams the family never keeps.
		sp.SetAttr("overlayNodes", ap.overlayNodes)
	}
	var table *[]*Node
	if resumable {
		table = &core.nodes
	}
	f := &FDD{Schema: p.Schema, Root: core.st.materialize(root, table)}
	// A decided root decides every packet, so only a diagram the store
	// could not prove complete (a field of 2^64 values, or a policy that
	// is not comprehensive) is walked.
	if !core.st.nodes[root].decided {
		if cerr := f.checkComplete(); cerr != nil {
			return nil, fmt.Errorf("fdd: %w: %w", ErrIncomplete, cerr)
		}
	}
	return &Builder{core: core, policy: p, fdd: f, root: root, effective: effective, checkpoints: cps, trimmed: !resumable}, nil
}

// appendCheckpoint appends cp, thinning the older half to every second
// entry when the list exceeds maxCheckpoints.
func appendCheckpoint(cps []checkpoint, cp checkpoint) []checkpoint {
	cps = append(cps, cp)
	if len(cps) > maxCheckpoints {
		half := len(cps) / 2
		kept := cps[:0]
		for j := 0; j < half; j += 2 {
			kept = append(kept, cps[j])
		}
		cps = append(kept, cps[half:]...)
	}
	return cps
}

// commonRulePrefix counts the leading rules the two policies share,
// comparing from rule `from` on: the caller knows the rules before it
// are shared.
func commonRulePrefix(a, b *rule.Policy, from int) int {
	n := min(a.Size(), b.Size())
	for i := max(from, 0); i < n; i++ {
		if !rulesEqual(a.Rules[i], b.Rules[i]) {
			return i
		}
	}
	return n
}

// rulesEqual reports whether two rules are identical: same decision and
// set-equal predicates field by field.
func rulesEqual(x, y rule.Rule) bool {
	if x.Decision != y.Decision {
		return false
	}
	for f := range x.Pred {
		if !x.Pred[f].Equal(y.Pred[f]) {
			return false
		}
	}
	return true
}
