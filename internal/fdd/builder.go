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
// Appends hash-cons every node they create into a per-build overlay
// (append.go), and each checkpoint root is promoted into a store shared
// by the whole builder family; canonical nodes are never mutated, so a
// checkpoint is a single root pointer — no copying, no serialization.
//
// Resume exploits the checkpoints for change-impact analysis: to build
// the FDD of an edited policy, it finds the longest common rule prefix
// between the old and new policies, restarts from the deepest checkpoint
// at or before that prefix, and re-appends only the suffix. A tail edit
// on an N-rule policy re-appends a handful of rules instead of N, and —
// because the resumed diagram is canonical in the same store as the base —
// unchanged subgraphs come back pointer-identical, which downstream
// comparisons can short-circuit on.
//
// Checkpoints cost memory: the family store keeps every checkpoint's
// partial diagram. A builder that may never be resumed can drop them
// with Trim, keeping only its final diagram; its first Resume then
// replays the policy to rebuild them (see Trim).
//
// A Builder is safe for concurrent use: the shared node store, the
// checkpoints and the trimmed state are guarded by the family's mutex,
// and the published FDD and effective bits are immutable once the
// builder is returned.
type Builder struct {
	core      *builderCore
	policy    *rule.Policy
	fdd       *FDD
	effective []bool
	// checkpoints and trimmed change under core.mu only: Trim drops the
	// checkpoints, and the first Resume after it rebuilds them.
	checkpoints []checkpoint
	trimmed     bool
}

// builderCore is the state shared by every builder in one resume family:
// the hash-consing store all of them canonicalize into. The mutex
// serializes construction; reads of finished diagrams never need it
// (canonical nodes are immutable). resumed records that a Resume has
// run on the family, after which no builder of it may be trimmed.
type builderCore struct {
	mu      sync.Mutex
	in      *Interner
	resumed bool
}

// checkpoint is one resumable prefix: the root, canonical in the family
// store, of the partial diagram after the first `rules` rules were
// appended.
type checkpoint struct {
	rules int
	root  *Node
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
// semantics of both match ConstructEffectiveContext (which is a thin
// wrapper over this).
func NewBuilderContext(ctx context.Context, p *rule.Policy) (*Builder, error) {
	if p.Size() == 0 {
		return nil, fmt.Errorf("fdd: cannot construct from an empty policy")
	}
	ctx, sp := trace.Start(ctx, "construct")
	defer sp.End()
	sp.SetAttr("rules", p.Size())
	core := &builderCore{in: NewInterner()}
	core.mu.Lock()
	defer core.mu.Unlock()
	b, err := core.build(ctx, sp, p, 0, nil, nil, nil)
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
// are canonical in the builder family's shared store.
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

// StoreNodes returns the node count of the family's shared store — the
// resident cost of keeping this builder (and its checkpoints) alive,
// which is larger than the final diagram because the checkpoint roots'
// partial diagrams stay interned. The intermediate diagrams between
// checkpoints never reach the store. A trimmed builder's store holds its
// final diagram only.
func (b *Builder) StoreNodes() int {
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	return b.core.in.NumNodes()
}

// Trim drops the builder's resume state: its checkpoints, and every
// node of the family store its final diagram does not reach. The
// diagram's own nodes move, uncopied, into a fresh store (moveInto
// restamps their store identity), where they stay canonical, so the
// builder still resumes: its first Resume replays the builder's policy
// into that store, rebuilding the checkpoints, and the replayed root is
// the diagram's root pointer, so resumed diagrams still share subgraphs
// with it.
//
// Trim restamps nodes other goroutines may read, so it must run before
// the builder or its diagram is shared. A family that has been resumed
// shares its store with other builders, and Trim refuses it with an
// error.
func (b *Builder) Trim() error {
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	if b.core.resumed {
		return fmt.Errorf("fdd: cannot trim a builder whose family has been resumed")
	}
	in := NewInterner()
	in.hashOverride = b.core.in.hashOverride
	moveInto(in, b.fdd.Root)
	b.core.in, b.checkpoints, b.trimmed = in, nil, true
	return nil
}

// replay rebuilds a trimmed builder's checkpoints by re-appending its
// own policy into the family store, where its final diagram is
// canonical: the replay must end on that very root. A replay that fails
// leaves the builder trimmed (any checkpoint roots it promoted before
// failing stay in the store, for the next replay to find). Callers hold
// core.mu.
func (b *Builder) replay(ctx context.Context) error {
	rb, err := b.core.build(ctx, nil, b.policy, 0, nil, nil, nil)
	if err != nil {
		return err
	}
	if rb.fdd.Root != b.fdd.Root {
		return fmt.Errorf("fdd: replaying a trimmed builder did not return its diagram")
	}
	b.checkpoints, b.trimmed = rb.checkpoints, false
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
	var st ResumeStats
	if after.Size() == 0 {
		return nil, st, fmt.Errorf("fdd: cannot construct from an empty policy")
	}
	if !b.policy.Schema.Equal(after.Schema) {
		return nil, st, fmt.Errorf("fdd: resume across different schemas")
	}
	prefix := commonRulePrefix(b.policy, after)
	ctx, sp := trace.Start(ctx, "construct.resume")
	defer sp.End()
	sp.SetAttr("rules", after.Size())
	b.core.mu.Lock()
	defer b.core.mu.Unlock()
	b.core.resumed = true
	sp.SetAttr("baseReplayed", b.trimmed)
	if b.trimmed {
		if err := b.replay(ctx); err != nil {
			return nil, st, err
		}
	}
	start, used := 0, 0
	var root *Node
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
	nb, err := b.core.build(ctx, nil, after, start, root, b.checkpoints[:used], b.effective[:start])
	if err != nil {
		return nil, st, err
	}
	return nb, st, nil
}

// build runs the append loop for rules[start:] on top of the partial
// root (canonical in the family store), promoting and recording a
// checkpoint every checkpointEvery rules. Rule i is effective exactly
// when its append changed the root: within one canonical store, equal
// functions are equal pointers. base and effPrefix describe the prefix
// already in root and are copied, never aliased. Callers hold core.mu,
// which also keeps the family store still while an overlay sits on it.
func (core *builderCore) build(ctx context.Context, sp *trace.Span, p *rule.Policy,
	start int, root *Node, base []checkpoint, effPrefix []bool) (b *Builder, err error) {
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
	ap := newAppender(p.Schema, core.in)
	// Every exit, a budget panic and a cancellation included, leaves no
	// memo slot set on a family node.
	defer ap.clearSlots()
	ap.m = guard.NewMeter(ctx)
	effective := make([]bool, p.Size())
	copy(effective, effPrefix)
	cps := make([]checkpoint, len(base), len(base)+(p.Size()-start)/checkpointEvery+1)
	copy(cps, base)
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
		if i%checkpointEvery == 0 {
			ap.promote(root)
			cps = appendCheckpoint(cps, checkpoint{rules: i + 1, root: root})
		}
	}
	ap.promote(root)
	if sp != nil {
		// The build's work: every node it interned, most of them in
		// intermediate diagrams the promotions dropped.
		sp.SetAttr("overlayNodes", ap.overlayNodes)
	}
	f := &FDD{Schema: p.Schema, Root: root}
	if cerr := f.checkComplete(); cerr != nil {
		return nil, fmt.Errorf("fdd: %w: %w", ErrIncomplete, cerr)
	}
	return &Builder{core: core, policy: p, fdd: f, effective: effective, checkpoints: cps}, nil
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

// commonRulePrefix counts the leading rules the two policies share.
func commonRulePrefix(a, b *rule.Policy) int {
	n := a.Size()
	if b.Size() < n {
		n = b.Size()
	}
	for i := 0; i < n; i++ {
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
