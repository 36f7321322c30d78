// Package engine is the caching service layer between the HTTP API / CLI
// front ends and the analysis pipeline. The dominant real workload for
// diverse design is one stable policy set diffed against many candidates,
// over and over; the pipeline packages (fdd, compare) recompute
// everything per call. The engine content-addresses the expensive
// intermediate results so repeated work is served from memory:
//
//   - Compile caches PolicyHash -> parsed policy + constructed, reduced
//     FDD. The hash is taken over the rule IR (schema plus canonical
//     interval sets), so two requests carrying the same policy —
//     regardless of source format, whitespace, comments, or value
//     spelling — share one construction. An entry keeps its builder's
//     resume checkpoints only when it is an edit base (ImpactEdits's
//     before policy, or an edited policy); every other entry keeps its
//     final diagram alone, and its first edit, if one comes, replays it.
//   - Diff caches (hash(A), hash(B)) -> the full comparison report, so a
//     repeated diff of the same pair costs two hash lookups. Reusing the
//     report also makes discrepancy row numbering stable across /v1/diff
//     and /v1/resolve for the same pair. A report entry also keeps the
//     response a server rendered from it (EncodedReport), charged to it.
//   - A bounded text alias maps a policy's source (schema, format, chain
//     and text) to its content address, so a repeated source reaches its
//     compilation and reports without being parsed or hashed again
//     (DiffSources). Its budget is carved out of the compile cache's.
//
// Both caches run one lookup-or-compute path (lookupOrCompute), and each
// deduplicates concurrent identical requests with one singleflight group
// keyed by content address: a thundering herd of N requests for the same
// policy compiles it once, and the other N-1 wait for that flight, whether
// they asked for a scratch build or a resume from an edited base. Flights are detached from
// any single request's context — a caller that aborts stops waiting
// without failing the flight for everyone else, and only when the last
// waiter leaves is the flight canceled and forgotten. Failed or canceled
// flights are never cached, so an aborted request can neither poison nor
// pin a cache entry mid-compile.
//
// Both caches are size-aware LRUs; hits, misses, evictions, and resident
// bytes are exported through internal/metrics when a registry is given,
// read at scrape time from the same counts Stats reads.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/guard"
	"diversefw/internal/impact"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// Config configures an Engine. The zero value is usable: default cache
// budgets, no metrics.
type Config struct {
	// CompileCacheBytes bounds the compiled-policy cache (default 128 MiB),
	// the text alias's 1/64 share of it included.
	CompileCacheBytes int64
	// ReportCacheBytes bounds the pairwise-report cache (default 32 MiB).
	ReportCacheBytes int64
	// Metrics, when non-nil, receives the fwengine_* instrument families.
	Metrics *metrics.Registry
	// Limits, when any field is set, caps the pipeline work each flight
	// may do (see guard.Limits). The budget is per singleflight flight,
	// so a thundering herd coalesced onto one compilation shares one
	// budget instead of multiplying the allowance, and a flight that
	// trips its budget fails like any errored flight: reported to every
	// waiter, never cached.
	Limits guard.Limits
}

// DefaultCompileCacheBytes and DefaultReportCacheBytes are the cache
// budgets used when Config leaves them zero.
const (
	DefaultCompileCacheBytes = 128 << 20
	DefaultReportCacheBytes  = 32 << 20
)

// Compiled is one content-addressed compilation: a parsed policy and its
// constructed, reduced FDD. Instances are shared across requests and must
// be treated as immutable; the pipeline already does (comparison only
// reads).
type Compiled struct {
	Policy *rule.Policy
	FDD    *fdd.FDD
	// Builder is the resumable construction that produced FDD. Keeping it
	// resident is what makes the incremental edit path possible: an edited
	// policy re-appends only its changed suffix from the deepest untouched
	// checkpoint (see ImpactEdits). Only an edit base takes checkpoints:
	// ImpactEdits's before policy and every edited policy. Any other
	// compilation is built trimmed (fdd.NewTrimmedBuilderContext), never
	// taking one, and its first edit replays it once. The store nodes
	// beyond the final diagram are charged to SizeBytes.
	Builder *fdd.Builder
	// incremental reports that Builder resumed a base compilation's
	// builder rather than starting from scratch; resumed holds that
	// resume's stats. ImpactEdits reports both to the callers that built
	// or waited on this compilation.
	incremental bool
	resumed     fdd.ResumeStats
	// Hash is the content address, PolicyHash(Policy): sha256 over the
	// schema key and the policy's canonical interval sets.
	Hash string
	// SizeBytes is the resident-memory estimate the LRU charges.
	SizeBytes int64
}

// Engine is the caching service layer. Safe for concurrent use.
type Engine struct {
	compiled cache[*Compiled]
	reports  cache[*reportEntry]
	// sources is the text alias: SourceKey -> content address. Its
	// entries count toward the compile cache's bytes (see Stats).
	sources *lruCache[string]

	// construct is the scratch build (construct below), swappable in
	// tests to observe and stall every scratch compilation.
	construct func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error)
	// resume is (*fdd.Builder).ResumePrefix, swappable in tests to force
	// the incremental path to fail and observe the scratch fallback.
	resume func(ctx context.Context, base *fdd.Builder, after *rule.Policy, kept int) (*fdd.Builder, fdd.ResumeStats, error)

	limits guard.Limits

	compilations atomic.Uint64

	incAttempted atomic.Uint64
	incUsed      atomic.Uint64
	incFallback  atomic.Uint64

	// The two pushed instruments; nil without a registry. Every other
	// fwengine_* family is served at scrape time from the counts above
	// and the caches' own (see registerMetrics).
	incReappended *metrics.Histogram
	// budgetExceeded lives in the fwguard family: it counts resource-
	// governance interventions, not engine cache traffic.
	budgetExceeded *metrics.CounterVec
}

// cache is one content-addressed cache: its LRU, the flights that fill
// it, and the names a lookup is traced, faulted and counted under.
type cache[V any] struct {
	name        string      // cache-lookup attribute and metric label
	span        string      // the span a miss opens
	fault       chaos.Point // fires in a flight before it computes
	insertFault chaos.Point // fires before a computed value is cached
	lru         *lruCache[V]
	flights     flightGroup[V]
	// coalesced counts callers that joined another caller's flight.
	coalesced atomic.Uint64
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.CompileCacheBytes <= 0 {
		cfg.CompileCacheBytes = DefaultCompileCacheBytes
	}
	if cfg.ReportCacheBytes <= 0 {
		cfg.ReportCacheBytes = DefaultReportCacheBytes
	}
	aliasBytes := cfg.CompileCacheBytes / sourceAliasShare
	e := &Engine{
		compiled: cache[*Compiled]{
			name: cacheCompile, span: "compile",
			fault: chaos.PointCompile, insertFault: chaos.PointCacheInsertCompile,
			lru: newLRU[*Compiled](cfg.CompileCacheBytes - aliasBytes),
		},
		reports: cache[*reportEntry]{
			name: cacheReport, span: "diff",
			fault: chaos.PointDiff, insertFault: chaos.PointCacheInsertReport,
			lru: newLRU[*reportEntry](cfg.ReportCacheBytes),
		},
		sources:   newLRU[string](aliasBytes),
		construct: construct,
		resume: func(ctx context.Context, base *fdd.Builder, after *rule.Policy, kept int) (*fdd.Builder, fdd.ResumeStats, error) {
			return base.ResumePrefix(ctx, after, kept)
		},
		limits: cfg.Limits,
	}
	if cfg.Metrics != nil {
		e.registerMetrics(cfg.Metrics)
	}
	return e
}

// PolicyHash returns the content address of a parsed policy: sha256 over
// its IR, not any text. The input is the schema's key (every member
// field.Schema.Equal compares), then per rule the decision as a uvarint
// followed by each field's canonical interval key (interval.Set.AppendKey).
// Both encodings are count-prefixed and canonical, so equal policies share
// an address whatever their source format, whitespace, comments or value
// spelling, and different policies get different ones. The rules stream
// through one fixed buffer, so the allocation count does not grow with the
// policy.
func PolicyHash(p *rule.Policy) string {
	h := sha256.New()
	var buf [2 * hashFlushBytes]byte
	b := p.Schema.AppendKey(buf[:0])
	for _, r := range p.Rules {
		b = binary.AppendUvarint(b, uint64(r.Decision))
		for _, s := range r.Pred {
			b = s.AppendKey(b)
		}
		if len(b) >= hashFlushBytes {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// hashFlushBytes is how much encoded IR PolicyHash gathers before feeding
// the digest. A five-field rule of single intervals encodes in under 100
// bytes, so the buffer only grows for rules with very many intervals.
const hashFlushBytes = 512

// Compile returns the compiled form of p, from the cache when its content
// address is resident, deduplicating concurrent identical compilations.
// hit reports whether the result came from the cache without waiting on
// any compilation. On ctx death the caller gets ctx.Err() while an
// in-flight compilation keeps running for its other waiters.
//
// The compilation keeps its final diagram only, not its resume
// checkpoints: the diffs it serves never resume it, and should it become
// an edit base later, its first edit replays it (see ImpactEdits).
func (e *Engine) Compile(ctx context.Context, p *rule.Policy) (c *Compiled, hit bool, err error) {
	return e.compile(ctx, p, hashPolicy(ctx, p), nil, 0, false)
}

// hashPolicy is PolicyHash under an engine.hash span.
func hashPolicy(ctx context.Context, p *rule.Policy) string {
	_, sp := trace.Start(ctx, "engine.hash")
	defer sp.End()
	return PolicyHash(p)
}

// compile is Compile for a policy whose content address is already taken,
// with an optional base: a compilation p was derived from by edits that
// kept at least its first kept rules. With a base, the flight resumes the
// base's builder from the deepest checkpoint the edits left untouched, and
// falls back to scratch construction when the resume fails for any reason
// that is not the caller's (cancellation) or the governor's (budget) —
// those would fail a scratch build identically, so they surface as-is.
// The flight is keyed by the content address alone, so a scratch and a
// resumed compile of one policy share one construction. Failed flights
// are never cached, in either mode.
//
// editBase keeps the builder's resume checkpoints; without it a scratch
// build takes none and keeps only its diagram. A resumed build shares
// its base's store and always keeps them.
func (e *Engine) compile(ctx context.Context, p *rule.Policy, hash string, base *Compiled, kept int, editBase bool) (*Compiled, bool, error) {
	annotate := func(sp *trace.Span, c *Compiled, err error) {
		sp.SetAttr("policyHash", hash[:12])
		if base == nil {
			return
		}
		sp.SetAttr("baseHash", base.Hash[:12])
		if err == nil {
			sp.SetAttr("incremental", c.incremental)
		}
	}
	return lookupOrCompute(ctx, e, &e.compiled, hash, annotate, func(fctx context.Context) (*Compiled, int64, error) {
		c := &Compiled{Policy: p, Hash: hash}
		var err error
		if c.Builder, err = e.build(fctx, c, base, kept, editBase); err != nil {
			return nil, 0, err
		}
		e.compilations.Add(1)
		c.FDD = c.Builder.FDD()
		size, _ := fddBytes(c.FDD)
		c.SizeBytes = policyBytes(p) + size + builderBytes(c.Builder)
		return c, c.SizeBytes, nil
	})
}

// build constructs c.Policy's builder, resuming base's builder when there
// is one and recording on c whether the resume was used. A scratch build
// is resumable when it is an edit base.
func (e *Engine) build(ctx context.Context, c *Compiled, base *Compiled, kept int, editBase bool) (*fdd.Builder, error) {
	if base != nil && base.Builder != nil {
		e.incAttempted.Add(1)
		b, rs, err := e.resume(ctx, base.Builder, c.Policy, kept)
		if err == nil {
			e.incUsed.Add(1)
			if e.incReappended != nil {
				e.incReappended.Observe(float64(rs.RulesReappended))
			}
			c.incremental, c.resumed = true, rs
			return b, nil
		}
		if isAbort(err) {
			return nil, err
		}
		e.incFallback.Add(1)
		trace.Event(ctx, "incremental-fallback", trace.A("error", err.Error()))
	}
	return e.construct(ctx, c.Policy, editBase)
}

// construct builds p from scratch: resumable, with checkpoints, for an
// edit base, and trimmed at birth otherwise.
func construct(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
	if resumable {
		return fdd.NewBuilderContext(ctx, p)
	}
	return fdd.NewTrimmedBuilderContext(ctx, p)
}

// lookupOrCompute is the one lookup-or-compute path of both caches. In
// order: one counted probe of the LRU and its cache-lookup event; on a
// miss, the cache's span; joining or starting the key's flight, whose
// first step is an uncounted recheck of the LRU (a flight that finished
// between the probe and the join may have filled it); the flight's budget
// and chaos point; compute, then the insert unless the insert-fault point
// fires (an injected cache failure skips the insert but not the result,
// so degraded caching is miss-shaped, never corrupt); and last the budget
// and coalescing outcome, and annotate's attributes, on the span.
//
// The flight context is derived from ctx with values intact
// (context.WithoutCancel inside the flight group), so compute's spans land
// under the cache's span even when the flight outlives the request. hit
// reports a probe hit. On ctx death the caller gets ctx.Err() while the
// flight keeps running for its other waiters.
func lookupOrCompute[V any](ctx context.Context, e *Engine, c *cache[V], key string,
	annotate func(*trace.Span, V, error), compute func(context.Context) (V, int64, error)) (v V, hit bool, err error) {
	v, hit = c.lru.get(key)
	lookupEvent(ctx, c.name, hit)
	if hit {
		return v, true, nil
	}
	ctx, sp := trace.Start(ctx, c.span)
	defer sp.End()
	waitStart := time.Now()
	v, shared, err := c.flights.do(ctx, key, func(fctx context.Context) (V, error) {
		if v, ok := c.lru.peek(key); ok {
			return v, nil
		}
		fctx = e.budgeted(fctx)
		var zero V
		if err := chaos.Fire(fctx, c.fault); err != nil {
			return zero, err
		}
		v, size, err := compute(fctx)
		if err != nil {
			return zero, err
		}
		if chaos.Fire(fctx, c.insertFault) == nil {
			c.lru.add(key, v, size)
		}
		return v, nil
	})
	e.observeBudget(sp, err)
	if shared {
		c.coalesced.Add(1)
		// Joined another request's flight: the compute spans belong to the
		// initiating caller's trace, so record the wait explicitly.
		sp.AddCompleted("singleflight-wait", waitStart, time.Since(waitStart))
		sp.SetAttr("coalesced", true)
	}
	if annotate != nil {
		annotate(sp, v, err)
	}
	return v, false, err
}

// DiffStats describes how much of a DiffPolicies call was served from the
// caches.
type DiffStats struct {
	// ReportCached reports a pair-cache hit: no pipeline work ran.
	ReportCached bool
	// CompileHits counts compile-cache hits among the two policies (0-2).
	CompileHits int
}

// PairDiff is what a pair diff obtained: the report, the two compilations
// it compares, and how the call was served. A and B are set for each
// policy whose compilation succeeded, also when the call failed later.
type PairDiff struct {
	Report *compare.Report
	A, B   *Compiled
	Stats  DiffStats
	// entry is the report's cache entry, where EncodedReport keeps the
	// response rendered from it.
	entry *reportEntry
}

// DiffPolicies compiles both policies (cached, deduplicated) and returns
// their comparison report (cached by content-address pair). On the cold
// path the report's Timing.Construct records the wall time this call
// spent obtaining the two FDDs; cached reports keep the timing of the run
// that produced them.
func (e *Engine) DiffPolicies(ctx context.Context, pa, pb *rule.Policy) (*compare.Report, DiffStats, error) {
	d, err := e.DiffPair(ctx, pa, pb)
	return d.Report, d.Stats, err
}

// DiffPair is DiffPolicies returning the two compilations as well, for
// callers that go on to use the diagrams the report compares.
func (e *Engine) DiffPair(ctx context.Context, pa, pb *rule.Policy) (PairDiff, error) {
	var d PairDiff
	if !pa.Schema.Equal(pb.Schema) {
		return d, fmt.Errorf("engine: schemas differ")
	}
	start := time.Now()
	// The two compilations are independent; overlap them like
	// compare.DiffContext overlaps its constructions.
	var hitB bool
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.B, hitB, errB = e.Compile(ctx, pb)
	}()
	ca, hitA, err := e.Compile(ctx, pa)
	<-done
	d.A = ca
	if err != nil {
		return d, fmt.Errorf("engine: first policy: %w", err)
	}
	if errB != nil {
		return d, fmt.Errorf("engine: second policy: %w", errB)
	}
	for _, hit := range []bool{hitA, hitB} {
		if hit {
			d.Stats.CompileHits++
		}
	}
	return d, e.diffPair(ctx, &d, time.Since(start))
}

// diffPair fills d's report from its two compilations.
func (e *Engine) diffPair(ctx context.Context, d *PairDiff, construct time.Duration) error {
	ent, cached, err := e.diff(ctx, d.A, d.B, construct)
	d.Stats.ReportCached = cached
	if err != nil {
		return err
	}
	d.Report, d.entry = ent.report, ent
	return nil
}

// Diff returns the comparison report for two already-compiled policies,
// from the pair cache when resident. hit reports a pair-cache hit.
func (e *Engine) Diff(ctx context.Context, a, b *Compiled) (r *compare.Report, hit bool, err error) {
	ent, hit, err := e.diff(ctx, a, b, 0)
	if err != nil {
		return nil, hit, err
	}
	return ent.report, hit, nil
}

// diff is Diff with the construct wall time to stamp into a freshly built
// report's timing (zero when the FDDs were already at hand). The stamp
// happens inside the flight, before the report is cached or shared, so
// coalesced waiters never race a write.
//
// Every engine diff — /v1/diff, /v1/impact, /v1/resolve, cross-compare
// pairs and jobs — runs the memoized product walk
// (compare.DiffFDDsDirectContext), not the paper's shape-and-lockstep
// pipeline: it emits the same rows in the same order at a fraction of the
// cost, and short-circuits on the subgraphs an incrementally built FDD
// shares with its base. One pair therefore has one report under one key,
// whichever endpoint computed it, and row numbers handed out by one
// endpoint hold for the others.
func (e *Engine) diff(ctx context.Context, a, b *Compiled, construct time.Duration) (*reportEntry, bool, error) {
	key := a.Hash + "|" + b.Hash
	return lookupOrCompute(ctx, e, &e.reports, key, nil, func(fctx context.Context) (*reportEntry, int64, error) {
		r, err := compare.DiffFDDsDirectContext(fctx, a.FDD, b.FDD)
		if err != nil {
			return nil, 0, err
		}
		r.Timing.Construct = construct
		ent := &reportEntry{report: r, key: key, size: reportBytes(r)}
		return ent, ent.size, nil
	})
}

// reportEntry is one report-cache value: a pair's report and, once a
// response has been rendered from it, that rendering.
type reportEntry struct {
	report *compare.Report
	key    string
	size   int64 // reportBytes(report)
	body   atomic.Pointer[[]byte]
}

// EncodedReport returns the response body d's report renders to: the one
// kept on the report's cache entry, or else encode's, which it keeps
// there and charges to the entry while the entry is resident, so the
// body leaves the cache with its report. encode must depend on the
// report alone, so that every caller would render the same bytes. With
// no cache entry behind d (a failed diff), it returns encode's result.
func (e *Engine) EncodedReport(d PairDiff, encode func() []byte) []byte {
	ent := d.entry
	if ent == nil {
		return encode()
	}
	if b := ent.body.Load(); b != nil {
		return *b
	}
	b := encode()
	if e.reports.lru.recharge(ent.key, ent, ent.size+encodedCost+int64(len(b))) {
		ent.body.Store(&b)
	}
	return b
}

// EditStats describes how an ImpactEdits call was served.
type EditStats struct {
	DiffStats
	// Incremental reports that the after-FDD was built by resuming the
	// before policy's builder from a checkpoint instead of from scratch.
	// False when the edited policy's compilation was already cached (no
	// construction at all), when resume failed and construction fell back
	// to scratch, or when this call joined a concurrent Compile of the
	// same policy that built it from scratch.
	Incremental bool
	// CheckpointRules and RulesReappended echo fdd.ResumeStats for an
	// incremental build (zero otherwise).
	CheckpointRules int
	RulesReappended int
	// AfterHash is the content address of the edited policy.
	AfterHash string
}

// ImpactEdits applies an edit script to a compiled-or-compiling policy
// and returns the edited policy, the discrepancy report between the two,
// and how the call was served. It is the fast path for change-impact
// analysis:
//
//   - the after-FDD is built incrementally by resuming the before
//     policy's builder from the deepest checkpoint the edits left
//     untouched, re-appending only the suffix;
//   - the diff (the engine's one walk, see diff) short-circuits in O(1)
//     on the subgraphs the incremental build shares with the base FDD.
//
// A failed incremental build falls back to scratch construction and the
// failure is never cached. Both policies go through Compile's own path
// and flight (see compile), so budget charging and coalescing match
// Compile's, and a concurrent Compile of the same policy shares this
// construction. Both are compiled as edit bases, keeping their resume
// checkpoints; a before policy that an earlier Compile cached trimmed
// replays them inside its first edit's resume, once.
func (e *Engine) ImpactEdits(ctx context.Context, before *rule.Policy, edits []impact.Edit) (*rule.Policy, *compare.Report, EditStats, error) {
	d, err := e.DiffEdits(ctx, before, edits)
	return d.After, d.Report, d.Stats, err
}

// EditDiff is what an edit script's impact analysis obtained: the before
// policy's compilation (set once it compiled, also when the call failed
// later), the edited policy, the report between the two, and how the
// call was served. After and Report are set only on success.
type EditDiff struct {
	Before *Compiled
	After  *rule.Policy
	Report *compare.Report
	Stats  EditStats
}

// DiffEdits is ImpactEdits returning the before policy's compilation as
// well, for a caller that aliases the source it parsed to it
// (AliasSource).
func (e *Engine) DiffEdits(ctx context.Context, before *rule.Policy, edits []impact.Edit) (EditDiff, error) {
	ctx, sp := trace.Start(ctx, "impact.edits")
	defer sp.End()
	start := time.Now()
	cb, hit, err := e.compile(ctx, before, hashPolicy(ctx, before), nil, 0, true)
	if err != nil {
		return EditDiff{}, fmt.Errorf("engine: before policy: %w", err)
	}
	return e.editFrom(ctx, sp, start, before, cb, hit, edits)
}

// editFrom is DiffEdits from the before policy's compilation cb (hit: a
// compile-cache hit), under sp, the call's impact.edits span, for a call
// that started at start: it applies the edits to before, compiles the
// edited policy by resuming cb's builder past the rules the script left
// in place, and diffs the two.
func (e *Engine) editFrom(ctx context.Context, sp *trace.Span, start time.Time, before *rule.Policy, cb *Compiled, hit bool, edits []impact.Edit) (EditDiff, error) {
	d := EditDiff{Before: cb}
	sp.SetAttr("edits", len(edits))
	if hit {
		d.Stats.CompileHits++
	}
	after, err := impact.Apply(before, edits)
	if err != nil {
		return d, err
	}
	d.Stats.AfterHash = hashPolicy(ctx, after)
	kept := impact.UntouchedPrefix(before.Size(), edits)
	ca, hitA, err := e.compile(ctx, after, d.Stats.AfterHash, cb, kept, true)
	if err != nil {
		return d, fmt.Errorf("engine: after policy: %w", err)
	}
	if hitA {
		d.Stats.CompileHits++
	} else {
		d.Stats.Incremental = ca.incremental
		d.Stats.CheckpointRules = ca.resumed.CheckpointRules
		d.Stats.RulesReappended = ca.resumed.RulesReappended
	}
	ent, cached, err := e.diff(ctx, cb, ca, time.Since(start))
	d.Stats.ReportCached = cached
	if err != nil {
		return d, err
	}
	sp.SetAttr("incremental", d.Stats.Incremental)
	sp.SetAttr("rulesReappended", d.Stats.RulesReappended)
	d.After, d.Report = after, ent.report
	return d, nil
}

// isAbort reports whether the error is a cancellation or budget crossing
// — failures the scratch path would reproduce, so falling back is waste.
func isAbort(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, guard.ErrBudget)
}

// CacheStats is a point-in-time snapshot of one cache.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	// Compile is the compile cache; its Bytes include the text alias's,
	// whose budget is a share of the compile cache's.
	Compile CacheStats `json:"compile"`
	Reports CacheStats `json:"reports"`
	// Compilations counts FDD constructions actually performed (cache
	// misses that ran, not deduplicated waiters).
	Compilations uint64 `json:"compilations"`
	// Coalesced counts callers that joined another caller's flight
	// instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Incremental counts resume-from-checkpoint build outcomes.
	Incremental IncrementalStats `json:"incremental"`
}

// IncrementalStats counts incremental (resume-from-checkpoint) FDD build
// outcomes. Used + Fallback == Attempted once all flights settle.
type IncrementalStats struct {
	Attempted uint64 `json:"attempted"`
	Used      uint64 `json:"used"`
	Fallback  uint64 `json:"fallback"`
}

// Stats returns current cache and dedup counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Compile:      e.compileStats(),
		Reports:      e.reports.lru.stats(),
		Compilations: e.compilations.Load(),
		Coalesced:    e.compiled.coalesced.Load() + e.reports.coalesced.Load(),
		Incremental: IncrementalStats{
			Attempted: e.incAttempted.Load(),
			Used:      e.incUsed.Load(),
			Fallback:  e.incFallback.Load(),
		},
	}
}

// compileStats is the compile cache's snapshot with the text alias's
// bytes added, since its budget is carved out of the compile cache's.
func (e *Engine) compileStats() CacheStats {
	st := e.compiled.lru.stats()
	st.Bytes += e.sources.stats().Bytes
	return st
}

const (
	cacheCompile = "compile"
	cacheReport  = "report"
	cacheSource  = "text"
)

// budgeted attaches a fresh work budget from the engine's limits to a
// flight context, unless the caller already supplied one (a request
// budget flows through context.WithoutCancel into the flight like trace
// spans do). One budget per flight: coalesced identical requests share
// an allowance rather than multiplying it.
func (e *Engine) budgeted(ctx context.Context) context.Context {
	if !e.limits.Enabled() || guard.FromContext(ctx) != nil {
		return ctx
	}
	return guard.WithBudget(ctx, guard.NewBudget(e.limits))
}

// observeBudget records a budget-exceeded flight outcome on the span
// and the fwguard metrics. Nil and non-budget errors are ignored.
func (e *Engine) observeBudget(sp *trace.Span, err error) {
	var be *guard.ErrBudgetExceeded
	if !errors.As(err, &be) {
		return
	}
	if e.budgetExceeded != nil {
		e.budgetExceeded.With(string(be.Kind)).Inc()
	}
	sp.SetAttr("budgetExceeded", string(be.Kind))
	sp.SetAttr("budgetLimit", be.Limit)
	sp.SetAttr("budgetUsed", be.Used)
}

// registerMetrics exports the engine on reg. The fwengine_* counters and
// gauges are read at scrape time from the same counts Stats reads — the
// caches' LRU counters and the engine's atomics — so a scrape and a Stats
// call can never disagree. Only the re-append histogram and the fwguard
// budget counter are pushed as events happen.
func (e *Engine) registerMetrics(reg *metrics.Registry) {
	perCache := func(value func(CacheStats, uint64) uint64) func() []metrics.Sample {
		return func() []metrics.Sample {
			return []metrics.Sample{
				e.compiled.sample(e.compileStats(), value),
				e.reports.sample(e.reports.lru.stats(), value),
			}
		}
	}
	count := func(n *atomic.Uint64) func() []metrics.Sample {
		return func() []metrics.Sample { return []metrics.Sample{{Value: float64(n.Load())}} }
	}
	reg.NewCounterFunc("fwengine_cache_hits_total", "Engine cache hits by cache.",
		perCache(func(s CacheStats, _ uint64) uint64 { return s.Hits }))
	reg.NewCounterFunc("fwengine_cache_misses_total", "Engine cache misses by cache.",
		perCache(func(s CacheStats, _ uint64) uint64 { return s.Misses }))
	reg.NewCounterFunc("fwengine_cache_evictions_total", "Engine cache LRU evictions by cache.",
		perCache(func(s CacheStats, _ uint64) uint64 { return s.Evictions }))
	reg.NewGaugeFunc("fwengine_cache_resident_bytes", "Estimated resident bytes per engine cache.",
		perCache(func(s CacheStats, _ uint64) uint64 { return uint64(s.Bytes) }))
	reg.NewGaugeFunc("fwengine_cache_entries", "Entries per engine cache.",
		perCache(func(s CacheStats, _ uint64) uint64 { return uint64(s.Entries) }))
	reg.NewCounterFunc("fwengine_singleflight_coalesced_total",
		"Callers that joined an in-flight identical computation.",
		perCache(func(_ CacheStats, coalesced uint64) uint64 { return coalesced }))
	reg.NewCounterFunc("fwengine_compilations_total",
		"FDD constructions actually performed (not served from cache or coalesced).",
		count(&e.compilations))
	reg.NewCounterFunc("fwengine_incremental_attempted_total",
		"Incremental (resume-from-checkpoint) FDD builds attempted.", count(&e.incAttempted))
	reg.NewCounterFunc("fwengine_incremental_used_total",
		"Incremental FDD builds that succeeded and were used.", count(&e.incUsed))
	reg.NewCounterFunc("fwengine_incremental_fallback_total",
		"Incremental FDD builds that failed and fell back to scratch construction.", count(&e.incFallback))
	e.incReappended = reg.NewHistogram("fwengine_incremental_rules_reappended",
		"Rules re-appended per successful incremental build.",
		[]float64{1, 4, 16, 64, 256, 1024, 4096})
	e.budgetExceeded = reg.NewCounterVec("fwguard_budget_exceeded_total",
		"Pipeline flights aborted by a work budget, by resource kind.", "kind")
}

// sample is one cache's series of a per-cache family, labelled by its
// name, read from its snapshot st.
func (c *cache[V]) sample(st CacheStats, value func(CacheStats, uint64) uint64) metrics.Sample {
	return metrics.Sample{
		Labels: []metrics.Label{{Name: "cache", Value: c.name}},
		Value:  float64(value(st, c.coalesced.Load())),
	}
}

// Resident-size estimates for the LRU budgets. These charge Go object
// overheads (headers, slices, pointers) approximately; the goal is that
// the budget tracks real memory within a small constant factor.
const (
	// A diagram is materialized as one slab each of fdd.Node, fdd.Edge
	// and interval.Interval, so nodeCost and edgeCost are those structs'
	// sizes, with no per-object overhead.
	nodeCost     = 40
	edgeCost     = 32
	intervalCost = 16
	ruleCost     = 64
	rowCost      = 96
	// encodedCost is a kept response body's overhead beyond its bytes.
	encodedCost = 48
)

// fddBytes estimates the resident size of a reduced FDD, counting shared
// nodes once, and counts its nodes.
func fddBytes(f *fdd.FDD) (total int64, nodes int) {
	seen := make(map[*fdd.Node]bool)
	var walk func(n *fdd.Node)
	walk = func(n *fdd.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		total += nodeCost
		for _, e := range n.Edges {
			total += edgeCost + intervalCost*int64(e.Label.NumIntervals())
			walk(e.To)
		}
	}
	walk(f.Root)
	return total, len(seen)
}

// builderBytes estimates the extra resident cost of keeping a compiled
// policy's builder: its family's pointer-free store, which holds the
// final diagrams and the checkpoints' partial diagrams as slab records
// beside the materialized diagram fddBytes charges. A trimmed builder
// holds none. Builders resumed from a common base share one store, so
// summing per cache entry over-charges — the LRU budget prefers over-
// to under-counting.
func builderBytes(b *fdd.Builder) int64 {
	if b == nil {
		return 0
	}
	return b.StoreBytes()
}

// policyBytes estimates the resident size of a parsed policy.
func policyBytes(p *rule.Policy) int64 {
	var total int64
	for _, r := range p.Rules {
		total += ruleCost
		for _, s := range r.Pred {
			total += intervalCost * int64(s.NumIntervals())
		}
	}
	return total
}

// reportBytes estimates the resident size of a comparison report.
func reportBytes(r *compare.Report) int64 {
	var total int64 = rowCost
	for _, d := range r.Discrepancies {
		total += rowCost
		for _, s := range d.Pred {
			total += intervalCost * int64(s.NumIntervals())
		}
	}
	return total
}
