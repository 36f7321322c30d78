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
//     spelling — share one construction.
//   - Diff caches (hash(A), hash(B)) -> the full comparison report, so a
//     repeated diff of the same pair costs two hash lookups. Reusing the
//     report also makes discrepancy row numbering stable across /v1/diff
//     and /v1/resolve for the same pair.
//
// Concurrent identical requests are deduplicated with a singleflight
// group: a thundering herd of N requests for the same policy compiles it
// once, and the other N-1 wait for that flight. Flights are detached from
// any single request's context — a caller that aborts stops waiting
// without failing the flight for everyone else, and only when the last
// waiter leaves is the flight canceled and forgotten. Failed or canceled
// flights are never cached, so an aborted request can neither poison nor
// pin a cache entry mid-compile.
//
// Both caches are size-aware LRUs; hits, misses, evictions, and resident
// bytes are exported through internal/metrics when a registry is given.
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
	// CompileCacheBytes bounds the compiled-policy cache (default 128 MiB).
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
	// checkpoint (see ImpactEdits). Its extra node store is charged to
	// SizeBytes.
	Builder *fdd.Builder
	// Hash is the content address, PolicyHash(Policy): sha256 over the
	// schema key and the policy's canonical interval sets.
	Hash string
	// SizeBytes is the resident-memory estimate the LRU charges.
	SizeBytes int64
}

// Engine is the caching service layer. Safe for concurrent use.
type Engine struct {
	compiled *lruCache[*Compiled]
	reports  *lruCache[*compare.Report]

	compileFlights flightGroup[*Compiled]
	reportFlights  flightGroup[*compare.Report]
	incFlights     flightGroup[incResult]

	// construct is fdd.NewBuilderContext, swappable in tests to observe
	// and stall compilations.
	construct func(ctx context.Context, p *rule.Policy) (*fdd.Builder, error)
	// resume is (*fdd.Builder).Resume, swappable in tests to force the
	// incremental path to fail and observe the scratch fallback.
	resume func(ctx context.Context, base *fdd.Builder, after *rule.Policy) (*fdd.Builder, fdd.ResumeStats, error)

	limits guard.Limits

	compilations atomic.Uint64
	coalesced    atomic.Uint64

	incAttempted atomic.Uint64
	incUsed      atomic.Uint64
	incFallback  atomic.Uint64

	inst *instruments
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.CompileCacheBytes <= 0 {
		cfg.CompileCacheBytes = DefaultCompileCacheBytes
	}
	if cfg.ReportCacheBytes <= 0 {
		cfg.ReportCacheBytes = DefaultReportCacheBytes
	}
	e := &Engine{
		compiled:  newLRU[*Compiled](cfg.CompileCacheBytes),
		reports:   newLRU[*compare.Report](cfg.ReportCacheBytes),
		construct: fdd.NewBuilderContext,
		resume: func(ctx context.Context, base *fdd.Builder, after *rule.Policy) (*fdd.Builder, fdd.ResumeStats, error) {
			return base.Resume(ctx, after)
		},
		limits: cfg.Limits,
	}
	if cfg.Metrics != nil {
		e.inst = newInstruments(cfg.Metrics)
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
func (e *Engine) Compile(ctx context.Context, p *rule.Policy) (c *Compiled, hit bool, err error) {
	hash := PolicyHash(p)
	if c, ok := e.compiled.get(hash); ok {
		e.observeGet(cacheCompile, true)
		trace.Event(ctx, "cache-lookup",
			trace.A("cache", "compile"), trace.A("hit", true))
		return c, true, nil
	}
	e.observeGet(cacheCompile, false)
	trace.Event(ctx, "cache-lookup",
		trace.A("cache", "compile"), trace.A("hit", false))
	// The flight context is derived from ctx with values intact
	// (context.WithoutCancel inside the flight group), so construct's
	// spans land under this compile span even when the flight outlives
	// the request.
	ctx, sp := trace.Start(ctx, "compile")
	defer sp.End()
	sp.SetAttr("policyHash", hash[:12])
	waitStart := time.Now()
	c, shared, err := e.compileFlights.do(ctx, hash, func(fctx context.Context) (*Compiled, error) {
		// A flight that completed between the miss above and this call
		// may have filled the cache already.
		if c, ok := e.compiled.get(hash); ok {
			return c, nil
		}
		fctx = e.budgeted(fctx)
		if err := chaos.Fire(fctx, chaos.PointCompile); err != nil {
			return nil, err
		}
		b, err := e.construct(fctx, p)
		if err != nil {
			return nil, err
		}
		e.compilations.Add(1)
		if e.inst != nil {
			e.inst.compilations.Inc()
		}
		c := &Compiled{Policy: p, FDD: b.FDD(), Builder: b, Hash: hash}
		c.SizeBytes = policyBytes(p) + fddBytes(b.FDD()) + builderBytes(b)
		// An injected cache failure skips the insert but not the result:
		// the caller still gets its compilation, the next request just
		// recompiles. Verifies degraded-cache behavior is miss-shaped,
		// never corrupt.
		if chaos.Fire(fctx, chaos.PointCacheInsertCompile) == nil {
			e.addCompiled(hash, c)
		}
		return c, nil
	})
	e.observeBudget(sp, err)
	if shared {
		e.coalesced.Add(1)
		if e.inst != nil {
			e.inst.coalesced.With(cacheCompile).Inc()
		}
		// Joined another request's flight: the construct span belongs to
		// the initiating caller's trace, so record the wait explicitly.
		sp.AddCompleted("singleflight-wait", waitStart, time.Since(waitStart))
		sp.SetAttr("coalesced", true)
	}
	return c, false, err
}

// DiffStats describes how much of a DiffPolicies call was served from the
// caches.
type DiffStats struct {
	// ReportCached reports a pair-cache hit: no pipeline work ran.
	ReportCached bool
	// CompileHits counts compile-cache hits among the two policies (0-2).
	CompileHits int
}

// DiffPolicies compiles both policies (cached, deduplicated) and returns
// their comparison report (cached by content-address pair). On the cold
// path the report's Timing.Construct records the wall time this call
// spent obtaining the two FDDs; cached reports keep the timing of the run
// that produced them.
func (e *Engine) DiffPolicies(ctx context.Context, pa, pb *rule.Policy) (*compare.Report, DiffStats, error) {
	if !pa.Schema.Equal(pb.Schema) {
		return nil, DiffStats{}, fmt.Errorf("engine: schemas differ")
	}
	var stats DiffStats
	start := time.Now()
	// The two compilations are independent; overlap them like
	// compare.DiffContext overlaps its constructions.
	var cb *Compiled
	var hitB bool
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		cb, hitB, errB = e.Compile(ctx, pb)
	}()
	ca, hitA, err := e.Compile(ctx, pa)
	<-done
	if err != nil {
		return nil, stats, fmt.Errorf("engine: first policy: %w", err)
	}
	if errB != nil {
		return nil, stats, fmt.Errorf("engine: second policy: %w", errB)
	}
	for _, hit := range []bool{hitA, hitB} {
		if hit {
			stats.CompileHits++
		}
	}
	r, cached, err := e.diff(ctx, ca, cb, time.Since(start))
	stats.ReportCached = cached
	return r, stats, err
}

// Diff returns the comparison report for two already-compiled policies,
// from the pair cache when resident. hit reports a pair-cache hit.
func (e *Engine) Diff(ctx context.Context, a, b *Compiled) (r *compare.Report, hit bool, err error) {
	return e.diff(ctx, a, b, 0)
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
func (e *Engine) diff(ctx context.Context, a, b *Compiled, construct time.Duration) (*compare.Report, bool, error) {
	key := a.Hash + "|" + b.Hash
	if r, ok := e.reports.get(key); ok {
		e.observeGet(cacheReport, true)
		trace.Event(ctx, "cache-lookup",
			trace.A("cache", "report"), trace.A("hit", true))
		return r, true, nil
	}
	e.observeGet(cacheReport, false)
	trace.Event(ctx, "cache-lookup",
		trace.A("cache", "report"), trace.A("hit", false))
	ctx, sp := trace.Start(ctx, "diff")
	defer sp.End()
	waitStart := time.Now()
	r, shared, err := e.reportFlights.do(ctx, key, func(fctx context.Context) (*compare.Report, error) {
		if r, ok := e.reports.get(key); ok {
			return r, nil
		}
		fctx = e.budgeted(fctx)
		if err := chaos.Fire(fctx, chaos.PointDiff); err != nil {
			return nil, err
		}
		r, err := compare.DiffFDDsDirectContext(fctx, a.FDD, b.FDD)
		if err != nil {
			return nil, err
		}
		r.Timing.Construct = construct
		if chaos.Fire(fctx, chaos.PointCacheInsertReport) == nil {
			e.addReport(key, r)
		}
		return r, nil
	})
	e.observeBudget(sp, err)
	if shared {
		e.coalesced.Add(1)
		if e.inst != nil {
			e.inst.coalesced.With(cacheReport).Inc()
		}
		sp.AddCompleted("singleflight-wait", waitStart, time.Since(waitStart))
		sp.SetAttr("coalesced", true)
	}
	return r, false, err
}

// EditStats describes how an ImpactEdits call was served.
type EditStats struct {
	DiffStats
	// Incremental reports that the after-FDD was built by resuming the
	// before policy's builder from a checkpoint instead of from scratch.
	// False when the edited policy's compilation was already cached (no
	// construction at all) or when resume failed and construction fell
	// back to scratch.
	Incremental bool
	// CheckpointRules and RulesReappended echo fdd.ResumeStats for an
	// incremental build (zero otherwise).
	CheckpointRules int
	RulesReappended int
	// AfterHash is the content address of the edited policy.
	AfterHash string
}

// incResult carries a compilation plus how it was built through the
// incremental singleflight, so coalesced waiters see the same stats the
// flight runner reports.
type incResult struct {
	c           *Compiled
	stats       fdd.ResumeStats
	incremental bool
}

// errNoBuilder routes compilations whose cache entry predates builder
// retention onto the scratch path (it cannot happen for entries this
// engine created, but a test may construct Compiled values by hand).
var errNoBuilder = errors.New("engine: base compilation has no builder")

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
// failure is never cached; budget charging and singleflight semantics
// match Compile (the incremental flight coalesces on the edited policy's
// content address).
func (e *Engine) ImpactEdits(ctx context.Context, before *rule.Policy, edits []impact.Edit) (*rule.Policy, *compare.Report, EditStats, error) {
	var stats EditStats
	ctx, sp := trace.Start(ctx, "impact.edits")
	defer sp.End()
	sp.SetAttr("edits", len(edits))
	start := time.Now()
	cb, hitB, err := e.Compile(ctx, before)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("engine: before policy: %w", err)
	}
	if hitB {
		stats.CompileHits++
	}
	after, err := impact.Apply(before, edits)
	if err != nil {
		return nil, nil, stats, err
	}
	afterHash := PolicyHash(after)
	stats.AfterHash = afterHash
	ca, hitA, res, err := e.compileIncremental(ctx, cb, after, afterHash)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("engine: after policy: %w", err)
	}
	if hitA {
		stats.CompileHits++
	}
	stats.Incremental = res.incremental
	stats.CheckpointRules = res.stats.CheckpointRules
	stats.RulesReappended = res.stats.RulesReappended
	r, cached, err := e.diff(ctx, cb, ca, time.Since(start))
	stats.ReportCached = cached
	if err != nil {
		return nil, nil, stats, err
	}
	sp.SetAttr("incremental", stats.Incremental)
	sp.SetAttr("rulesReappended", stats.RulesReappended)
	return after, r, stats, nil
}

// compileIncremental is Compile for a policy derived from an already
// compiled base: the flight resumes the base's builder and falls back to
// scratch construction when the resume fails for any reason that is not
// the caller's (cancellation) or the governor's (budget) — those would
// fail a scratch build identically, so they surface as-is. Failed flights
// are never cached, in either mode.
func (e *Engine) compileIncremental(ctx context.Context, base *Compiled, after *rule.Policy, hash string) (*Compiled, bool, incResult, error) {
	if c, ok := e.compiled.get(hash); ok {
		e.observeGet(cacheCompile, true)
		trace.Event(ctx, "cache-lookup",
			trace.A("cache", "compile"), trace.A("hit", true))
		return c, true, incResult{c: c}, nil
	}
	e.observeGet(cacheCompile, false)
	trace.Event(ctx, "cache-lookup",
		trace.A("cache", "compile"), trace.A("hit", false))
	ctx, sp := trace.Start(ctx, "compile.incremental")
	defer sp.End()
	sp.SetAttr("policyHash", hash[:12])
	sp.SetAttr("baseHash", base.Hash[:12])
	waitStart := time.Now()
	res, shared, err := e.incFlights.do(ctx, hash, func(fctx context.Context) (incResult, error) {
		if c, ok := e.compiled.get(hash); ok {
			return incResult{c: c}, nil
		}
		fctx = e.budgeted(fctx)
		if err := chaos.Fire(fctx, chaos.PointCompile); err != nil {
			return incResult{}, err
		}
		var out incResult
		var b *fdd.Builder
		rerr := errNoBuilder
		if base.Builder != nil {
			e.incAttempted.Add(1)
			if e.inst != nil {
				e.inst.incAttempted.Inc()
			}
			b, out.stats, rerr = e.resume(fctx, base.Builder, after)
			out.incremental = rerr == nil
		}
		if rerr != nil {
			if isAbort(rerr) {
				return incResult{}, rerr
			}
			if base.Builder != nil {
				e.incFallback.Add(1)
				if e.inst != nil {
					e.inst.incFallback.Inc()
				}
				trace.Event(fctx, "incremental-fallback", trace.A("error", rerr.Error()))
			}
			out.stats = fdd.ResumeStats{}
			if b, rerr = e.construct(fctx, after); rerr != nil {
				return incResult{}, rerr
			}
		} else {
			e.incUsed.Add(1)
			if e.inst != nil {
				e.inst.incUsed.Inc()
				e.inst.incReappended.Observe(float64(out.stats.RulesReappended))
			}
		}
		e.compilations.Add(1)
		if e.inst != nil {
			e.inst.compilations.Inc()
		}
		c := &Compiled{Policy: after, FDD: b.FDD(), Builder: b, Hash: hash}
		c.SizeBytes = policyBytes(after) + fddBytes(b.FDD()) + builderBytes(b)
		if chaos.Fire(fctx, chaos.PointCacheInsertCompile) == nil {
			e.addCompiled(hash, c)
		}
		out.c = c
		return out, nil
	})
	e.observeBudget(sp, err)
	if shared {
		e.coalesced.Add(1)
		if e.inst != nil {
			e.inst.coalesced.With(cacheCompile).Inc()
		}
		sp.AddCompleted("singleflight-wait", waitStart, time.Since(waitStart))
		sp.SetAttr("coalesced", true)
	}
	if err != nil {
		return nil, false, incResult{}, err
	}
	sp.SetAttr("incremental", res.incremental)
	return res.c, false, res, nil
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
	toCache := func(s lruStats) CacheStats {
		return CacheStats{Entries: s.Entries, Bytes: s.Bytes, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions}
	}
	return Stats{
		Compile:      toCache(e.compiled.stats()),
		Reports:      toCache(e.reports.stats()),
		Compilations: e.compilations.Load(),
		Coalesced:    e.coalesced.Load(),
		Incremental: IncrementalStats{
			Attempted: e.incAttempted.Load(),
			Used:      e.incUsed.Load(),
			Fallback:  e.incFallback.Load(),
		},
	}
}

const (
	cacheCompile = "compile"
	cacheReport  = "report"
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
	if e.inst != nil {
		e.inst.budgetExceeded.With(string(be.Kind)).Inc()
	}
	sp.SetAttr("budgetExceeded", string(be.Kind))
	sp.SetAttr("budgetLimit", be.Limit)
	sp.SetAttr("budgetUsed", be.Used)
}

// instruments holds the engine's metric families; nil without a registry.
type instruments struct {
	hits         *metrics.CounterVec
	misses       *metrics.CounterVec
	evictions    *metrics.CounterVec
	bytes        *metrics.GaugeVec
	entries      *metrics.GaugeVec
	compilations *metrics.Counter
	coalesced    *metrics.CounterVec

	incAttempted  *metrics.Counter
	incUsed       *metrics.Counter
	incFallback   *metrics.Counter
	incReappended *metrics.Histogram
	// budgetExceeded lives in the fwguard family: it counts resource-
	// governance interventions, not engine cache traffic.
	budgetExceeded *metrics.CounterVec
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		hits: reg.NewCounterVec("fwengine_cache_hits_total",
			"Engine cache hits by cache.", "cache"),
		misses: reg.NewCounterVec("fwengine_cache_misses_total",
			"Engine cache misses by cache.", "cache"),
		evictions: reg.NewCounterVec("fwengine_cache_evictions_total",
			"Engine cache LRU evictions by cache.", "cache"),
		bytes: reg.NewGaugeVec("fwengine_cache_resident_bytes",
			"Estimated resident bytes per engine cache.", "cache"),
		entries: reg.NewGaugeVec("fwengine_cache_entries",
			"Entries per engine cache.", "cache"),
		compilations: reg.NewCounter("fwengine_compilations_total",
			"FDD constructions actually performed (not served from cache or coalesced)."),
		coalesced: reg.NewCounterVec("fwengine_singleflight_coalesced_total",
			"Callers that joined an in-flight identical computation.", "cache"),
		incAttempted: reg.NewCounter("fwengine_incremental_attempted_total",
			"Incremental (resume-from-checkpoint) FDD builds attempted."),
		incUsed: reg.NewCounter("fwengine_incremental_used_total",
			"Incremental FDD builds that succeeded and were used."),
		incFallback: reg.NewCounter("fwengine_incremental_fallback_total",
			"Incremental FDD builds that failed and fell back to scratch construction."),
		incReappended: reg.NewHistogram("fwengine_incremental_rules_reappended",
			"Rules re-appended per successful incremental build.",
			[]float64{1, 4, 16, 64, 256, 1024, 4096}),
		budgetExceeded: reg.NewCounterVec("fwguard_budget_exceeded_total",
			"Pipeline flights aborted by a work budget, by resource kind.", "kind"),
	}
}

func (e *Engine) observeGet(cache string, hit bool) {
	if e.inst == nil {
		return
	}
	if hit {
		e.inst.hits.With(cache).Inc()
	} else {
		e.inst.misses.With(cache).Inc()
	}
}

func (e *Engine) addCompiled(key string, c *Compiled) {
	evicted := e.compiled.add(key, c, c.SizeBytes)
	e.observeAdd(cacheCompile, e.compiled.stats(), evicted)
}

func (e *Engine) addReport(key string, r *compare.Report) {
	evicted := e.reports.add(key, r, reportBytes(r))
	e.observeAdd(cacheReport, e.reports.stats(), evicted)
}

func (e *Engine) observeAdd(cache string, s lruStats, evicted int) {
	if e.inst == nil {
		return
	}
	if evicted > 0 {
		e.inst.evictions.With(cache).Add(uint64(evicted))
	}
	e.inst.bytes.With(cache).Set(s.Bytes)
	e.inst.entries.With(cache).Set(int64(s.Entries))
}

// Resident-size estimates for the LRU budgets. These charge Go object
// overheads (headers, slices, pointers) approximately; the goal is that
// the budget tracks real memory within a small constant factor.
const (
	nodeCost     = 64
	edgeCost     = 48
	intervalCost = 16
	ruleCost     = 64
	rowCost      = 96
)

// fddBytes estimates the resident size of a reduced FDD, counting shared
// nodes once.
func fddBytes(f *fdd.FDD) int64 {
	seen := make(map[*fdd.Node]bool)
	var total int64
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
	return total
}

// builderBytes estimates the extra resident cost of keeping a compiled
// policy's builder: its family's shared node store retains intermediate
// partial forms beyond the final diagram. Builders resumed from a common
// base share one store, so summing per cache entry over-charges — the
// LRU budget prefers over- to under-counting.
func builderBytes(b *fdd.Builder) int64 {
	if b == nil {
		return 0
	}
	return int64(b.StoreNodes()) * (nodeCost + edgeCost)
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
