package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/metrics"
	"diversefw/internal/trace"
)

// ErrClosed reports a Submit or Run after Close, and a Run that Close
// interrupted.
var ErrClosed = errors.New("jobs: coordinator closed")

// Recorder receives one observation per settled pair for objective
// tracking. It mirrors the slo.Store Record signature without importing
// the package, so the coordinator stays decoupled from SLO policy.
type Recorder interface {
	Record(target string, latency time.Duration, status int, shed bool)
}

// Config configures a Coordinator. The zero value is usable: 4
// workers, 15 minute retention, 256 stored jobs, no journal, no
// instrumentation.
type Config struct {
	// Workers is the number of pair-comparison workers (default 4).
	Workers int
	// Retention is how long a finished job stays pollable before it is
	// purged (default 15m).
	Retention time.Duration
	// MaxJobs caps stored jobs, finished-but-retained included
	// (default 256). Submit returns ErrTooManyJobs at the cap.
	MaxJobs int
	// Metrics, when non-nil, receives the fwjobs_* instrument family.
	Metrics *metrics.Registry
	// Traces, when non-nil, receives one trace per finished job.
	Traces *trace.Buffer
	// Store, when non-nil, journals every stored job's lifecycle: the
	// coordinator adopts the jobs it replayed at construction and closes
	// it in Close.
	Store *JournalStore
	// SLO, when non-nil, receives one observation per settled pair under
	// target "job:<kind>" — OK pairs as status 200, errored pairs as 422;
	// skipped pairs are not recorded (a cancel is not a failure).
	SLO Recorder
	// RetryMax caps how many times one pair runs before a transiently
	// failing pair settles as a quarantined error (default 1: retries
	// off, every error is final on its first attempt). Permanent errors
	// — budget trips, incomplete policies — never retry.
	RetryMax int
	// RetryBase is the base backoff before a pair's second attempt
	// (default 50ms); see retryDelay for the growth and jitter.
	RetryBase time.Duration
}

// Coordinator owns the worker pool and the stored jobs. Safe for
// concurrent use.
type Coordinator struct {
	eng  *engine.Engine
	cfg  Config
	jobs jobTable
	// journal is cfg.Store: nil when jobs are not durable, else every
	// stored job's submit, settle, terminal and delete records go to it.
	journal *JournalStore

	baseCtx context.Context
	stop    context.CancelFunc

	startOnce sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup
	queues    []chan task

	inst *instruments
}

// task is one pair of one job, routed to a worker queue.
type task struct {
	j *Job
	k int
}

// Job is one unit of work, submitted or Run. All exported access goes through
// Coordinator methods and Snapshot; the struct itself is internal to
// the package and mutated under its mutex.
type Job struct {
	id      string
	spec    Spec
	hashes  []string
	created time.Time

	ctx      context.Context
	cancelFn context.CancelFunc
	// tr is the job's own trace; nil for a Run job, whose pair spans
	// land on span, the caller's active span. For a running stored job
	// span is tr's root.
	tr   *trace.Trace
	span *trace.Span
	// run marks a job that belongs to a Run caller: it is not stored,
	// journaled, listed or counted by the job-level instruments.
	run bool

	mu          sync.Mutex
	state       State
	started     time.Time
	finished    time.Time
	pairs       []PairResult
	settled     int
	ok          int
	errs        int
	skipped     int
	quarantined int
	done        chan struct{}
}

// New returns a coordinator executing pairs against eng. Call Close to
// stop the workers and cancel every live job.
func New(eng *engine.Engine, cfg Config) *Coordinator {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 15 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 1
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		eng:     eng,
		cfg:     cfg,
		jobs:    jobTable{byID: make(map[string]*Job)},
		journal: cfg.Store,
		baseCtx: ctx,
		stop:    stop,
	}
	if cfg.Metrics != nil {
		c.inst = newInstruments(cfg.Metrics)
	}
	if c.journal != nil {
		c.adoptRecovered(c.journal.recovered)
		c.journal.recovered = nil
	}
	return c
}

// Recovery returns the journal's replay report, or nil when jobs are
// not journaled. Rendered by /healthz.
func (c *Coordinator) Recovery() *RecoveryReport {
	if c.journal == nil {
		return nil
	}
	r := c.journal.RecoveryReport()
	return &r
}

// adoptRecovered stores the jobs a JournalStore replayed, attaches
// their runtime half (context, trace, done channel), and re-enqueues
// the unsettled pairs of the non-terminal ones. Settled pairs keep their
// journaled results — the whole point of the journal is that a restart
// never recomputes them — and the engine's content-addressed compile
// cache makes the resumed pairs' recompiles cheap.
func (c *Coordinator) adoptRecovered(recovered []*Job) {
	resumed := 0
	for _, j := range recovered {
		c.jobs.put(j)
		// A job whose pairs all settled before the crash but whose
		// finalize record was lost completes here rather than hanging
		// forever (no worker would ever settle its "last" pair again).
		if !j.state.Terminal() && j.settled == len(j.pairs) {
			j.state = StateCompleted
			j.finished = time.Now()
		}
		if j.state.Terminal() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			j.ctx, j.cancelFn = ctx, cancel
			_, j.tr = trace.New(ctx, "job", j.id)
			j.tr.Finish()
			j.done = make(chan struct{})
			close(j.done)
			continue
		}
		resumed++
		jctx, cancel := context.WithCancel(c.baseCtx)
		jctx, tr := trace.New(jctx, "job", j.id)
		tr.Root().SetAttr("job.kind", string(j.spec.Kind))
		tr.Root().SetAttr("job.recovered", true)
		j.ctx, j.cancelFn, j.tr, j.span = jctx, cancel, tr, tr.Root()
		j.done = make(chan struct{})
		if c.inst != nil {
			c.inst.active.Inc()
		}
	}
	if c.inst != nil {
		c.inst.recovered.Set(int64(len(recovered)))
		c.inst.stored.Set(int64(c.jobs.len()))
	}
	if resumed == 0 {
		return
	}
	c.start()
	for _, j := range recovered {
		if !j.state.Terminal() {
			c.feed(j)
		}
	}
}

// Workers returns the size of the worker pool.
func (c *Coordinator) Workers() int { return c.cfg.Workers }

// start spins up the worker pool on first use, so a server that never
// receives a job never pays for idle goroutines.
func (c *Coordinator) start() {
	c.startOnce.Do(func() {
		c.queues = make([]chan task, c.cfg.Workers)
		for w := range c.queues {
			q := make(chan task, 64)
			c.queues[w] = q
			c.wg.Add(1)
			go c.worker(q)
		}
	})
}

// Submit validates and enqueues a job, returning its snapshot (state
// queued, possibly already running by the time the caller reads it).
func (c *Coordinator) Submit(spec Spec) (Snapshot, error) {
	if err := c.baseCtx.Err(); err != nil {
		return Snapshot{}, ErrClosed
	}
	if err := validateSpec(&spec); err != nil {
		return Snapshot{}, err
	}
	c.purgeExpired()
	if c.jobs.len() >= c.cfg.MaxJobs {
		return Snapshot{}, ErrTooManyJobs
	}
	j := c.newJob(c.baseCtx, spec)
	j.ctx, j.tr = trace.New(j.ctx, "job", j.id)
	j.span = j.tr.Root()
	j.span.SetAttr("job.kind", string(spec.Kind))
	j.span.SetAttr("job.policies", len(spec.Policies))
	j.span.SetAttr("job.pairs", len(spec.Pairs))
	// Journal before the job is visible: once it is in the table, a
	// Cancel or Close may journal its terminal record, and the journal
	// can apply that only after the submit.
	if c.journal != nil {
		c.journal.appendSubmit(j)
	}
	c.jobs.put(j)
	if c.inst != nil {
		c.inst.submitted.Inc()
		c.inst.active.Inc()
		c.inst.stored.Set(int64(c.jobs.len()))
	}
	c.feed(j)
	return c.snapshot(j), nil
}

// Run executes a spec's pairs on the same workers, sharding, chaos
// point, retry and quarantine as a submitted job, and blocks until every
// pair has settled. The job belongs to the caller: it is not stored,
// journaled or listed, and it opens no trace of its own — its job.pair
// spans, and the engine spans under them, land on ctx's active span.
// When ctx dies the unsettled pairs settle as skipped and Run returns
// ctx.Err(); when Close interrupts it, ErrClosed. Either way the
// snapshot holds the pairs that did settle.
func (c *Coordinator) Run(ctx context.Context, spec Spec) (Snapshot, error) {
	if err := c.baseCtx.Err(); err != nil {
		return Snapshot{}, ErrClosed
	}
	if err := validateSpec(&spec); err != nil {
		return Snapshot{}, err
	}
	j := c.newJob(ctx, spec)
	j.run = true
	j.span = trace.Active(ctx)
	// The job's context descends from the caller's; it also dies with
	// the coordinator, which keeps no list of Run jobs to cancel.
	stop := context.AfterFunc(c.baseCtx, j.cancelFn)
	defer stop()
	c.feed(j)
	// Finalizing cancels the job's context, so this wakes on the last
	// settle as well as on cancellation.
	<-j.ctx.Done()
	j.mu.Lock()
	if !j.state.Terminal() {
		c.skipUnsettledLocked(j)
		c.finalizeLocked(j, StateCanceled)
	}
	j.mu.Unlock()
	snap := c.snapshot(j)
	if snap.State == StateCanceled {
		if err := ctx.Err(); err != nil {
			return snap, err
		}
		return snap, ErrClosed
	}
	return snap, nil
}

// newJob builds the job for a validated spec, with a context under
// parent and every pair pending. Content hashes drive sharding, so they
// are taken here: engine.PolicyHash reads the rule IR directly, without
// rendering text (about 70 µs for a 661-rule policy).
func (c *Coordinator) newJob(parent context.Context, spec Spec) *Job {
	c.start()
	hashes := make([]string, len(spec.Policies))
	for i, p := range spec.Policies {
		hashes[i] = engine.PolicyHash(p)
	}
	ctx, cancel := context.WithCancel(parent)
	j := &Job{
		id:       trace.NewID(),
		spec:     spec,
		hashes:   hashes,
		created:  time.Now(),
		ctx:      ctx,
		cancelFn: cancel,
		state:    StateQueued,
		pairs:    make([]PairResult, len(spec.Pairs)),
		done:     make(chan struct{}),
	}
	for k, p := range spec.Pairs {
		j.pairs[k] = PairResult{Pair: p, Name: spec.PairNames[k], Status: PairPending}
	}
	return j
}

// feed routes a job's unsettled pairs to their shards: all of a new
// job's, the remainder of a recovered one's. The feeder blocks when a
// worker's queue is full — backpressure, not buffering — and bails out
// the moment the job or the coordinator dies. Call it before any worker
// can see the job.
func (c *Coordinator) feed(j *Job) {
	type route struct{ k, w int }
	var pending []route
	for k := range j.pairs {
		if j.pairs[k].Status.Settled() {
			continue
		}
		p := j.pairs[k].Pair
		pending = append(pending, route{
			k: k,
			w: shard(j.hashes[p.I], j.hashes[p.J], c.cfg.Workers),
		})
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for _, r := range pending {
			select {
			case c.queues[r.w] <- task{j: j, k: r.k}:
			case <-j.ctx.Done():
				return
			}
		}
	}()
}

// validateSpec normalizes and checks a spec in place: crosscompare
// derives its pairs, batchdiff checks the listed ones, and PairNames is
// filled so every pair has a display name.
func validateSpec(spec *Spec) error {
	n := len(spec.Policies)
	if len(spec.Names) != n {
		return fmt.Errorf("jobs: %d policies but %d names", n, len(spec.Names))
	}
	switch spec.Kind {
	case KindCrossCompare:
		if n < 2 {
			return errors.New("jobs: crosscompare needs at least 2 policies")
		}
		spec.Pairs = CrossPairs(n)
		spec.PairNames = nil
	case KindBatchDiff:
		if len(spec.Pairs) == 0 {
			return errors.New("jobs: batchdiff needs at least 1 pair")
		}
		for _, p := range spec.Pairs {
			if p.I < 0 || p.I >= n || p.J < 0 || p.J >= n || p.I == p.J {
				return fmt.Errorf("jobs: pair (%d, %d) out of range for %d policies", p.I, p.J, n)
			}
		}
		if len(spec.PairNames) != 0 && len(spec.PairNames) != len(spec.Pairs) {
			return fmt.Errorf("jobs: %d pairs but %d pair names", len(spec.Pairs), len(spec.PairNames))
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q", spec.Kind)
	}
	if spec.PairNames == nil {
		spec.PairNames = make([]string, len(spec.Pairs))
	}
	for k, p := range spec.Pairs {
		if spec.PairNames[k] == "" {
			spec.PairNames[k] = spec.Names[p.I] + " vs " + spec.Names[p.J]
		}
	}
	return nil
}

// Get returns a job's current snapshot.
func (c *Coordinator) Get(id string) (Snapshot, error) {
	c.purgeExpired()
	j, ok := c.jobs.get(id)
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return c.snapshot(j), nil
}

// List returns all stored jobs, newest first.
func (c *Coordinator) List() []Snapshot {
	c.purgeExpired()
	js := c.jobs.list()
	snaps := make([]Snapshot, 0, len(js))
	for _, j := range js {
		snaps = append(snaps, c.snapshot(j))
	}
	sortSnapshotsByAge(snaps)
	return snaps
}

// Done returns a channel closed when the job reaches a terminal state.
func (c *Coordinator) Done(id string) (<-chan struct{}, error) {
	j, ok := c.jobs.get(id)
	if !ok {
		return nil, ErrNotFound
	}
	return j.done, nil
}

// Cancel stops a job: its context is canceled (reaching in-flight
// pairs mid-comparison), unfinished pairs settle as skipped, finished
// pairs keep their results. Canceling a terminal job is a no-op that
// returns its snapshot.
func (c *Coordinator) Cancel(id string) (Snapshot, error) {
	c.purgeExpired()
	j, ok := c.jobs.get(id)
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	j.cancelFn()
	j.mu.Lock()
	if !j.state.Terminal() {
		c.skipUnsettledLocked(j)
		c.finalizeLocked(j, StateCanceled)
	}
	j.mu.Unlock()
	return c.snapshot(j), nil
}

// Close cancels every live job, stops the workers, and waits for them.
// Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.stop()
		for _, j := range c.jobs.list() {
			j.cancelFn()
			j.mu.Lock()
			if !j.state.Terminal() {
				c.skipUnsettledLocked(j)
				c.finalizeLocked(j, StateCanceled)
			}
			j.mu.Unlock()
		}
		c.wg.Wait()
		// The journal flushes and closes its log once no worker can
		// settle again.
		if c.journal != nil {
			c.journal.Close()
		}
	})
}

// worker drains one shard's queue until the coordinator closes.
func (c *Coordinator) worker(q chan task) {
	defer c.wg.Done()
	for {
		select {
		case t := <-q:
			c.runPair(t.j, t.k)
		case <-c.baseCtx.Done():
			return
		}
	}
}

// runPair executes one pair: claim it, fire the chaos point, compile
// both sides through the engine's content-addressed cache, diff, and
// settle. Each Compile/Diff flight gets its own work budget from the
// engine (the job context carries none), so one pair tripping its
// budget settles as a per-pair error while its siblings proceed.
func (c *Coordinator) runPair(j *Job, k int) {
	j.mu.Lock()
	if j.state.Terminal() || j.pairs[k].Status != PairPending {
		j.mu.Unlock()
		return
	}
	j.pairs[k].Status = PairRunning
	j.pairs[k].Attempts++
	attempt := j.pairs[k].Attempts
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
	j.mu.Unlock()

	p := j.pairs[k].Pair
	start := time.Now()
	r, err := c.comparePair(j, p)
	elapsed := time.Since(start)

	status := PairOK
	quarantined := false
	if err != nil {
		status = PairError
		if j.ctx.Err() != nil {
			// The job died while this pair was in flight; the pair was
			// (or is about to be) settled as skipped by Cancel/Close.
			c.settle(j, k, PairSkipped, nil, nil, elapsed, false)
			return
		}
		if transientError(err) {
			if attempt < c.cfg.RetryMax {
				// A moment-in-time failure with retry budget left: back
				// off and requeue instead of settling. The attempt still
				// leaves a span so the trace shows the whole history.
				if c.inst != nil {
					c.inst.retries.Inc()
				}
				j.span.AddCompleted("job.pair", start, elapsed,
					trace.A("pair", j.pairs[k].Name),
					trace.A("status", "retry"),
					trace.A("attempt", attempt))
				c.scheduleRetry(j, k, attempt)
				return
			}
			// Out of budget: quarantine the poison pair as an error
			// entry — its siblings (and the job) proceed normally.
			quarantined = c.cfg.RetryMax > 1
		}
	}
	// The span goes on the trace BEFORE the settle: settling the last
	// pair finalizes the job, which snapshots the trace into the buffer
	// — a span added after that is lost from the retained record.
	j.span.AddCompleted("job.pair", start, elapsed,
		trace.A("pair", j.pairs[k].Name),
		trace.A("status", string(status)))
	c.settle(j, k, status, r, err, elapsed, quarantined)
	if c.inst != nil {
		c.inst.pairDuration.ObserveExemplar(elapsed.Seconds(), j.traceID())
	}
	if c.cfg.SLO != nil {
		code := 200
		if status == PairError {
			code = 422
		}
		c.cfg.SLO.Record("job:"+string(j.spec.Kind), elapsed, code, false)
	}
}

func (c *Coordinator) comparePair(j *Job, p Pair) (r *compare.Report, err error) {
	if err := chaos.Fire(j.ctx, chaos.PointJobPair); err != nil {
		return nil, err
	}
	ca, _, err := c.eng.Compile(j.ctx, j.spec.Policies[p.I])
	if err != nil {
		return nil, fmt.Errorf("policy %q: %w", j.spec.Names[p.I], err)
	}
	cb, _, err := c.eng.Compile(j.ctx, j.spec.Policies[p.J])
	if err != nil {
		return nil, fmt.Errorf("policy %q: %w", j.spec.Names[p.J], err)
	}
	rep, _, err := c.eng.Diff(j.ctx, ca, cb)
	return rep, err
}

// settle records one pair's terminal status. Idempotent per pair: the
// first settle wins, late settles (a canceled pair finishing after
// Cancel marked it skipped) are no-ops. Settling the last pair
// finalizes the job.
func (c *Coordinator) settle(j *Job, k int, status PairStatus, r *compare.Report, err error, elapsed time.Duration, quarantined bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pairs[k].Status.Settled() {
		return
	}
	j.pairs[k].Status = status
	j.pairs[k].Report = r
	j.pairs[k].Err = err
	j.pairs[k].Elapsed = elapsed
	j.pairs[k].Quarantined = quarantined
	j.settled++
	switch status {
	case PairOK:
		j.ok++
	case PairError:
		j.errs++
		if quarantined {
			j.quarantined++
		}
	case PairSkipped:
		j.skipped++
	}
	if c.inst != nil {
		c.inst.pairs.With(string(status)).Inc()
		if quarantined {
			c.inst.quarantined.Inc()
		}
	}
	if c.journal != nil && !j.run {
		c.journal.appendSettle(j, k)
	}
	if j.settled == len(j.pairs) && !j.state.Terminal() {
		// A pair settles as skipped only once its job is dead, so a
		// worker that settles the last pair that way has raced the
		// canceler to the finish and ends the job as canceled.
		state := StateCompleted
		if j.skipped > 0 {
			state = StateCanceled
		}
		c.finalizeLocked(j, state)
	}
}

// scheduleRetry returns a running pair to pending and re-feeds it to
// its shard after a capped, jittered backoff. Cancellation at any point
// simply wins: a canceled job settles the pair as skipped, and both the
// timer and the queue send give up on the job's context.
func (c *Coordinator) scheduleRetry(j *Job, k, attempt int) {
	j.mu.Lock()
	if j.state.Terminal() || j.pairs[k].Status != PairRunning {
		j.mu.Unlock()
		return
	}
	j.pairs[k].Status = PairPending
	j.mu.Unlock()
	p := j.pairs[k].Pair
	w := shard(j.hashes[p.I], j.hashes[p.J], c.cfg.Workers)
	delay := retryDelay(c.cfg.RetryBase, j.id, k, attempt)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-j.ctx.Done():
			return
		}
		select {
		case c.queues[w] <- task{j: j, k: k}:
		case <-j.ctx.Done():
		}
	}()
}

// skipUnsettledLocked settles every pending/running pair as skipped.
// Caller holds j.mu.
func (c *Coordinator) skipUnsettledLocked(j *Job) {
	for k := range j.pairs {
		if j.pairs[k].Status.Settled() {
			continue
		}
		j.pairs[k].Status = PairSkipped
		j.settled++
		j.skipped++
		if c.inst != nil {
			c.inst.pairs.With(string(PairSkipped)).Inc()
		}
	}
}

// finalizeLocked moves a job into a terminal state. Caller holds j.mu
// and has checked the job is not already terminal.
func (c *Coordinator) finalizeLocked(j *Job, state State) {
	j.state = state
	j.finished = time.Now()
	j.cancelFn()
	close(j.done)
	if j.run {
		return
	}
	if c.journal != nil {
		c.journal.appendFinal(j, state, j.finished)
	}
	j.span.SetAttr("job.state", string(state))
	j.span.SetAttr("job.ok", j.ok)
	j.span.SetAttr("job.errors", j.errs)
	j.span.SetAttr("job.skipped", j.skipped)
	j.span.SetAttr("job.quarantined", j.quarantined)
	j.tr.Finish()
	if c.cfg.Traces != nil {
		c.cfg.Traces.Observe(j.tr)
	}
	if c.inst != nil {
		c.inst.active.Dec()
		c.inst.finished.With(string(state)).Inc()
	}
}

// purgeExpired drops terminal jobs past their retention. Lazy: it runs
// on Submit/Get/List/Cancel instead of a janitor goroutine, so an idle
// coordinator holds no timers and no goroutines.
func (c *Coordinator) purgeExpired() {
	cutoff := time.Now().Add(-c.cfg.Retention)
	removed := false
	for _, j := range c.jobs.list() {
		j.mu.Lock()
		expired := j.state.Terminal() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if expired && c.jobs.remove(j.id) {
			if c.journal != nil {
				c.journal.appendDelete(j.id)
			}
			removed = true
		}
	}
	if removed && c.inst != nil {
		c.inst.stored.Set(int64(c.jobs.len()))
	}
}

// snapshot copies a job's current state under its lock.
func (c *Coordinator) snapshot(j *Job) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:         j.id,
		Kind:       j.spec.Kind,
		State:      j.state,
		SchemaName: j.spec.SchemaName,
		Names:      append([]string(nil), j.spec.Names...),
		TraceID:    j.traceID(),
		Progress: Progress{
			Total:       len(j.pairs),
			Settled:     j.settled,
			OK:          j.ok,
			Errors:      j.errs,
			Skipped:     j.skipped,
			Quarantined: j.quarantined,
		},
		Pairs:    append([]PairResult(nil), j.pairs...),
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	return s
}

// traceID names the job's own trace; empty for a Run job, which has
// none.
func (j *Job) traceID() string {
	if j.tr == nil {
		return ""
	}
	return j.tr.ID()
}

// instruments is the fwjobs_* family.
type instruments struct {
	submitted    *metrics.Counter
	finished     *metrics.CounterVec
	active       *metrics.Gauge
	stored       *metrics.Gauge
	pairs        *metrics.CounterVec
	pairDuration *metrics.Histogram
	retries      *metrics.Counter
	quarantined  *metrics.Counter
	recovered    *metrics.Gauge
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		submitted: reg.NewCounter("fwjobs_submitted_total",
			"Async jobs accepted."),
		finished: reg.NewCounterVec("fwjobs_finished_total",
			"Async jobs reaching a terminal state, by state.", "state"),
		active: reg.NewGauge("fwjobs_active",
			"Async jobs not yet terminal."),
		stored: reg.NewGauge("fwjobs_stored",
			"Async jobs held in the store, finished-but-retained included."),
		pairs: reg.NewCounterVec("fwjobs_pairs_total",
			"Job pair comparisons settled, by status.", "status"),
		pairDuration: reg.NewHistogram("fwjobs_pair_duration_seconds",
			"Wall time of one job pair comparison.", nil),
		retries: reg.NewCounter("fwjobs_retries_total",
			"Transiently failed pair attempts sent back for a retry."),
		quarantined: reg.NewCounter("fwjobs_quarantined_total",
			"Pairs quarantined after exhausting their retry budget."),
		recovered: reg.NewGauge("fwjobs_recovered_jobs",
			"Jobs recovered from the journal at the last startup."),
	}
}
