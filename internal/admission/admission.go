// Package admission implements admission control and load shedding for
// the analysis service. The pipeline's worst case is exponential
// (PAPER.md Sections 3-4), so an unbounded request intake lets a burst —
// or a handful of pathological policies — pin every core and OOM the
// process while well-formed traffic times out behind it. The controller
// bounds the damage with three mechanisms:
//
//   - An in-flight cap: at most MaxInFlight requests run concurrently;
//     arrivals beyond it wait in a bounded queue.
//   - A shedder: when the queue is full (MaxQueue waiting requests) or
//     a queued request outwaits QueueDeadline, the request is rejected
//     immediately with a typed *Error the API maps to 429/503 +
//     Retry-After — failing fast and cheap instead of slow and
//     expensive.
//   - A per-client concurrency cap: one client (keyed by remote host,
//     deliberately independent of the client-controlled X-Request-ID)
//     cannot occupy more than MaxPerClient slots-or-queue-positions, so
//     a single noisy tenant cannot starve the rest.
//
// The controller also owns the server's drain state: once BeginDrain is
// called every new arrival is rejected while admitted requests finish,
// which is what makes SIGTERM shutdown clean under load.
package admission

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diversefw/internal/metrics"
)

// Reason classifies why a request was rejected. The string values are
// stable: they label fwguard_shed_total and trace attributes.
type Reason string

const (
	// ReasonOverloaded: the queue was full on arrival.
	ReasonOverloaded Reason = "overloaded"
	// ReasonQueueTimeout: the request waited QueueDeadline without a
	// slot freeing up.
	ReasonQueueTimeout Reason = "queue_timeout"
	// ReasonClientLimit: the client already holds MaxPerClient
	// slots/queue positions.
	ReasonClientLimit Reason = "client_limit"
	// ReasonDraining: the server is shutting down.
	ReasonDraining Reason = "draining"
)

// Error is a typed admission rejection. RetryAfter is the hint the API
// surfaces in the Retry-After header.
type Error struct {
	Reason     Reason
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("admission rejected: %s", e.Reason)
}

// Config configures a Controller.
type Config struct {
	// MaxInFlight is the concurrent-request cap (required, > 0).
	MaxInFlight int
	// MaxQueue bounds how many arrivals may wait for a slot; arrivals
	// beyond it are rejected immediately. 0 disables queueing (no free
	// slot -> immediate shed).
	MaxQueue int
	// QueueDeadline bounds one request's wait in the queue; 0 means
	// wait as long as the request context allows.
	QueueDeadline time.Duration
	// MaxPerClient caps one client's concurrently held slots and queue
	// positions; 0 disables the per-client cap.
	MaxPerClient int
	// RetryAfter is the floor of the Retry-After hint attached to
	// rejections (default 1s). The hint itself tracks load: it is the
	// clamped p50 of observed queue waits — see RetryHint.
	RetryAfter time.Duration
}

// Controller admits, queues, sheds. Safe for concurrent use.
type Controller struct {
	cfg   Config
	slots chan struct{}

	inflight atomic.Int64
	queued   atomic.Int64
	draining atomic.Bool

	admitted  atomic.Uint64
	abandoned atomic.Uint64
	shed      [4]atomic.Uint64 // indexed by reasonIndex

	waits waitEstimator

	mu        sync.Mutex
	perClient map[string]int

	inst *instruments
}

// waitBounds are the upper bounds, in seconds, of the queue-wait
// estimator's buckets (the +Inf overflow slot is implicit). Coarse
// power-of-two steps are enough: the estimate feeds a whole-second
// Retry-After header, not a latency SLO.
var waitBounds = [...]float64{0.25, 0.5, 1, 2, 4, 8, 16, 30}

// waitEstimator is a tiny fixed-bucket histogram of observed queue
// waits, independent of the optional metrics registry so the derived
// Retry-After hint works on an uninstrumented controller too.
type waitEstimator struct {
	counts [len(waitBounds) + 1]atomic.Uint64
	total  atomic.Uint64
}

func (e *waitEstimator) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(waitBounds) && s > waitBounds[i] {
		i++
	}
	e.counts[i].Add(1)
	e.total.Add(1)
}

// p50 returns the upper bound of the bucket holding the median observed
// wait, zero with no observations. Overflow observations report the
// largest bound (the hint is clamped anyway).
func (e *waitEstimator) p50() time.Duration {
	total := e.total.Load()
	if total == 0 {
		return 0
	}
	half := (total + 1) / 2
	var cum uint64
	for i := range waitBounds {
		cum += e.counts[i].Load()
		if cum >= half {
			return time.Duration(waitBounds[i] * float64(time.Second))
		}
	}
	return time.Duration(waitBounds[len(waitBounds)-1] * float64(time.Second))
}

// New returns a controller for cfg, instrumented on reg when non-nil
// (the fwguard_* families). MaxInFlight must be positive.
func New(cfg Config, reg *metrics.Registry) *Controller {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	c := &Controller{
		cfg:       cfg,
		slots:     make(chan struct{}, cfg.MaxInFlight),
		perClient: make(map[string]int),
	}
	if reg != nil {
		c.inst = newInstruments(reg)
	}
	return c
}

func reasonIndex(r Reason) int {
	switch r {
	case ReasonOverloaded:
		return 0
	case ReasonQueueTimeout:
		return 1
	case ReasonClientLimit:
		return 2
	default:
		return 3 // draining
	}
}

// Admit asks for a slot for the given client. On success it returns a
// release function (idempotent) the caller must invoke when the request
// finishes, plus the time spent waiting in the queue. On rejection err
// is a *Error; ctx errors pass through unchanged when the request dies
// while queued.
func (c *Controller) Admit(ctx context.Context, client string) (release func(), queued time.Duration, err error) {
	if c == nil {
		return func() {}, 0, nil
	}
	if c.draining.Load() {
		return nil, 0, c.reject(ReasonDraining)
	}
	if !c.holdClient(client) {
		return nil, 0, c.reject(ReasonClientLimit)
	}
	// Fast path: a free slot, no queueing.
	select {
	case c.slots <- struct{}{}:
		return c.admit(client, 0), 0, nil
	default:
	}
	// Queue — unless it is already full.
	if n := int(c.queued.Add(1)); n > c.cfg.MaxQueue {
		c.queued.Add(-1)
		c.releaseClient(client)
		return nil, 0, c.reject(ReasonOverloaded)
	}
	c.observeQueue()
	start := time.Now()
	var deadline <-chan time.Time
	if c.cfg.QueueDeadline > 0 {
		t := time.NewTimer(c.cfg.QueueDeadline)
		defer t.Stop()
		deadline = t.C
	}
	defer func() {
		c.queued.Add(-1)
		c.observeQueue()
	}()
	select {
	case c.slots <- struct{}{}:
		wait := time.Since(start)
		c.RecordQueueWait(wait)
		return c.admit(client, wait), wait, nil
	case <-deadline:
		// A deadline exit is the strongest load signal the estimator
		// gets: this request waited the full QueueDeadline.
		c.RecordQueueWait(time.Since(start))
		c.releaseClient(client)
		return nil, time.Since(start), c.reject(ReasonQueueTimeout)
	case <-ctx.Done():
		// The caller gave up while queued (client disconnect, request
		// timeout). Counted separately from sheds: the server never
		// rejected this request, it was abandoned — without its own
		// counter this exit path is invisible in the overload picture.
		c.abandoned.Add(1)
		if c.inst != nil {
			c.inst.abandoned.Inc()
		}
		c.releaseClient(client)
		return nil, time.Since(start), ctx.Err()
	}
}

// RecordQueueWait feeds one observed queue wait into the estimator the
// Retry-After hint is derived from. Admit records admitted and
// deadline-shed waits itself; the method is exported for tests and for
// outer layers (a future multi-process coordinator) that observe waits
// this controller cannot see.
func (c *Controller) RecordQueueWait(d time.Duration) {
	if c != nil {
		c.waits.observe(d)
	}
}

// maxRetryAfter caps the derived Retry-After hint: past half a minute a
// bigger number stops meaning "the queue is long" and starts meaning
// "go away", which admission control has no business saying.
const maxRetryAfter = 30 * time.Second

// RetryHint is the backoff attached to rejections: the median observed
// queue wait, clamped to [Config.RetryAfter (default 1s), 30s]. With no
// waits observed yet it is the configured floor, so an idle or
// queue-less deployment behaves exactly like the old static hint.
func (c *Controller) RetryHint() time.Duration {
	if c == nil {
		return time.Second
	}
	hint := c.waits.p50()
	if hint < c.cfg.RetryAfter {
		hint = c.cfg.RetryAfter
	}
	if hint > maxRetryAfter {
		hint = maxRetryAfter
	}
	return hint
}

// admit finalizes an admission and builds its release function.
func (c *Controller) admit(client string, wait time.Duration) func() {
	c.inflight.Add(1)
	c.admitted.Add(1)
	if c.inst != nil {
		c.inst.admitted.Inc()
		c.inst.inflight.Set(c.inflight.Load())
		c.inst.queueWait.Observe(wait.Seconds())
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			<-c.slots
			c.inflight.Add(-1)
			c.releaseClient(client)
			if c.inst != nil {
				c.inst.inflight.Set(c.inflight.Load())
			}
		})
	}
}

func (c *Controller) reject(r Reason) *Error {
	c.shed[reasonIndex(r)].Add(1)
	if c.inst != nil {
		c.inst.shed.With(string(r)).Inc()
	}
	return &Error{Reason: r, RetryAfter: c.RetryHint()}
}

// holdClient reserves a per-client position; false when the client is
// at its cap. No-op (true) without a per-client cap or client key.
func (c *Controller) holdClient(client string) bool {
	if c.cfg.MaxPerClient <= 0 || client == "" {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perClient[client] >= c.cfg.MaxPerClient {
		return false
	}
	c.perClient[client]++
	return true
}

func (c *Controller) releaseClient(client string) {
	if c.cfg.MaxPerClient <= 0 || client == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perClient[client] <= 1 {
		delete(c.perClient, client)
	} else {
		c.perClient[client]--
	}
}

func (c *Controller) observeQueue() {
	if c.inst != nil {
		c.inst.queueDepth.Set(c.queued.Load())
	}
}

// BeginDrain flips the controller into draining: every subsequent Admit
// is rejected with ReasonDraining while already admitted requests keep
// their slots until release.
func (c *Controller) BeginDrain() {
	if c != nil {
		c.draining.Store(true)
	}
}

// Status is the controller's health classification.
type Status string

const (
	// StatusOK: slots free, nothing queued.
	StatusOK Status = "ok"
	// StatusDegraded: at capacity — arrivals are queueing or being shed.
	StatusDegraded Status = "degraded"
	// StatusDraining: shutting down, rejecting all new work.
	StatusDraining Status = "draining"
)

// Status returns the live classification. A nil controller is always
// StatusOK (no admission control configured).
func (c *Controller) Status() Status {
	if c == nil {
		return StatusOK
	}
	if c.draining.Load() {
		return StatusDraining
	}
	if c.queued.Load() > 0 || int(c.inflight.Load()) >= c.cfg.MaxInFlight {
		return StatusDegraded
	}
	return StatusOK
}

// Stats is a point-in-time snapshot for /healthz and tests.
type Stats struct {
	InFlight      int64  `json:"inFlight"`
	Queued        int64  `json:"queued"`
	Capacity      int    `json:"capacity"`
	QueueCapacity int    `json:"queueCapacity"`
	Admitted      uint64 `json:"admitted"`
	ShedOverload  uint64 `json:"shedOverload"`
	ShedTimeout   uint64 `json:"shedTimeout"`
	ShedClient    uint64 `json:"shedClient"`
	ShedDraining  uint64 `json:"shedDraining"`
	// QueueAbandoned counts requests whose context died while they
	// waited in the queue — never admitted, never shed.
	QueueAbandoned uint64 `json:"queueAbandoned"`
}

// Stats returns current counters; the zero value for a nil controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		InFlight:       c.inflight.Load(),
		Queued:         c.queued.Load(),
		Capacity:       c.cfg.MaxInFlight,
		QueueCapacity:  c.cfg.MaxQueue,
		Admitted:       c.admitted.Load(),
		ShedOverload:   c.shed[reasonIndex(ReasonOverloaded)].Load(),
		ShedTimeout:    c.shed[reasonIndex(ReasonQueueTimeout)].Load(),
		ShedClient:     c.shed[reasonIndex(ReasonClientLimit)].Load(),
		ShedDraining:   c.shed[reasonIndex(ReasonDraining)].Load(),
		QueueAbandoned: c.abandoned.Load(),
	}
}

// instruments is the fwguard_* admission family.
type instruments struct {
	admitted   *metrics.Counter
	abandoned  *metrics.Counter
	shed       *metrics.CounterVec
	inflight   *metrics.Gauge
	queueDepth *metrics.Gauge
	queueWait  *metrics.Histogram
}

func newInstruments(reg *metrics.Registry) *instruments {
	return &instruments{
		admitted: reg.NewCounter("fwguard_admitted_total",
			"Requests admitted past admission control."),
		abandoned: reg.NewCounter("fwguard_queue_abandoned_total",
			"Requests whose context died while waiting in the admission queue (abandoned, not shed)."),
		shed: reg.NewCounterVec("fwguard_shed_total",
			"Requests rejected by admission control, by reason.", "reason"),
		inflight: reg.NewGauge("fwguard_admission_inflight",
			"Requests currently holding an admission slot."),
		queueDepth: reg.NewGauge("fwguard_admission_queue_depth",
			"Requests currently waiting in the admission queue."),
		queueWait: reg.NewHistogram("fwguard_admission_queue_wait_seconds",
			"Time admitted requests spent waiting in the admission queue.", nil),
	}
}
