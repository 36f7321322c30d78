// Package metrics is a dependency-free instrumentation library for the
// serving path: counters, gauges, and latency histograms, rendered in
// the Prometheus text exposition format (version 0.0.4) so any standard
// scraper can consume them. Only what fwserved needs is implemented —
// there is deliberately no global default registry and no metric
// expiry.
//
// Histograms additionally carry exemplars: each bucket remembers the
// most recent (value, trace ID) pair fed through ObserveExemplar.
// Exemplars are only rendered on the OpenMetrics exposition
// (WriteOpenMetrics, negotiated by the Accept header on Handler) —
// classic 0.0.4 text parsers reject the `# {...}` suffix, so
// WritePrometheus never emits it.
//
// All instruments are safe for concurrent use. Registration
// (Registry.NewCounter and friends) is expected at startup; observing
// (Inc, Observe, ...) is lock-free on the hot path except for the first
// access of a new label combination on a vector.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metrics and renders them on demand.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]bool
	metrics []renderable
}

// renderable is one named family that can print itself in text format.
type renderable interface {
	name() string
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(m renderable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name()] {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", m.name()))
	}
	r.byName[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus renders every registered metric in text format,
// families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]renderable, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name() < ms[j].name() })
	for _, m := range ms {
		m.render(w)
	}
}

// openMetricsRenderable is implemented by families whose OpenMetrics
// rendering differs from the classic text one (histograms, which attach
// exemplars). Families without it render identically in both formats.
type openMetricsRenderable interface {
	renderOpenMetrics(w io.Writer)
}

// WriteOpenMetrics renders every registered metric in the OpenMetrics
// text exposition, families sorted by name and terminated with the
// mandatory `# EOF` marker. Histogram buckets carry their exemplars
// here (`... # {trace_id="..."} value`); everything else renders as in
// WritePrometheus.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	r.mu.Lock()
	ms := make([]renderable, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name() < ms[j].name() })
	for _, m := range ms {
		if om, ok := m.(openMetricsRenderable); ok {
			om.renderOpenMetrics(w)
			continue
		}
		m.render(w)
	}
	io.WriteString(w, "# EOF\n")
}

// ContentType constants for the two expositions Handler can serve.
const (
	ContentTypePrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition (how Prometheus requests exemplars).
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if mediaType == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// Handler serves the registry over HTTP (the /metrics endpoint).
// Scrapers negotiating `application/openmetrics-text` via Accept get
// the OpenMetrics exposition with exemplars; everyone else gets the
// classic 0.0.4 text format without them.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if acceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		r.WritePrometheus(w)
	})
}

// family carries the metadata shared by all instrument kinds.
type family struct {
	fname, help, kind string
}

func (f *family) name() string { return f.fname }

func (f *family) header(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.fname, f.help, f.fname, f.kind)
}

// Counter is a monotonically increasing integer.
type Counter struct {
	family
	labels string // rendered {k="v",...} suffix, empty for plain counters
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer) {
	c.header(w)
	fmt.Fprintf(w, "%s%s %d\n", c.fname, c.labels, c.v.Load())
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{family: family{name, help, "counter"}}
	r.register(c)
	return c
}

// Gauge is a value that can go up and down.
type Gauge struct {
	family
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) render(w io.Writer) {
	g.header(w)
	fmt.Fprintf(w, "%s %d\n", g.fname, g.v.Load())
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{family: family{name, help, "gauge"}}
	r.register(g)
	return g
}

// DefBuckets are the default latency buckets, in seconds (the classic
// Prometheus defaults: 5ms up to 10s).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// exemplar is one retained (value, trace ID) pair for a histogram
// bucket; the whole struct is swapped atomically so a concurrent scrape
// can never see a torn pair.
type exemplar struct {
	value   float64
	traceID string
}

// Histogram accumulates observations into cumulative buckets. Each
// bucket additionally retains the most recent exemplar fed through
// ObserveExemplar, rendered only on the OpenMetrics exposition.
type Histogram struct {
	family
	labels    string
	bounds    []float64       // upper bounds, ascending; +Inf implicit
	counts    []atomic.Uint64 // one per bound, plus the +Inf overflow slot
	exemplars []atomic.Pointer[exemplar]
	count     atomic.Uint64
	sum       atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(f family, labels string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets not ascending", f.fname))
		}
	}
	return &Histogram{
		family:    f,
		labels:    labels,
		bounds:    buckets,
		counts:    make([]atomic.Uint64, len(buckets)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(buckets)+1),
	}
}

// Observe records one value (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar is Observe plus exemplar retention: the bucket the
// value lands in remembers (v, traceID) as its most recent exemplar,
// linking that bucket's latency band to a concrete trace in
// /debug/traces. An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{value: v, traceID: traceID})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) render(w io.Writer) {
	h.header(w)
	h.renderRows(w, false)
}

func (h *Histogram) renderOpenMetrics(w io.Writer) {
	h.header(w)
	h.renderRows(w, true)
}

// renderRows prints the bucket/sum/count rows without the family header
// (vectors print the header once for all children). With exemplars set,
// each bucket that retains one gets the OpenMetrics
// `# {trace_id="..."} value` suffix.
func (h *Histogram) renderRows(w io.Writer, exemplars bool) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", h.fname,
			addLabel(h.labels, "le", formatFloat(b)), cum, h.exemplarSuffix(i, exemplars))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", h.fname,
		addLabel(h.labels, "le", "+Inf"), cum, h.exemplarSuffix(len(h.bounds), exemplars))
	fmt.Fprintf(w, "%s_sum%s %s\n", h.fname, h.labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.fname, h.labels, h.count.Load())
}

// exemplarSuffix renders bucket i's exemplar in OpenMetrics syntax, or
// "" when disabled or never observed.
func (h *Histogram) exemplarSuffix(i int, enabled bool) string {
	if !enabled {
		return ""
	}
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return ` # {trace_id="` + escapeLabel(e.traceID) + `"} ` + formatFloat(e.value)
}

// NewHistogram registers a histogram. Nil or empty buckets mean
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(family{name, help, "histogram"}, "", buckets)
	r.register(h)
	return h
}

// vec is the shared label-to-child machinery of CounterVec and
// HistogramVec.
type vec[T any] struct {
	family
	labelNames []string
	mu         sync.RWMutex
	children   map[string]*T
	make       func(labels string) *T
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			v.fname, len(v.labelNames), len(values)))
	}
	labels := formatLabels(v.labelNames, values)
	v.mu.RLock()
	c, ok := v.children[labels]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[labels]; ok {
		return c
	}
	c = v.make(labels)
	v.children[labels] = c
	return c
}

// sortedChildren snapshots the children in deterministic label order.
func (v *vec[T]) sortedChildren() []*T {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*T, len(keys))
	for i, k := range keys {
		out[i] = v.children[k]
	}
	v.mu.RUnlock()
	return out
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	vec[Counter]
}

// With returns the child counter for the label values, creating it on
// first use. Values must match the registered label names positionally.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

func (v *CounterVec) render(w io.Writer) {
	children := v.sortedChildren()
	if len(children) == 0 {
		return
	}
	v.header(w)
	for _, c := range children {
		fmt.Fprintf(w, "%s%s %d\n", c.fname, c.labels, c.v.Load())
	}
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	f := family{name, help, "counter"}
	v := &CounterVec{vec[Counter]{
		family:     f,
		labelNames: labelNames,
		children:   make(map[string]*Counter),
		make:       func(labels string) *Counter { return &Counter{family: f, labels: labels} },
	}}
	r.register(v)
	return v
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	vec[Histogram]
}

// With returns the child histogram for the label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

func (v *HistogramVec) render(w io.Writer) {
	children := v.sortedChildren()
	if len(children) == 0 {
		return
	}
	v.header(w)
	for _, h := range children {
		h.renderRows(w, false)
	}
}

func (v *HistogramVec) renderOpenMetrics(w io.Writer) {
	children := v.sortedChildren()
	if len(children) == 0 {
		return
	}
	v.header(w)
	for _, h := range children {
		h.renderRows(w, true)
	}
}

// NewHistogramVec registers a labeled histogram family. Nil or empty
// buckets mean DefBuckets.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	f := family{name, help, "histogram"}
	v := &HistogramVec{vec[Histogram]{
		family:     f,
		labelNames: labelNames,
		children:   make(map[string]*Histogram),
		make:       func(labels string) *Histogram { return newHistogram(f, labels, buckets) },
	}}
	r.register(v)
	return v
}

// Label is one name="value" pair on a Sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one time series produced by a callback metric at scrape
// time.
type Sample struct {
	Labels []Label
	Value  float64
}

// funcMetric is a family whose values are computed lazily at render
// time by a callback — runtime gauges, burn rates, anything derived
// from live state that would be wasteful to push on every event.
type funcMetric struct {
	family
	collect func() []Sample
}

func (f *funcMetric) render(w io.Writer) {
	samples := f.collect()
	if len(samples) == 0 {
		return
	}
	f.header(w)
	for _, s := range samples {
		labels := ""
		if len(s.Labels) > 0 {
			names := make([]string, len(s.Labels))
			values := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				names[i], values[i] = l.Name, l.Value
			}
			labels = formatLabels(names, values)
		}
		fmt.Fprintf(w, "%s%s %s\n", f.fname, labels, formatSample(s.Value))
	}
}

// NewGaugeFunc registers a gauge family whose samples are computed by
// collect on every scrape. collect must be safe for concurrent calls
// and should be cheap; a nil or empty return renders nothing.
func (r *Registry) NewGaugeFunc(name, help string, collect func() []Sample) {
	r.register(&funcMetric{family{name, help, "gauge"}, collect})
}

// NewCounterFunc is NewGaugeFunc with counter semantics: collect must
// return monotonically non-decreasing values (e.g. a cumulative total
// read from runtime state).
func (r *Registry) NewCounterFunc(name, help string, collect func() []Sample) {
	r.register(&funcMetric{family{name, help, "counter"}, collect})
}

// formatLabels renders {k="v",...} with values escaped per the text
// format (backslash, double quote, newline).
func formatLabels(names, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// addLabel inserts one more label pair into an already-rendered label
// set (used for histogram "le").
func addLabel(labels, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// formatSample renders a callback sample: integral values in plain digits,
// as a pushed Counter or Gauge renders them, so a count served at scrape
// time reads 1234567 rather than 1.234567e+06; anything else as
// formatFloat does.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return formatFloat(v)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
