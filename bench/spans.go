package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Spans of one op share Op; a root span
// has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are microseconds since the recorder started.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
	Self  float64 `json:"self_us"`
	// Alloc is bytes allocated while the span ran.
	Alloc uint64 `json:"alloc_bytes"`
	// Count is a per-call size the layer reports (FDD nodes, rules
	// re-appended, paths compared).
	Count int64 `json:"count,omitempty"`
	// Setup marks priming calls made before the op list; Probe marks
	// calls outside any op's path (a primed-engine lookup).
	Setup bool `json:"setup,omitempty"`
	Probe bool `json:"probe,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use: the construct pair records from two goroutines.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its ID.
func (r *recorder) begin(op, parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: r.now()})
	return len(r.spans)
}

// end closes the span.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
}

// setAlloc records what the span's call allocated.
func (r *recorder) setAlloc(id int, alloc uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Alloc = alloc
}

// setCount records the size the span's call reported.
func (r *recorder) setCount(id int, count int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Count = count
}

// markSetup flags every span of op as set-up work.
func (r *recorder) markSetup(op int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].Op == op {
			r.spans[i].Setup = true
		}
	}
}

// markProbe flags a span as a probe outside its op's path.
func (r *recorder) markProbe(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Probe = true
}

// heapAllocs reads the process's cumulative allocated bytes without
// stopping the world (runtime.ReadMemStats would).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// finish returns the spans with self time filled in: each span's
// duration minus the part of its interval its children cover. Children
// may overlap (the two constructions of a diff run concurrently), so
// the covered part is the union of their intervals, clipped to the
// parent's.
func (r *recorder) finish() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	return withSelfTime(spans)
}

func withSelfTime(spans []span) []span {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans[i], children[spans[i].ID])
	}
	return spans
}

// covered is the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range ivs {
		if x.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x.lo, x.hi
		} else if x.hi > curHi {
			curHi = x.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// spanSum totals the spans of one name.
type spanSum struct {
	calls  int
	selfUS float64
	durUS  float64
	alloc  uint64
	count  int64
}

// sumSpans totals the spans named name; measuredOnly leaves out set-up
// and probe spans.
func sumSpans(spans []span, name string, measuredOnly bool) spanSum {
	var s spanSum
	for _, sp := range spans {
		if sp.Name != name || (measuredOnly && (sp.Setup || sp.Probe)) {
			continue
		}
		s.calls++
		s.selfUS += sp.Self
		s.durUS += sp.dur()
		s.alloc += sp.Alloc
		s.count += sp.Count
	}
	return s
}

// unattributedMs is the part of an untraced request's mean latency that
// no traced layer accounts for: the HTTP stack, middleware, loopback and
// scheduling. opDursUS are the traced ops' root-span durations.
func unattributedMs(untracedMeanMs float64, opDursUS []float64) float64 {
	if len(opDursUS) == 0 {
		return untracedMeanMs
	}
	var sum float64
	for _, d := range opDursUS {
		sum += d
	}
	return untracedMeanMs - sum/float64(len(opDursUS))/1e3
}
