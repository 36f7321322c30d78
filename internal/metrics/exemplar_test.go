package metrics

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramExemplar: ObserveExemplar lands the exemplar on the
// bucket the value falls in, the OpenMetrics rendering carries it in
// `# {trace_id="..."} value` syntax, and the classic Prometheus
// rendering never does (0.0.4 parsers reject the suffix).
func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("req_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.ObserveExemplar(0.05, "trace-slow")
	h.ObserveExemplar(0.002, "trace-fast")
	h.Observe(0.003) // plain Observe must not disturb the exemplar

	var om strings.Builder
	reg.WriteOpenMetrics(&om)
	for _, want := range []string{
		`req_seconds_bucket{le="0.1"} 3 # {trace_id="trace-slow"} 0.05`,
		`req_seconds_bucket{le="0.01"} 2 # {trace_id="trace-fast"} 0.002`,
		"# EOF\n",
	} {
		if !strings.Contains(om.String(), want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, om.String())
		}
	}

	var classic strings.Builder
	reg.WritePrometheus(&classic)
	if strings.Contains(classic.String(), "trace_id") || strings.Contains(classic.String(), "# EOF") {
		t.Errorf("classic rendering leaked OpenMetrics syntax:\n%s", classic.String())
	}
}

// TestHistogramVecExemplar: exemplars work per-child on labeled
// histograms.
func TestHistogramVecExemplar(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogramVec("lat_seconds", "Latency.", []float64{0.1}, "path")
	v.With("/v1/diff").ObserveExemplar(0.03, "abc123")
	var om strings.Builder
	reg.WriteOpenMetrics(&om)
	want := `lat_seconds_bucket{path="/v1/diff",le="0.1"} 1 # {trace_id="abc123"} 0.03`
	if !strings.Contains(om.String(), want) {
		t.Errorf("missing %q in:\n%s", want, om.String())
	}
}

// TestExemplarConcurrentScrape hammers ObserveExemplar from many
// goroutines while scraping both expositions — the -race gate for the
// atomic exemplar slots. Every rendered exemplar must be a coherent
// (value, trace) pair: writers always store trace-<value>, so a torn
// read would surface as a mismatched pair.
func TestExemplarConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h_seconds", "h", []float64{0.01, 0.1, 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := []float64{0.005, 0.05, 0.5, 5}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := vals[(w+i)%len(vals)]
				h.ObserveExemplar(v, fmt.Sprintf("trace-%g", v))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var om strings.Builder
		reg.WriteOpenMetrics(&om)
		for _, line := range strings.Split(om.String(), "\n") {
			idx := strings.Index(line, "# {trace_id=")
			if idx < 0 {
				continue
			}
			rest := line[idx:]
			var trace string
			var val float64
			if _, err := fmt.Sscanf(rest, `# {trace_id="trace-%s`, &trace); err != nil {
				t.Fatalf("unparseable exemplar %q", line)
			}
			trace = strings.TrimSuffix(strings.SplitN(trace, `"`, 2)[0], `"`)
			if _, err := fmt.Sscanf(rest[strings.Index(rest, "} ")+2:], "%g", &val); err != nil {
				t.Fatalf("unparseable exemplar value %q", line)
			}
			if trace != fmt.Sprintf("%g", val) {
				t.Fatalf("torn exemplar: trace %q does not match value %g in %q", trace, val, line)
			}
		}
		var classic strings.Builder
		reg.WritePrometheus(&classic)
	}
	close(stop)
	wg.Wait()
}

// TestHandlerNegotiatesOpenMetrics: the /metrics handler switches
// exposition on the Accept header, defaulting to the classic format.
func TestHandlerNegotiatesOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("x_seconds", "x", []float64{1})
	h.ObserveExemplar(0.5, "tr1")
	handler := reg.Handler()

	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != ContentTypePrometheus {
		t.Errorf("default Content-Type = %q", got)
	}
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Error("default scrape leaked exemplars")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; charset=utf-8,text/plain;q=0.5")
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if got := rec.Header().Get("Content-Type"); got != ContentTypeOpenMetrics {
		t.Errorf("negotiated Content-Type = %q", got)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `# {trace_id="tr1"} 0.5`) || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics scrape missing exemplar or EOF:\n%s", body)
	}
}

// TestFuncMetrics: callback gauges/counters render lazily with labels,
// and empty collections render nothing.
func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	reg.NewGaugeFunc("lazy_gauge", "g", func() []Sample {
		calls++
		return []Sample{
			{Labels: []Label{{Name: "k", Value: "a"}}, Value: 1.5},
			{Labels: []Label{{Name: "k", Value: "b"}}, Value: 2},
			// A large count renders in plain digits, as a Counter does.
			{Labels: []Label{{Name: "k", Value: "c"}}, Value: 1234567},
		}
	})
	reg.NewCounterFunc("lazy_total", "c", func() []Sample { return nil })
	if calls != 0 {
		t.Fatalf("collect ran %d times before any scrape", calls)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lazy_gauge gauge",
		`lazy_gauge{k="a"} 1.5`,
		`lazy_gauge{k="b"} 2`,
		`lazy_gauge{k="c"} 1234567`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lazy_total") {
		t.Errorf("empty func metric rendered a family header:\n%s", out)
	}
	if calls != 1 {
		t.Fatalf("collect ran %d times for one scrape", calls)
	}
}

// TestRegisterProcess: the fwproc_* runtime collectors render plausible
// live values.
func TestRegisterProcess(t *testing.T) {
	reg := NewRegistry()
	RegisterProcess(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, fam := range []string{"fwproc_goroutines", "fwproc_heap_bytes", "fwproc_gc_pause_seconds"} {
		if !strings.Contains(out, fam+" ") {
			t.Errorf("missing %s sample in:\n%s", fam, out)
		}
	}
	var goroutines float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fwproc_goroutines ") {
			fmt.Sscanf(line, "fwproc_goroutines %g", &goroutines)
		}
	}
	if goroutines < 1 {
		t.Errorf("fwproc_goroutines = %g, want >= 1", goroutines)
	}
}
