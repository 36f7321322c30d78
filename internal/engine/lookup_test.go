package engine

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversefw/internal/fdd"
	"diversefw/internal/impact"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// flightWaiters is how many callers wait on the compile flight for key.
func flightWaiters(e *Engine, key string) int {
	g := &e.compiled.flights
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.flights[key]; f != nil {
		return f.waiters
	}
	return 0
}

// TestScratchAndResumedCompileShareOneFlight: a Compile of an edited
// policy and an ImpactEdits that produces the same policy from its base
// are one compilation of one content address, so when they overlap they
// run one construction, whichever of scratch or resume it is, and the
// second caller is counted as coalesced.
func TestScratchAndResumedCompileShareOneFlight(t *testing.T) {
	e := New(Config{})
	before := synth.Synthetic(synth.Config{Rules: 80, Seed: 13})
	edits := tailEdits(t, before)
	after, err := impact.Apply(before, edits)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Compile(context.Background(), before); err != nil {
		t.Fatal(err)
	}

	// Stall every construction, scratch or resumed, until released.
	var calls atomic.Int32
	release := make(chan struct{})
	stall := func(ctx context.Context) error {
		calls.Add(1)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	construct, resume := e.construct, e.resume
	e.construct = func(ctx context.Context, p *rule.Policy, resumable bool) (*fdd.Builder, error) {
		if err := stall(ctx); err != nil {
			return nil, err
		}
		return construct(ctx, p, resumable)
	}
	e.resume = func(ctx context.Context, base *fdd.Builder, p *rule.Policy, kept int) (*fdd.Builder, fdd.ResumeStats, error) {
		if err := stall(ctx); err != nil {
			return nil, fdd.ResumeStats{}, err
		}
		return resume(ctx, base, p, kept)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, errs[0] = e.Compile(context.Background(), after)
	}()
	go func() {
		defer wg.Done()
		_, _, _, errs[1] = e.ImpactEdits(context.Background(), before, edits)
	}()
	// Release once both callers wait on one flight, or once two
	// constructions have started (which the assertion below reports).
	key := PolicyHash(after)
	deadline := time.Now().Add(5 * time.Second)
	for flightWaiters(e, key) < 2 && calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("callers never met (waiters = %d, constructions = %d)", flightWaiters(e, key), calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	if got := calls.Load(); got != 1 {
		t.Fatalf("constructions = %d, want exactly 1", got)
	}
	if got := e.Stats().Coalesced; got != 1 {
		t.Fatalf("Stats().Coalesced = %d, want 1", got)
	}
}

// TestStatsMatchScrape: every fwengine_cache_* series, and the engine's
// other fwengine_* counters, read the same counts Stats does, and one
// lookup counts once: a cold then a warm diff of one pair is two compile
// misses, two compile hits, one report miss and one report hit.
func TestStatsMatchScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{Metrics: reg})
	pa, pb := mustPolicy(t, teamA), mustPolicy(t, teamB)
	for i := 0; i < 2; i++ {
		if _, _, err := e.DiffPolicies(context.Background(), pa, pb); err != nil {
			t.Fatal(err)
		}
	}
	statsMatchScrape(t, e, reg)
	st := e.Stats()
	if st.Compile.Misses != 2 || st.Compile.Hits != 2 || st.Reports.Misses != 1 || st.Reports.Hits != 1 {
		t.Errorf("after a cold and a warm diff: compile %+v, reports %+v; want 2 misses and 2 hits, 1 miss and 1 hit",
			st.Compile, st.Reports)
	}
	if _, _, _, err := e.ImpactEdits(context.Background(), pa, tailEdits(t, pa)); err != nil {
		t.Fatal(err)
	}
	statsMatchScrape(t, e, reg)
}

// statsMatchScrape checks that a scrape of reg reports what e.Stats()
// does, series by series.
func statsMatchScrape(t *testing.T, e *Engine, reg *metrics.Registry) {
	t.Helper()
	st := e.Stats()
	scraped := scrape(t, reg)
	for _, c := range []struct {
		name  string
		stats CacheStats
	}{{cacheCompile, st.Compile}, {cacheReport, st.Reports}} {
		for _, s := range []struct {
			series string
			want   int64
		}{
			{"fwengine_cache_hits_total", int64(c.stats.Hits)},
			{"fwengine_cache_misses_total", int64(c.stats.Misses)},
			{"fwengine_cache_evictions_total", int64(c.stats.Evictions)},
			{"fwengine_cache_resident_bytes", c.stats.Bytes},
			{"fwengine_cache_entries", int64(c.stats.Entries)},
		} {
			key := s.series + `{cache="` + c.name + `"}`
			if got, ok := scraped[key]; !ok || got != s.want {
				t.Errorf("scrape %s = %d (present %v), Stats() says %d", key, got, ok, s.want)
			}
		}
	}
	for _, s := range []struct {
		series string
		want   uint64
	}{
		{"fwengine_compilations_total", st.Compilations},
		{"fwengine_incremental_attempted_total", st.Incremental.Attempted},
		{"fwengine_incremental_used_total", st.Incremental.Used},
		{"fwengine_incremental_fallback_total", st.Incremental.Fallback},
	} {
		if got := scraped[s.series]; got != int64(s.want) {
			t.Errorf("scrape %s = %d, Stats() says %d", s.series, got, s.want)
		}
	}
	coalesced := scraped[`fwengine_singleflight_coalesced_total{cache="compile"}`] +
		scraped[`fwengine_singleflight_coalesced_total{cache="report"}`]
	if coalesced != int64(st.Coalesced) {
		t.Errorf("scrape fwengine_singleflight_coalesced_total sums to %d, Stats() says %d", coalesced, st.Coalesced)
	}
}

// scrape renders reg and maps each integral series ("name{labels}") to
// its value.
func scrape(t *testing.T, reg *metrics.Registry) map[string]int64 {
	t.Helper()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := make(map[string]int64)
	for _, line := range strings.Split(sb.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
