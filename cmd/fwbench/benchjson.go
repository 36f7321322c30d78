package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"diversefw/internal/calibrate"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
	"diversefw/internal/trace"
)

// benchSchema identifies the BENCH_*.json format; bump it on any
// incompatible change so regression tooling can refuse to compare apples
// to oranges.
const benchSchema = "fwbench-json/v1"

// phaseResult is one measured pipeline phase, in testing.Benchmark units.
type phaseResult struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// benchReport is the machine-readable performance snapshot written to
// results/BENCH_<n>.json. Each file is immutable once written; the
// sequence of files is the repo's performance trajectory.
type benchReport struct {
	Schema     string        `json:"schema"`
	GitCommit  string        `json:"git_commit"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	When       string        `json:"when"`
	Rules      int           `json:"rules"`
	Trials     int           `json:"trials"`
	Phases     []phaseResult `json:"phases"`
	// Baseline is the path of the BENCH file these numbers were compared
	// against, and SpeedupVsBaseline maps phase name to
	// baseline_ns / current_ns (>1 means this snapshot is faster).
	Baseline          string             `json:"baseline,omitempty"`
	SpeedupVsBaseline map[string]float64 `json:"speedup_vs_baseline,omitempty"`
	// TracedOverheadPct is (diff_end_to_end_traced / diff_end_to_end - 1)
	// * 100: what carrying a live span tree through the pipeline costs.
	TracedOverheadPct float64 `json:"traced_overhead_pct,omitempty"`
	// DurableOverheadPct is what journaling the job lifecycle at
	// fsync=batch costs over the in-memory store on the cross-comparison
	// workload, as (durable/in-memory - 1) * 100. It is measured by
	// measureDurableOverhead's interleaved pairs, not as a ratio of the
	// two independently-timed phases: this box's timings drift by more
	// between phases than the effect being measured.
	DurableOverheadPct float64 `json:"durable_overhead_pct,omitempty"`
	// SpanStats records, from one traced run of the benchmark pair, the
	// numeric span attributes summed per span name (construct runs once
	// per policy, so its stats are the pair's totals) — the deep FDD
	// shape of the workload alongside its timings.
	SpanStats map[string]map[string]int64 `json:"span_stats,omitempty"`
	// CalibrationNsPerOp is the ns/op of a fixed allocation-free integer
	// workload measured alongside the phases. It captures the machine's
	// speed at snapshot time (host frequency scaling and noisy
	// neighbors shift this box's timings by tens of percent between
	// sessions with byte-identical allocation profiles), so the gate
	// can compare code speed rather than machine speed.
	CalibrationNsPerOp int64 `json:"calibration_ns_per_op,omitempty"`
}

// measureDurableOverhead times the cross-comparison workload against
// the in-memory store and against a journaled store at fsync=batch,
// and returns the median paired overhead in percent. The measurement is
// shaped around this box's noise, which arrives as multi-second bursts
// that slow everything by tens of percent:
//
//   - Many short paired runs: each pair is an 8-policy job (~a tenth
//     of a second per side), so a noise burst usually covers both sides
//     of a pair and cancels in the ratio instead of landing on one
//     side; 24 pairs give the median room to shrug off the pairs a
//     burst boundary does split. Single independently-timed phases —
//     and even a handful of 16-policy pairs — swing by more than the
//     effect being measured.
//
//   - Alternating order (mem-first on even pairs, durable-first on
//     odd): a monotonic ramp in machine speed biases half the pairs
//     each way and cancels in the median.
//
//   - Steady state: both coordinators live across all the runs, the
//     way a server holds one journal across thousands of jobs. Per-job
//     cost therefore includes settle/finalize journaling and any
//     compaction the accumulated log triggers, but not an open and an
//     fsync-close of a whole journal life per job.
func measureDurableOverhead() float64 {
	const pairs = 24
	const nPolicies, jobRules = 8, 20
	root, err := os.MkdirTemp("", "fwbench-journal-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "durable overhead: %v\n", err)
		return 0
	}
	defer os.RemoveAll(root)
	st, err := jobs.OpenJournal(root, jobs.JournalOptions{Fsync: jobs.FsyncBatch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "durable overhead: %v\n", err)
		return 0
	}
	memCoord := jobs.New(engine.New(engine.Config{}), jobs.Config{Workers: 4})
	durCoord := jobs.New(engine.New(engine.Config{}), jobs.Config{Workers: 4, Store: st})
	defer memCoord.Close()
	defer durCoord.Close()
	runOnce := func(c *jobs.Coordinator, names []string, policies []*rule.Policy) (time.Duration, error) {
		start := time.Now()
		snap, err := c.Submit(jobs.Spec{
			Kind: jobs.KindCrossCompare, SchemaName: "five",
			Names: names, Policies: policies,
		})
		if err != nil {
			return 0, err
		}
		done, err := c.Done(snap.ID)
		if err != nil {
			return 0, err
		}
		<-done
		return time.Since(start), nil
	}
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		// Fresh policies per pair (the same set for both sides): the
		// engines live across pairs, and reused policies would let
		// compilation caching shrink every run after the first.
		names := make([]string, nPolicies)
		policies := make([]*rule.Policy, nPolicies)
		for k := range policies {
			names[k] = fmt.Sprintf("p%d", k+1)
			policies[k] = synth.Synthetic(synth.Config{Rules: jobRules, Seed: int64(i*nPolicies + k + 1)})
		}
		var mem, durable time.Duration
		var memErr, durErr error
		if i%2 == 0 {
			mem, memErr = runOnce(memCoord, names, policies)
			durable, durErr = runOnce(durCoord, names, policies)
		} else {
			durable, durErr = runOnce(durCoord, names, policies)
			mem, memErr = runOnce(memCoord, names, policies)
		}
		if memErr != nil || durErr != nil {
			fmt.Fprintf(os.Stderr, "durable overhead: %v %v\n", memErr, durErr)
			return 0
		}
		ratios = append(ratios, float64(durable)/float64(mem))
	}
	sort.Float64s(ratios)
	return (ratios[len(ratios)/2] - 1) * 100
}

// gitCommit best-effort resolves HEAD for provenance; benchmarks must
// still work from an exported tarball.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// nextBenchPath returns the first results/BENCH_<n>.json that does not
// exist yet, so snapshots are append-only.
func nextBenchPath(dir string) (string, error) {
	for n := 0; ; n++ {
		p := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(p); os.IsNotExist(err) {
			return p, nil
		} else if err != nil {
			return "", err
		}
	}
}

// benchJSON measures the pipeline phase by phase with testing.Benchmark
// and appends a BENCH_<n>.json snapshot to cfg.outDir.
func benchJSON(cfg config) error {
	// Reject sizes the generator would silently replace with its default:
	// the snapshot must record the workload that actually ran.
	if cfg.benchRules < 1 {
		return fmt.Errorf("-benchrules must be >= 1, got %d", cfg.benchRules)
	}
	// Validate the baseline up front; a typoed path should not cost a
	// full benchmark run.
	var base *benchReport
	if cfg.baseline != "" {
		var err error
		if base, err = readBenchReport(cfg.baseline); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	if cfg.gatePct > 0 && base == nil {
		return fmt.Errorf("-gate requires -baseline")
	}

	pa := synth.Synthetic(synth.Config{Rules: cfg.benchRules, Seed: 1})
	pb := synth.Synthetic(synth.Config{Rules: cfg.benchRules, Seed: 2})

	fmt.Printf("== fwbench -json: %d-rule synthetic pair, GOMAXPROCS=%d ==\n",
		cfg.benchRules, runtime.GOMAXPROCS(0))

	// Pre-build each phase's input outside its timed loop. The shaping and
	// comparison inputs are safe to reuse across iterations:
	// MakeSemiIsomorphic simplifies (deep-copies) its inputs, and
	// CompareSemiIsomorphic only reads the shaped diagrams.
	fa, err := fdd.Construct(pa)
	if err != nil {
		return err
	}
	fb, err := fdd.Construct(pb)
	if err != nil {
		return err
	}
	sa, sb, err := shape.MakeSemiIsomorphic(fa, fb)
	if err != nil {
		return err
	}

	// Inputs for the incremental edit-to-diff phases: a checkpointing
	// builder for pa, and three edited variants flipping three decisions
	// at the head, middle, and tail of the rule list. A tail edit resumes
	// from the deepest checkpoint and re-appends a handful of rules; a
	// head edit invalidates every checkpoint and rebuilds from rule zero.
	builder, err := fdd.NewBuilder(pa)
	if err != nil {
		return err
	}
	flip3 := func(start int) (*rule.Policy, error) {
		out := pa
		for i := start; i < start+3 && i < pa.Size()-1; i++ {
			r := out.Rules[i]
			if r.Decision == rule.Accept {
				r.Decision = rule.Discard
			} else {
				r.Decision = rule.Accept
			}
			var err error
			if out, err = out.ReplaceRule(i, r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	head, middle, tail := 0, pa.Size()/2, max(0, pa.Size()-4)
	editedHead, err := flip3(head)
	if err != nil {
		return err
	}
	editedMiddle, err := flip3(middle)
	if err != nil {
		return err
	}
	editedTail, err := flip3(tail)
	if err != nil {
		return err
	}
	// Each resume is told where its edits start, as the engine's edit
	// path tells it (impact.UntouchedPrefix), so the rules before are not
	// compared.
	incremental := func(after *rule.Policy, kept int) func(b *testing.B) {
		return func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				nb, _, err := builder.ResumePrefix(ctx, after, kept)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := compare.DiffFDDsDirect(builder.FDD(), nb.FDD()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	phases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"construct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fdd.Construct(pa); err != nil {
					b.Fatal(err)
				}
				if _, err := fdd.Construct(pb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"shape", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := shape.MakeSemiIsomorphic(fa, fb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"compare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compare.CompareSemiIsomorphic(sa, sb)
			}
		}},
		// The walk every served diff runs: the memoized product walk and
		// its rows on the compare phase's pair, construction excluded.
		{"diff_direct", func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := compare.DiffFDDsDirectContext(ctx, fa, fb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"diff_end_to_end", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compare.Diff(pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"diff_end_to_end_traced", func(b *testing.B) {
			// Same work as diff_end_to_end but with a live trace carried
			// through the pipeline and retained the way fwserved retains
			// it; the ratio of the two phases is the tracing overhead.
			buf := trace.NewBuffer(64, 250*time.Millisecond, 8)
			for i := 0; i < b.N; i++ {
				ctx, tr := trace.New(context.Background(), "diff", "")
				if _, err := compare.DiffContext(ctx, pa, pb); err != nil {
					b.Fatal(err)
				}
				tr.Finish()
				buf.Observe(tr)
			}
		}},
		{"diff_warm_cache", func(b *testing.B) {
			// The serving scenario: the same pair diffed repeatedly against a
			// primed engine, so every iteration is a report-cache hit.
			eng := engine.New(engine.Config{})
			ctx := context.Background()
			if _, _, err := eng.DiffPolicies(ctx, pa, pb); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.DiffPolicies(ctx, pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The edit-to-diff path: resume the primed builder for a 3-rule
		// edit and direct-diff the before and after diagrams. Position in
		// the rule list is the whole story — see the phase inputs above.
		{"impact_incremental_head", incremental(editedHead, head)},
		{"impact_incremental_middle", incremental(editedMiddle, middle)},
		{"impact_incremental_tail", incremental(editedTail, tail)},
		// The async-job serving scenario: a 16-policy cross-comparison
		// (120 pairs) submitted to a fresh coordinator with 4 workers,
		// timed from Submit to the job's Done channel. Fresh engine per op
		// so every op pays 16 real compiles (the content-addressed cache
		// dedups the 240 per-pair compile requests down to those 16) plus
		// 120 shaped comparisons. The workload size is fixed and small —
		// not cfg.benchRules — because this phase measures coordinator
		// scheduling and cache coalescing, not raw pipeline cost.
		{"crosscompare_16x_sharded_4_workers", func(b *testing.B) {
			// Small rules keep one op well under a second, so the phase
			// averages several iterations instead of gating on a single
			// noisy 2s shot.
			const nPolicies, jobRules = 16, 20
			names := make([]string, nPolicies)
			policies := make([]*rule.Policy, nPolicies)
			for i := range policies {
				names[i] = fmt.Sprintf("p%d", i+1)
				policies[i] = synth.Synthetic(synth.Config{Rules: jobRules, Seed: int64(i + 1)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Config{})
				c := jobs.New(eng, jobs.Config{Workers: 4})
				snap, err := c.Submit(jobs.Spec{
					Kind: jobs.KindCrossCompare, SchemaName: "five",
					Names: names, Policies: policies,
				})
				if err != nil {
					b.Fatal(err)
				}
				done, err := c.Done(snap.ID)
				if err != nil {
					b.Fatal(err)
				}
				<-done
				final, err := c.Get(snap.ID)
				if err != nil {
					b.Fatal(err)
				}
				if final.State != jobs.StateCompleted || final.Progress.OK != final.Progress.Total {
					b.Fatalf("job did not complete cleanly: %+v", final.Progress)
				}
				if got := eng.Stats().Compilations; got != nPolicies {
					b.Fatalf("compilations = %d, want %d", got, nPolicies)
				}
				c.Close()
			}
		}},
		// The same 16-policy cross-comparison, but against a journaled
		// store at fsync=batch in a scratch directory — the durability tax
		// of the serving default. Each iteration opens a fresh journal (one
		// server life per job), and the open is timed with the job: it is
		// part of what the durable path costs. The ratio against the
		// in-memory phase above becomes durable_overhead_pct.
		{"jobs_durable_overhead", func(b *testing.B) {
			const nPolicies, jobRules = 16, 20
			names := make([]string, nPolicies)
			policies := make([]*rule.Policy, nPolicies)
			for i := range policies {
				names[i] = fmt.Sprintf("p%d", i+1)
				policies[i] = synth.Synthetic(synth.Config{Rules: jobRules, Seed: int64(i + 1)})
			}
			root, err := os.MkdirTemp("", "fwbench-journal-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(root)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := jobs.OpenJournal(filepath.Join(root, strconv.Itoa(i)), jobs.JournalOptions{Fsync: jobs.FsyncBatch})
				if err != nil {
					b.Fatal(err)
				}
				eng := engine.New(engine.Config{})
				c := jobs.New(eng, jobs.Config{Workers: 4, Store: st})
				snap, err := c.Submit(jobs.Spec{
					Kind: jobs.KindCrossCompare, SchemaName: "five",
					Names: names, Policies: policies,
				})
				if err != nil {
					b.Fatal(err)
				}
				done, err := c.Done(snap.ID)
				if err != nil {
					b.Fatal(err)
				}
				<-done
				final, err := c.Get(snap.ID)
				if err != nil {
					b.Fatal(err)
				}
				if final.State != jobs.StateCompleted || final.Progress.OK != final.Progress.Total {
					b.Fatalf("job did not complete cleanly: %+v", final.Progress)
				}
				c.Close()
			}
			b.StopTimer()
		}},
	}

	report := benchReport{
		Schema:             benchSchema,
		GitCommit:          gitCommit(),
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		When:               time.Now().UTC().Format(time.RFC3339),
		Rules:              cfg.benchRules,
		Trials:             cfg.trials,
		CalibrationNsPerOp: calibrate.NsPerOp(),
	}
	fmt.Printf("machine calibration: %d ns/op (fixed CPU reference workload)\n", report.CalibrationNsPerOp)
	fmt.Println("phase            ns/op          B/op           allocs/op")
	for _, p := range phases {
		// Settle the heap so phase k+1 is not taxed for phase k's garbage
		// (material on small-core machines, where a single GC cycle is a
		// visible fraction of an op).
		runtime.GC()
		r := testing.Benchmark(p.fn)
		pr := phaseResult{
			Name:        p.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Phases = append(report.Phases, pr)
		fmt.Printf("%-16s %-14d %-14d %d\n", pr.Name, pr.NsPerOp, pr.BytesPerOp, pr.AllocsPerOp)
	}

	phaseNs := make(map[string]int64, len(report.Phases))
	for _, p := range report.Phases {
		phaseNs[p.Name] = p.NsPerOp
	}
	if cold, traced := phaseNs["diff_end_to_end"], phaseNs["diff_end_to_end_traced"]; cold > 0 && traced > 0 {
		report.TracedOverheadPct = (float64(traced)/float64(cold) - 1) * 100
		fmt.Printf("\ntracing overhead: %+.2f%% (traced vs untraced end-to-end diff)\n", report.TracedOverheadPct)
	}
	report.DurableOverheadPct = measureDurableOverhead()
	fmt.Printf("durable store overhead: %+.2f%% (journaled fsync=batch vs in-memory crosscompare, median of interleaved pairs)\n", report.DurableOverheadPct)
	report.SpanStats = spanStats(pa, pb)

	if base != nil {
		report.Baseline = cfg.baseline
		report.SpeedupVsBaseline = make(map[string]float64, len(base.Phases))
		baseNs := make(map[string]int64, len(base.Phases))
		for _, p := range base.Phases {
			baseNs[p.Name] = p.NsPerOp
		}
		fmt.Println("\nspeedup vs baseline", cfg.baseline)
		for _, p := range report.Phases {
			if bn, ok := baseNs[p.Name]; ok && p.NsPerOp > 0 {
				s := float64(bn) / float64(p.NsPerOp)
				report.SpeedupVsBaseline[p.Name] = s
				fmt.Printf("  %-16s %.2fx\n", p.Name, s)
			}
		}
		// The headline cache number: a warm repeat-diff against the
		// baseline's cold end-to-end diff. Baselines predating the engine
		// have no diff_warm_cache phase of their own, so this cross-phase
		// ratio is what makes the win visible.
		if coldNs, ok := baseNs["diff_end_to_end"]; ok {
			for _, p := range report.Phases {
				if p.Name == "diff_warm_cache" && p.NsPerOp > 0 {
					s := float64(coldNs) / float64(p.NsPerOp)
					report.SpeedupVsBaseline["diff_warm_cache_vs_cold_baseline"] = s
					fmt.Printf("  %-32s %.2fx\n", "diff_warm_cache_vs_cold_baseline", s)
				}
			}
		}
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path, err := nextBenchPath(cfg.outDir)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)

	// The gate runs after the snapshot is written: a failing run still
	// leaves its numbers on disk for the investigation.
	if cfg.gatePct > 0 {
		remeasure := func(name string) (int64, bool) {
			for _, p := range phases {
				if p.name == name {
					runtime.GC()
					return testing.Benchmark(p.fn).NsPerOp(), true
				}
			}
			return 0, false
		}
		return gate(cfg, base, &report, remeasure)
	}
	return nil
}

// gate fails the run if any of cfg.gatePhases regressed more than its
// envelope against the baseline's ns/op: the percent an entry names as
// phase:pct, or cfg.gatePct for a bare phase name. Phases the baseline
// never measured are skipped (a new phase cannot regress). A phase that
// appears over the limit is re-measured up to twice and judged on its
// minimum: on a small shared machine single testing.Benchmark runs
// swing well past 5% from scheduler noise alone, and the minimum is
// the standard noise-robust statistic for threshold gates (a real
// regression cannot benchmark faster than the code allows). The
// snapshot keeps the first measurement; retries only inform the
// verdict.
//
// When both snapshots carry a machine calibration, the baseline is
// rescaled by the calibration ratio first: this box's absolute timings
// drift by tens of percent between sessions on byte-identical
// workloads (host frequency and neighbors), and without normalization
// the gate measures the machine, not the code. Uncalibrated baselines
// are compared absolutely, as before.
func gate(cfg config, base *benchReport, report *benchReport, remeasure func(string) (int64, bool)) error {
	phases := report.Phases
	scale := calibrate.Ratio(report.CalibrationNsPerOp, base.CalibrationNsPerOp)
	if scale != 1 {
		fmt.Printf("gate: machine calibration ratio %.3f vs baseline (baseline limits rescaled)\n", scale)
	}
	baseNs := make(map[string]int64, len(base.Phases))
	for _, p := range base.Phases {
		baseNs[p.Name] = int64(float64(p.NsPerOp) * scale)
	}
	curNs := make(map[string]int64, len(phases))
	for _, p := range phases {
		curNs[p.Name] = p.NsPerOp
	}
	var failures []string
	for _, entry := range strings.Split(cfg.gatePhases, ",") {
		name, pctText, own := strings.Cut(strings.TrimSpace(entry), ":")
		if name == "" {
			continue
		}
		envelope := cfg.gatePct
		if own {
			var err error
			if envelope, err = strconv.ParseFloat(pctText, 64); err != nil || envelope <= 0 {
				return fmt.Errorf("gate: bad envelope in %q", entry)
			}
		}
		cur, ok := curNs[name]
		if !ok {
			return fmt.Errorf("gate: unknown phase %q", name)
		}
		bn, ok := baseNs[name]
		if !ok || bn <= 0 {
			continue
		}
		limit := float64(bn) * (1 + envelope/100)
		for retry := 0; float64(cur) > limit && retry < 2 && remeasure != nil; retry++ {
			again, ok := remeasure(name)
			if !ok {
				break
			}
			fmt.Printf("gate: %s over limit (%d ns/op), re-measuring: %d ns/op\n", name, cur, again)
			if again < cur {
				cur = again
			}
		}
		pct := (float64(cur)/float64(bn) - 1) * 100
		if float64(cur) > limit {
			failures = append(failures, fmt.Sprintf("%s: %d ns/op vs baseline %d (%+.1f%%, limit +%.1f%%)",
				name, cur, bn, pct, envelope))
		} else {
			fmt.Printf("gate ok: %-12s %+.1f%% vs baseline (limit +%.1f%%)\n", name, pct, envelope)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// spanStats runs the benchmark pair through one traced run of the
// paper's phases (the construct, shape and compare phases above) and
// folds the resulting span tree into name -> attr -> summed value,
// keeping only numeric attributes. Spans that run once per policy
// (construct) therefore report pair totals.
func spanStats(pa, pb *rule.Policy) map[string]map[string]int64 {
	ctx, tr := trace.New(context.Background(), "diff", "")
	if _, err := paperDiff(ctx, pa, pb); err != nil {
		return nil
	}
	tr.Finish()
	stats := make(map[string]map[string]int64)
	tr.Snapshot().Root.Walk(func(s trace.SpanRecord) {
		for k, v := range s.Attrs {
			var n int64
			switch v := v.(type) {
			case int:
				n = int64(v)
			case int64:
				n = v
			case float64:
				n = int64(v)
			default:
				continue
			}
			if stats[s.Name] == nil {
				stats[s.Name] = make(map[string]int64)
			}
			stats[s.Name][k] += n
		}
	})
	return stats
}

// readBenchReport loads and validates a BENCH_*.json file.
func readBenchReport(path string) (*benchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, benchSchema)
	}
	return &r, nil
}
