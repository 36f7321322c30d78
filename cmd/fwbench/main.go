// Command fwbench regenerates the paper's evaluation (Section 8):
//
//	-exp fig12          runtime vs. perturbation fraction x on the two
//	                    real-life-sized firewalls (661 and 42 rules)
//	-exp fig13          runtime of the three algorithms vs. rule count on
//	                    independently generated synthetic firewalls
//	-exp effectiveness  the Section 8.1 redesign experiment: an 87-rule
//	                    firewall with seeded ordering/missing-rule errors
//	                    compared against a correct redesign
//	-exp bdd            the Section 7.5 baseline: BDD-based diffing vs.
//	                    the FDD pipeline (output size explosion)
//	-exp all            everything
//
// Each experiment prints the series the paper plots; -csv DIR additionally
// writes machine-readable CSV files. Absolute times will differ from the
// paper's 2004 Java/SunBlade numbers; the shapes (near-linear growth,
// construction dominating, seconds at 3,000 rules) are the reproduction
// target — see EXPERIMENTS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"diversefw/internal/backtoback"
	"diversefw/internal/bdd"
	"diversefw/internal/compare"
	"diversefw/internal/fdd"
	"diversefw/internal/impact"
	"diversefw/internal/paper"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
	"diversefw/internal/synth"
	"diversefw/internal/textio"
)

func main() {
	os.Exit(run())
}

type config struct {
	exp        string
	trials     int
	csvDir     string
	maxN       int
	jsonMode   bool
	outDir     string
	baseline   string
	benchRules int
	gatePct    float64
	gatePhases string
}

func run() int {
	fs := flag.NewFlagSet("fwbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.exp, "exp", "all", "experiment: fig12, fig13, effectiveness, bdd, backtoback, all")
	fs.IntVar(&cfg.trials, "trials", 5, "trials per data point (the paper used 100 for fig12)")
	fs.StringVar(&cfg.csvDir, "csv", "", "directory to write CSV series into (optional)")
	fs.IntVar(&cfg.maxN, "maxn", 3000, "largest synthetic firewall for fig13")
	fs.BoolVar(&cfg.jsonMode, "json", false, "benchmark the pipeline phases and append a results/BENCH_<n>.json snapshot")
	fs.StringVar(&cfg.outDir, "out", "results", "directory for -json snapshots")
	fs.StringVar(&cfg.baseline, "baseline", "", "prior BENCH_*.json to compute speedups against (-json only)")
	fs.IntVar(&cfg.benchRules, "benchrules", 1000, "synthetic pair size for -json")
	fs.Float64Var(&cfg.gatePct, "gate", 0, "fail (exit 1) if any -gatephases phase regresses more than this percent vs -baseline (0 disables)")
	fs.StringVar(&cfg.gatePhases, "gatephases", "construct,compare", "comma-separated phases the -gate check applies to; phase:pct gives a phase its own envelope")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fwbench [-exp name] [-trials k] [-csv dir] | fwbench -json [-baseline file] [-gate pct]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	if cfg.jsonMode {
		if err := benchJSON(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fwbench: -json: %v\n", err)
			return 1
		}
		return 0
	}

	runs := map[string]func(config) error{
		"fig12":         fig12,
		"fig13":         fig13,
		"effectiveness": effectiveness,
		"bdd":           bddBaseline,
		"backtoback":    backToBack,
	}
	order := []string{"effectiveness", "fig12", "fig13", "bdd", "backtoback"}
	if cfg.exp != "all" {
		if _, ok := runs[cfg.exp]; !ok {
			fmt.Fprintf(os.Stderr, "fwbench: unknown experiment %q\n", cfg.exp)
			return 2
		}
		order = []string{cfg.exp}
	}
	for _, name := range order {
		if err := runs[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fwbench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// csvFile opens a CSV sink in the -csv directory, or a discard sink.
func csvFile(cfg config, name string, header ...string) (*textio.CSVWriter, func(), error) {
	if cfg.csvDir == "" {
		return textio.NewCSV(io.Discard, header...), func() {}, nil
	}
	if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(filepath.Join(cfg.csvDir, name))
	if err != nil {
		return nil, nil, err
	}
	return textio.NewCSV(f, header...), func() { f.Close() }, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// paperDiff runs the paper's three phases on pa and pb and times each:
// construction (both policies concurrently), shaping, and the lockstep
// comparison. The experiments plot these phases (Figs. 12 and 13), so
// they run the paper's algorithms; compare.Diff runs the product walk
// and has no shaping phase.
func paperDiff(ctx context.Context, pa, pb *rule.Policy) (*compare.Report, error) {
	start := time.Now()
	var fb *fdd.FDD
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		fb, errB = fdd.ConstructContext(ctx, pb)
	}()
	fa, err := fdd.ConstructContext(ctx, pa)
	<-done
	if err := errors.Join(err, errB); err != nil {
		return nil, err
	}
	tConstruct := time.Since(start)

	start = time.Now()
	sa, sb, err := shape.MakeSemiIsomorphicContext(ctx, fa, fb)
	if err != nil {
		return nil, err
	}
	tShape := time.Since(start)

	start = time.Now()
	report, err := compare.CompareSemiIsomorphicContext(ctx, sa, sb)
	if err != nil {
		return nil, err
	}
	report.Timing = compare.Timing{Construct: tConstruct, Shape: tShape, Compare: time.Since(start)}
	return report, nil
}

// fig12 reproduces "Experimental results on real-life firewalls": for each
// base size (661 and 42 rules) and each x in 5..50, run `trials`
// perturb-and-compare rounds and report mean per-phase times.
func fig12(cfg config) error {
	fmt.Println("== Fig. 12: runtime vs. perturbation fraction x (real-life-sized firewalls) ==")
	csv, done, err := csvFile(cfg, "fig12.csv", "base_rules", "x_pct", "construct_ms", "shape_ms", "compare_ms", "total_ms")
	if err != nil {
		return err
	}
	defer done()

	for _, base := range []int{661, 42} {
		orig := synth.RealLife(base, 1)
		fmt.Printf("\nbase firewall: %d rules; %d trials per point\n", base, cfg.trials)
		fmt.Println("x%   construct(ms)  shape(ms)  compare(ms)  total(ms)")
		for x := 5; x <= 50; x += 5 {
			var sum compare.Timing
			for trial := 0; trial < cfg.trials; trial++ {
				perturbed, _ := synth.Perturb(orig, float64(x), int64(1000*x+trial))
				report, err := paperDiff(context.Background(), orig, perturbed)
				if err != nil {
					return err
				}
				sum.Construct += report.Timing.Construct
				sum.Shape += report.Timing.Shape
				sum.Compare += report.Timing.Compare
			}
			k := time.Duration(cfg.trials)
			mean := compare.Timing{Construct: sum.Construct / k, Shape: sum.Shape / k, Compare: sum.Compare / k}
			fmt.Printf("%-4d %-14.2f %-10.2f %-12.2f %.2f\n",
				x, ms(mean.Construct), ms(mean.Shape), ms(mean.Compare), ms(mean.Total()))
			if err := csv.Row(base, x, ms(mean.Construct), ms(mean.Shape), ms(mean.Compare), ms(mean.Total())); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig13 reproduces "Experimental results on synthetic firewalls of large
// sizes": independently generated pairs, runtime vs. rule count.
func fig13(cfg config) error {
	fmt.Println("\n== Fig. 13: runtime vs. rule count (independent synthetic firewalls) ==")
	csv, done, err := csvFile(cfg, "fig13.csv", "rules", "construct_ms", "shape_ms", "compare_ms", "total_ms", "discrepancies")
	if err != nil {
		return err
	}
	defer done()

	fmt.Printf("%d trials per point\n", cfg.trials)
	fmt.Println("rules  construct(ms)  shape(ms)  compare(ms)  total(ms)  rows")
	for n := 250; n <= cfg.maxN; n += 250 {
		var sum compare.Timing
		rows := 0
		for trial := 0; trial < cfg.trials; trial++ {
			pa := synth.Synthetic(synth.Config{Rules: n, Seed: int64(2*trial + 1)})
			pb := synth.Synthetic(synth.Config{Rules: n, Seed: int64(2*trial + 2)})
			report, err := paperDiff(context.Background(), pa, pb)
			if err != nil {
				return err
			}
			sum.Construct += report.Timing.Construct
			sum.Shape += report.Timing.Shape
			sum.Compare += report.Timing.Compare
			rows += len(report.Discrepancies)
		}
		k := time.Duration(cfg.trials)
		mean := compare.Timing{Construct: sum.Construct / k, Shape: sum.Shape / k, Compare: sum.Compare / k}
		fmt.Printf("%-6d %-14.2f %-10.2f %-12.2f %-10.2f %d\n",
			n, ms(mean.Construct), ms(mean.Shape), ms(mean.Compare), ms(mean.Total()), rows/cfg.trials)
		if err := csv.Row(n, ms(mean.Construct), ms(mean.Shape), ms(mean.Compare), ms(mean.Total()), rows/cfg.trials); err != nil {
			return err
		}
	}
	return nil
}

// effectiveness reproduces the Section 8.1 redesign experiment in
// simulated form: a reference specification, an aged "original firewall"
// with seeded ordering and missing-rule errors, and a "redesign" with two
// specification misreadings. The comparator must find all functional
// discrepancies, attributable to their causes.
func effectiveness(cfg config) error {
	fmt.Println("== Section 8.1: effectiveness (simulated redesign experiment) ==")
	csv, done, err := csvFile(cfg, "effectiveness.csv", "quantity", "value")
	if err != nil {
		return err
	}
	defer done()

	// The reference captures the intended semantics (the rule comments of
	// the paper's university firewall). 87 rules as in the paper.
	reference := synth.RealLife(87, 3)

	// The original firewall: the admin added rules at the front over the
	// years (ordering errors) and lost some rules (missing).
	original, log := synth.InjectErrors(reference, synth.ErrorConfig{
		OrderingErrors: 12,
		MissingRules:   4,
		Seed:           8,
	})

	// The redesign: correct except for two specification misreadings
	// (decisions flipped on two rules).
	redesign := reference.Clone()
	for _, i := range []int{10, 30} {
		r := redesign.Rules[i]
		d := rule.Accept
		if r.Decision == rule.Accept {
			d = rule.Discard
		}
		redesign, err = redesign.ReplaceRule(i, rule.Rule{Pred: r.Pred, Decision: d})
		if err != nil {
			return err
		}
	}

	report, err := paperDiff(context.Background(), original, redesign)
	if err != nil {
		return err
	}
	imOrig, err := impact.Analyze(reference, original)
	if err != nil {
		return err
	}
	imRedesign, err := impact.Analyze(reference, redesign)
	if err != nil {
		return err
	}

	fmt.Printf("seeded into the original: %d ordering errors, %d missing rules\n",
		len(log.MovedToFront), len(log.Deleted))
	fmt.Printf("seeded into the redesign: 2 specification misreadings\n\n")
	fmt.Printf("discrepancies found (original vs redesign): %d\n", len(report.Discrepancies))
	fmt.Printf("  regions where the original deviates from the spec: %d\n", len(imOrig.Report.Discrepancies))
	fmt.Printf("  regions where the redesign deviates from the spec: %d\n", len(imRedesign.Report.Discrepancies))
	fmt.Printf("comparison time: %v\n", report.Timing.Total())

	rows := [][]interface{}{
		{"ordering_errors_seeded", len(log.MovedToFront)},
		{"missing_rules_seeded", len(log.Deleted)},
		{"misreadings_seeded", 2},
		{"discrepancies_found", len(report.Discrepancies)},
		{"original_deviation_regions", len(imOrig.Report.Discrepancies)},
		{"redesign_deviation_regions", len(imRedesign.Report.Discrepancies)},
	}
	for _, r := range rows {
		if err := csv.Row(r...); err != nil {
			return err
		}
	}
	if len(report.Discrepancies) == 0 {
		return fmt.Errorf("seeded errors produced no discrepancies")
	}

	// Repeat across seeds: the detection claim must hold for every error
	// mix, not one lucky draw.
	fmt.Printf("\nrepeatability over %d seeds (87 rules, 12 ordering + 4 missing each):\n", cfg.trials)
	fmt.Println("seed  discrepancies  errors_seeded  detected_all")
	for trial := 0; trial < cfg.trials; trial++ {
		seed := int64(100 + trial)
		ref := synth.RealLife(87, seed)
		orig, lg := synth.InjectErrors(ref, synth.ErrorConfig{
			OrderingErrors: 12, MissingRules: 4, Seed: seed + 1,
		})
		rep, err := paperDiff(context.Background(), orig, ref)
		if err != nil {
			return err
		}
		// Detection is complete by construction iff any seeded error that
		// changed behaviour yields at least one region; an error mix can
		// legitimately cancel out, so "detected_all" means: the diff is
		// empty only when original and reference are genuinely equivalent
		// (cross-checked with the independent N-way pipeline).
		detectedAll := true
		if rep.Equivalent() {
			nrep, err := compare.DiffN([]*rule.Policy{orig, ref})
			if err != nil {
				return err
			}
			detectedAll = nrep.Equivalent()
		}
		fmt.Printf("%-5d %-14d %-14d %v\n", seed, len(rep.Discrepancies), len(lg.MovedToFront)+len(lg.Deleted), detectedAll)
		if !detectedAll {
			return fmt.Errorf("seed %d: pipelines disagree on equivalence", seed)
		}
	}
	return nil
}

// backToBack reproduces the Section 9 contrast with back-to-back testing
// [25]: sampling-based cross testing misses discrepancy regions the exact
// comparison finds, at any realistic test budget.
func backToBack(cfg config) error {
	fmt.Println("\n== Section 9: back-to-back testing vs. exact comparison ==")
	csv, done, err := csvFile(cfg, "backtoback.csv",
		"workload", "strategy", "tests", "regions_total", "regions_found")
	if err != nil {
		return err
	}
	defer done()

	type workload struct {
		name   string
		pa, pb *rule.Policy
	}
	workloads := []workload{
		{"paper-example", paper.TeamA(), paper.TeamB()},
	}
	base := synth.RealLife(200, 5)
	perturbed, _ := synth.Perturb(base, 15, 9)
	workloads = append(workloads, workload{"perturbed-200", base, perturbed})

	fmt.Println("workload       strategy  tests    regions  found")
	for _, w := range workloads {
		report, err := paperDiff(context.Background(), w.pa, w.pb)
		if err != nil {
			return err
		}
		for _, strat := range []backtoback.Strategy{backtoback.Uniform, backtoback.Biased} {
			for _, n := range []int{1000, 10000, 100000} {
				res, err := backtoback.Run(w.pa, w.pb, n, 11, strat)
				if err != nil {
					return err
				}
				found, total := backtoback.Coverage(report, res)
				fmt.Printf("%-14s %-9s %-8d %-8d %d\n", w.name, strat, n, total, found)
				if err := csv.Row(w.name, strat.String(), n, total, found); err != nil {
					return err
				}
			}
		}
		fmt.Printf("%-14s %-9s %-8s %-8d %d   (construction+shaping+comparison: %v)\n",
			w.name, "exact", "-", len(report.Discrepancies), len(report.Discrepancies),
			report.Timing.Total().Round(time.Millisecond))
	}
	fmt.Println("\n(back-to-back testing reports point witnesses and misses sliver")
	fmt.Println("regions; the FDD comparison reports every region, as regions.)")
	return nil
}

// bddBaseline reproduces the Section 7.5 comparison: the FDD pipeline's
// human-readable rows vs. the BDD flattening's bit-level cube count.
func bddBaseline(cfg config) error {
	fmt.Println("\n== Section 7.5: BDD baseline (output-size explosion) ==")
	csv, done, err := csvFile(cfg, "bdd.csv", "workload", "fdd_rows", "bdd_cubes", "bdd_nodes", "fdd_ms", "bdd_ms")
	if err != nil {
		return err
	}
	defer done()

	type workload struct {
		name   string
		pa, pb *rule.Policy
	}
	workloads := []workload{
		{"paper-example", paper.TeamA(), paper.TeamB()},
	}
	for _, n := range []int{20, 50, 100} {
		workloads = append(workloads, workload{
			fmt.Sprintf("synthetic-%d", n),
			synth.Synthetic(synth.Config{Rules: n, Seed: 1}),
			synth.Synthetic(synth.Config{Rules: n, Seed: 2}),
		})
	}

	fmt.Println("workload       FDD rows  BDD cubes     BDD nodes  FDD(ms)  BDD(ms)")
	for _, w := range workloads {
		t0 := time.Now()
		report, err := paperDiff(context.Background(), w.pa, w.pb)
		if err != nil {
			return err
		}
		fddTime := time.Since(t0)

		t0 = time.Now()
		_, res, err := bdd.DiffPolicies(w.pa, w.pb)
		if err != nil {
			return err
		}
		bddTime := time.Since(t0)

		fmt.Printf("%-14s %-9d %-13.3g %-10d %-8.2f %.2f\n",
			w.name, len(report.Discrepancies), res.Cubes, res.Nodes, ms(fddTime), ms(bddTime))
		if err := csv.Row(w.name, len(report.Discrepancies), res.Cubes, res.Nodes, ms(fddTime), ms(bddTime)); err != nil {
			return err
		}
	}
	fmt.Println("\n(FDD rows are field-level, human-readable rules; BDD cubes are")
	fmt.Println("single-bit-test rules — the paper's reason for rejecting BDDs.)")
	return nil
}
