package main

import (
	"os"
	"path/filepath"
	"testing"
)

func withArgs(t *testing.T, args ...string) int {
	t.Helper()
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = append([]string{"fwbench"}, args...)
	return run()
}

func TestEffectivenessExperiment(t *testing.T) {
	dir := t.TempDir()
	if code := withArgs(t, "-exp", "effectiveness", "-csv", dir); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "effectiveness.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestBDDExperiment(t *testing.T) {
	if code := withArgs(t, "-exp", "bdd"); code != 0 {
		t.Fatalf("exit = %d", code)
	}
}

func TestFig12SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 sweep is seconds-long")
	}
	dir := t.TempDir()
	if code := withArgs(t, "-exp", "fig12", "-trials", "1", "-csv", dir); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig12.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestFig13SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 sweep is seconds-long")
	}
	if code := withArgs(t, "-exp", "fig13", "-trials", "1", "-maxn", "500"); code != 0 {
		t.Fatalf("exit = %d", code)
	}
}

func TestBackToBackExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("hundred-thousand-packet sweep")
	}
	dir := t.TempDir()
	if code := withArgs(t, "-exp", "backtoback", "-csv", dir); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "backtoback.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if code := withArgs(t, "-exp", "warp"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestJSONBenchSnapshot(t *testing.T) {
	dir := t.TempDir()
	if code := withArgs(t, "-json", "-out", dir, "-benchrules", "40"); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	r0, err := readBenchReport(filepath.Join(dir, "BENCH_0.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Rules != 40 || r0.GOMAXPROCS < 1 || r0.GoVersion == "" {
		t.Fatalf("bad provenance: %+v", r0)
	}
	want := map[string]bool{
		"construct": true, "shape": true, "compare": true, "diff_direct": true,
		"diff_end_to_end": true, "diff_end_to_end_traced": true,
		"diff_warm_cache": true, "impact_incremental_head": true,
		"impact_incremental_middle": true, "impact_incremental_tail": true,
		"crosscompare_16x_sharded_4_workers": true,
		"jobs_durable_overhead":              true,
	}
	for _, p := range r0.Phases {
		if !want[p.Name] {
			t.Fatalf("unexpected phase %q", p.Name)
		}
		delete(want, p.Name)
		if p.NsPerOp <= 0 || p.AllocsPerOp <= 0 {
			t.Fatalf("phase %s has empty measurements: %+v", p.Name, p)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing phases: %v", want)
	}
	if r0.TracedOverheadPct == 0 {
		t.Fatal("traced_overhead_pct not recorded")
	}
	if r0.DurableOverheadPct == 0 {
		t.Fatal("durable_overhead_pct not recorded")
	}
	for _, span := range []string{"construct", "shape", "compare"} {
		if len(r0.SpanStats[span]) == 0 {
			t.Fatalf("span_stats missing %q: %v", span, r0.SpanStats)
		}
	}
	if r0.SpanStats["construct"]["rules"] != 80 {
		t.Fatalf("construct span stats should sum the pair: %v", r0.SpanStats["construct"])
	}

	// A second run appends BENCH_1.json, embeds baseline speedups, and
	// passes a generous regression gate against the first run.
	base := filepath.Join(dir, "BENCH_0.json")
	if code := withArgs(t, "-json", "-out", dir, "-benchrules", "40",
		"-baseline", base, "-gate", "10000"); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	r1, err := readBenchReport(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Baseline != base {
		t.Fatalf("baseline not recorded: %q", r1.Baseline)
	}
	// Twelve per-phase ratios plus the warm-vs-cold-baseline headline.
	if len(r1.SpeedupVsBaseline) != 13 {
		t.Fatalf("want 13 speedup entries, got %v", r1.SpeedupVsBaseline)
	}
	for name, s := range r1.SpeedupVsBaseline {
		if s <= 0 {
			t.Fatalf("phase %s: nonpositive speedup %v", name, s)
		}
	}
	warm, ok := r1.SpeedupVsBaseline["diff_warm_cache_vs_cold_baseline"]
	if !ok || warm < 1 {
		t.Fatalf("warm repeat-diff should beat the cold baseline: %v (ok=%v)", warm, ok)
	}
}

// TestGateRequiresBaseline pins that -gate without -baseline is a usage
// error caught before any benchmarking runs.
func TestGateRequiresBaseline(t *testing.T) {
	if code := withArgs(t, "-json", "-gate", "5"); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestJSONBenchBadBaseline(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := withArgs(t, "-json", "-out", dir, "-benchrules", "20", "-baseline", bad); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

// TestGateCatchesRegression runs the gate against a fabricated baseline
// claiming the phases once took 1 ns/op: any real measurement is a
// regression, so the run must fail — after still writing its snapshot.
func TestGateCatchesRegression(t *testing.T) {
	dir := t.TempDir()
	fast := filepath.Join(dir, "fast.json")
	doc := `{"schema":"fwbench-json/v1","phases":[` +
		`{"name":"construct","ns_per_op":1},{"name":"compare","ns_per_op":1}]}`
	if err := os.WriteFile(fast, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := withArgs(t, "-json", "-out", dir, "-benchrules", "20",
		"-baseline", fast, "-gate", "5"); code != 1 {
		t.Fatalf("exit = %d, want 1 (gate must fail)", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatalf("failing gate must still leave the snapshot: %v", err)
	}
}

// TestGatePerPhaseEnvelope: a phase:pct entry judges that phase on its
// own envelope and a bare phase name on -gate's, against a baseline
// rescaled by the calibration ratio.
func TestGatePerPhaseEnvelope(t *testing.T) {
	base := &benchReport{CalibrationNsPerOp: 100, Phases: []phaseResult{{Name: "construct", NsPerOp: 1000}, {Name: "compare", NsPerOp: 1000}}}
	cur := &benchReport{CalibrationNsPerOp: 200, Phases: []phaseResult{{Name: "construct", NsPerOp: 2800}, {Name: "compare", NsPerOp: 2500}}}
	for _, c := range []struct {
		phases string
		pass   bool
	}{
		{"construct:50,compare", true},     // +40% under 50%, +25% under -gate's 30%
		{"construct,compare", false},       // +40% over -gate's 30%
		{"construct:50,compare:20", false}, // +25% over 20%
		{"construct:x", false},
		{"construct:0", false},
	} {
		err := gate(config{gatePct: 30, gatePhases: c.phases}, base, cur, nil)
		if (err == nil) != c.pass {
			t.Fatalf("-gatephases %q: gate error %v, want pass %v", c.phases, err, c.pass)
		}
	}
}
