package scen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a fast scenario for in-process runner tests.
func tiny() Scenario {
	return Scenario{
		Name: "tiny",
		Seed: 7,
		Load: LoadSpec{
			Workers: 2, WarmupOps: 2, InjectOps: 6, RecoverOps: 2,
			Op: "diff", Rules: 10,
		},
		Assertions: []Assertion{
			{Phase: PhaseAll, Metric: "error_rate", Op: "eq", Value: 0},
			{Phase: PhaseAll, Metric: "invalid_responses", Op: "eq", Value: 0},
			{Phase: PhaseAll, Metric: "ok_rate", Op: "eq", Value: 1},
		},
	}
}

// TestScheduleDeterministic: the schedule is a pure function of
// (scenario, scale) — the property raw_samples.jsonl exists to witness.
func TestScheduleDeterministic(t *testing.T) {
	sc := tiny()
	sc.Load.Op = "mixed"
	var a, b bytes.Buffer
	if err := WriteSamples(&a, Schedule(sc, 1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSamples(&b, Schedule(sc, 1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two schedules from the same seed differ")
	}
	var c bytes.Buffer
	sc2 := sc
	sc2.Seed = 8
	if err := WriteSamples(&c, Schedule(sc2, 1)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRunDeterministicRawSamples runs a scenario twice end to end and
// compares raw_samples.jsonl byte for byte — the satellite determinism
// gate: goroutine interleaving must not leak into the recorded stream.
func TestRunDeterministicRawSamples(t *testing.T) {
	sc := tiny()
	dir := t.TempDir()
	for _, run := range []string{"a", "b"} {
		res, err := RunScenario(sc, filepath.Join(dir, run), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("run %s failed: %+v", run, res.Assertions)
		}
	}
	ra, err := os.ReadFile(filepath.Join(dir, "a", "raw_samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(filepath.Join(dir, "b", "raw_samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) == 0 || !bytes.Equal(ra, rb) {
		t.Fatalf("raw_samples streams differ between identical runs (%d vs %d bytes)", len(ra), len(rb))
	}
}

// TestDeterministicFailure: an unconditional chaos fault pushes the
// scenario past its assertions on every run — the gate fails
// deterministically, not flakily.
func TestDeterministicFailure(t *testing.T) {
	sc := tiny()
	sc.Name = "always-broken"
	sc.Inject.Faults = []FaultSpec{{Point: "engine.diff", Kind: "error", EveryN: 1}}
	sc.Assertions = []Assertion{
		{Phase: PhaseInject, Metric: "rate:unprocessable", Op: "eq", Value: 0},
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		res, err := RunScenario(sc, filepath.Join(dir, "run"), run, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed {
			t.Fatalf("run %d passed despite every diff faulting", run)
		}
		// Exactly every inject diff fails: the fault cadence is exact.
		if got := res.Assertions[0].Actual; got != 1 {
			t.Fatalf("run %d: rate:unprocessable = %g, want exactly 1", run, got)
		}
		if res.Phases[PhaseRecover].OK != res.Phases[PhaseRecover].Count {
			t.Fatalf("run %d: recover not clean after fault removal: %+v", run, res.Phases[PhaseRecover])
		}
	}
}

// TestShippedScenariosValid: every checked-in matrix entry parses,
// validates, and carries at least one SLO-backed assertion.
func TestShippedScenariosValid(t *testing.T) {
	scs, err := LoadDir("../../testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"overload": true, "cache-cold-storm": true, "adversarial": true,
		"chaos-flake": true, "drain-under-load": true, "crash-recovery": true,
	}
	for _, sc := range scs {
		delete(want, sc.Name)
		hasSLO := false
		for _, a := range sc.Assertions {
			if strings.HasPrefix(a.Metric, "slo:") {
				hasSLO = true
			}
		}
		if !hasSLO {
			t.Errorf("%s: no slo:* assertion", sc.Name)
		}
	}
	for name := range want {
		t.Errorf("matrix is missing scenario %q", name)
	}
}

// TestValidateRejects pins the validator's refusals.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "needs a name"},
		{"no seed", func(s *Scenario) { s.Seed = 0 }, "seed"},
		{"no workers", func(s *Scenario) { s.Load.Workers = 0 }, "workers"},
		{"no ops", func(s *Scenario) { s.Load.WarmupOps, s.Load.InjectOps, s.Load.RecoverOps = 0, 0, 0 }, "no ops"},
		{"bad op", func(s *Scenario) { s.Load.Op = "nap" }, "load.op"},
		{"bad point", func(s *Scenario) {
			s.Inject.Faults = []FaultSpec{{Point: "engine.nope", Kind: "error"}}
		}, "chaos point"},
		{"unserved point", func(s *Scenario) {
			s.Inject.Faults = []FaultSpec{{Point: "shape.walk", Kind: "budget"}}
		}, "chaos point"},
		{"bad fault kind", func(s *Scenario) {
			s.Inject.Faults = []FaultSpec{{Point: "engine.diff", Kind: "explode"}}
		}, "fault kind"},
		{"latency without millis", func(s *Scenario) {
			s.Inject.Faults = []FaultSpec{{Point: "engine.diff", Kind: "latency"}}
		}, "millis"},
		{"drain past inject", func(s *Scenario) { s.Inject.DrainAfterOps = 999 }, "drainAfterOps"},
		{"no assertions", func(s *Scenario) { s.Assertions = nil }, "no assertions"},
		{"bad metric", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: PhaseAll, Metric: "vibes", Op: "eq"}}
		}, "unknown metric"},
		{"bad phase", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: "cooldown", Metric: "count", Op: "eq"}}
		}, "phase"},
		{"bad op kind", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: PhaseAll, Metric: "count", Op: "approx"}}
		}, `op "approx"`},
		{"between min>max", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: PhaseAll, Metric: "count", Op: "between", Min: 2, Max: 1}}
		}, "min > max"},
		{"slo on phase", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: PhaseInject, Metric: "slo:diff-errors", Op: "eq"}}
		}, "slo:"},
		{"crash with diff op", func(s *Scenario) {
			s.Inject.CrashRestart = true
		}, `load.op "jobs"`},
		{"crash with faults", func(s *Scenario) {
			s.Load.Op = "jobs"
			s.Inject.CrashRestart = true
			s.Inject.Faults = []FaultSpec{{Point: "jobs.pair", Kind: "error"}}
		}, "process-local"},
		{"durability without crash", func(s *Scenario) {
			s.Assertions = []Assertion{{Phase: PhaseAll, Metric: "duplicate_settles", Op: "eq"}}
		}, "crashRestart"},
		{"durability on phase", func(s *Scenario) {
			s.Load.Op = "jobs"
			s.Inject.CrashRestart = true
			s.Assertions = []Assertion{{Phase: PhaseInject, Metric: "jobs_nonterminal", Op: "eq"}}
		}, "both server lives"},
	}
	for _, tc := range cases {
		sc := tiny()
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	good := tiny()
	if err := good.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

// TestJournalFaultDegradesDurabilityOnly: with an in-process journaled
// store and every journal write failing, jobs must still all succeed —
// journal faults degrade durability counters, never job outcomes.
func TestJournalFaultDegradesDurabilityOnly(t *testing.T) {
	sc := tiny()
	sc.Name = "journal-chaos"
	sc.Server.JobsJournal = true
	sc.Load.Op = "jobs"
	sc.Inject.Faults = []FaultSpec{{Point: "jobs.journal.write", Kind: "error", EveryN: 1}}
	res, err := RunScenario(sc, filepath.Join(t.TempDir(), "out"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("journal write chaos leaked into job outcomes: %+v", res.Assertions)
	}
}

// TestCrashScenarioRun drives the subprocess crash-restart runner end
// to end on a small workload: kill a journaled fwserved mid-job,
// restart it, and the durability counters must come back clean.
func TestCrashScenarioRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs subprocess servers")
	}
	sc := Scenario{
		Name:   "crash-tiny",
		Seed:   19,
		Load:   LoadSpec{Workers: 2, WarmupOps: 1, InjectOps: 2, RecoverOps: 1, Op: "jobs", Rules: 120, JobPolicies: 4},
		Inject: InjectSpec{CrashRestart: true},
		Assertions: []Assertion{
			{Phase: PhaseAll, Metric: "invalid_responses", Op: "eq", Value: 0},
			{Phase: PhaseAll, Metric: "jobs_nonterminal", Op: "eq", Value: 0},
			{Phase: PhaseAll, Metric: "duplicate_settles", Op: "eq", Value: 0},
			{Phase: PhaseAll, Metric: "recovered_jobs", Op: "ge", Value: 1},
		},
	}
	res, err := RunScenario(sc, filepath.Join(t.TempDir(), "out"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Durability == nil {
		t.Fatal("crash run produced no durability metrics")
	}
	if !res.Passed {
		t.Fatalf("crash scenario failed: %+v", res.Assertions)
	}
}

// TestParseRejectsUnknownFields: a typoed knob fails loudly.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name":"x","seed":1,"lod":{}}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v, want unknown field", err)
	}
}

// TestVarianceGate exercises the cross-run spread check with synthetic
// run results.
func TestVarianceGate(t *testing.T) {
	sc := tiny()
	sc.Assertions = []Assertion{
		{Phase: PhaseAll, Metric: "ok_rate", Op: "ge", Value: 0, MaxVarPct: 10},
	}
	mk := func(vals ...float64) []RunResult {
		runs := make([]RunResult, len(vals))
		for i, v := range vals {
			runs[i] = RunResult{Assertions: []AssertionResult{{Actual: v}}}
		}
		return runs
	}
	if fails := varianceFailures(sc, mk(1, 1, 1)); len(fails) != 0 {
		t.Errorf("identical runs flagged: %v", fails)
	}
	if fails := varianceFailures(sc, mk(1.0, 1.05)); len(fails) != 0 {
		t.Errorf("5%% spread flagged at 10%% limit: %v", fails)
	}
	if fails := varianceFailures(sc, mk(1.0, 0.5)); len(fails) != 1 {
		t.Errorf("67%% spread not flagged: %v", fails)
	}
	if fails := varianceFailures(sc, mk(0, 0, 0)); len(fails) != 0 {
		t.Errorf("all-zero series flagged: %v", fails)
	}
	if fails := varianceFailures(sc, mk(0, 1)); len(fails) != 1 {
		t.Errorf("zero-mean nonzero spread not flagged: %v", fails)
	}
	if fails := varianceFailures(sc, mk(1)); len(fails) != 0 {
		t.Errorf("single run cannot have spread: %v", fails)
	}
}

// TestScaleOps pins the load-scale floor.
func TestScaleOps(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {10, 4}, {100, 40}}
	for _, c := range cases {
		if got := scaleOps(c.n, 0.4); got != c.want {
			t.Errorf("scaleOps(%d, 0.4) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := scaleOps(10, 1); got != 10 {
		t.Errorf("scale 1 must be identity, got %d", got)
	}
	if got := scaleOps(10, 0.01); got != 1 {
		t.Errorf("nonzero phase must keep >= 1 op, got %d", got)
	}
}

// TestPercentile pins nearest-rank behavior.
func TestPercentile(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	if got := percentile(vals, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(vals, 0.99); got != 5 {
		t.Errorf("p99 = %g, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
	// percentile must not reorder the caller's slice.
	if vals[0] != 4 {
		t.Error("percentile mutated its input")
	}
}
