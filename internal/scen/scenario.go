// Package scen executes a seeded, declarative scenario matrix against
// an in-process fwserved instance: overload storms, cache-cold sweeps,
// adversarial policies, chaos fault flake, drain under load. Each
// scenario is a JSON file fixing a seed, a server shape, a three-phase
// load profile (warmup / inject / recover), injected faults, and SLO
// assertions. The op schedule is a pure function of (scenario, load
// scale): it is generated up front from the seed and written to
// raw_samples.jsonl before a single request is sent, so two runs of the
// same scenario produce byte-identical sample streams no matter how the
// goroutines interleave — the determinism the release gate leans on.
package scen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Phase names; ops run strictly in this order.
const (
	PhaseWarmup  = "warmup"
	PhaseInject  = "inject"
	PhaseRecover = "recover"
	PhaseAll     = "all" // assertion scope only: aggregate of the three
)

// Scenario is one matrix entry, loaded from testdata/scenarios/*.json.
type Scenario struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Seed        int64       `json:"seed"`
	Server      ServerSpec  `json:"server"`
	Load        LoadSpec    `json:"load"`
	Inject      InjectSpec  `json:"inject,omitempty"`
	Assertions  []Assertion `json:"assertions"`
}

// ServerSpec shapes the in-process server under test. Zero values mean
// "feature off" (no admission control, no work budget, default request
// timeout).
type ServerSpec struct {
	MaxInflight         int `json:"maxInflight,omitempty"`
	MaxQueue            int `json:"maxQueue,omitempty"`
	QueueDeadlineMillis int `json:"queueDeadlineMillis,omitempty"`
	MaxPerClient        int `json:"maxPerClient,omitempty"`
	MaxFDDNodes         int `json:"maxFddNodes,omitempty"`
	JobsWorkers         int `json:"jobsWorkers,omitempty"`
	// JobsJournal backs the jobs store with a crash-safe journal in the
	// run's output directory (fsync=always), making the jobs.journal.*
	// chaos points meaningful: journal faults must degrade durability
	// counters only, never job outcomes.
	JobsJournal bool `json:"jobsJournal,omitempty"`
}

// LoadSpec is the three-phase load profile. Warmup and recover run with
// at most 2 workers (they establish and verify the quiet baseline);
// inject runs with the full worker count.
type LoadSpec struct {
	Workers    int `json:"workers"`
	WarmupOps  int `json:"warmupOps"`
	InjectOps  int `json:"injectOps"`
	RecoverOps int `json:"recoverOps"`
	// Op is "diff", "jobs", or "mixed" (roughly one op in four is an
	// async job submission).
	Op    string `json:"op"`
	Rules int    `json:"rules"`
	// DistinctPolicies bounds the synthetic-policy seed pool. 0 means
	// every op gets a policy pair never seen before (cache-cold), which
	// also makes injected per-diff fault cadences exact: no report-cache
	// hit ever swallows a chaos firing.
	DistinctPolicies int `json:"distinctPolicies,omitempty"`
	// JobPolicies is the crosscompare width of one jobs op (default 3).
	JobPolicies int `json:"jobPolicies,omitempty"`
}

// FaultSpec is one chaos injection active during the inject phase.
type FaultSpec struct {
	// Point is a chaos point name: engine.compile, engine.diff,
	// engine.cache_insert.compile, engine.cache_insert.report,
	// jobs.pair, jobs.journal.write, jobs.journal.fsync.
	Point string `json:"point"`
	// Kind is "latency" (sleep Millis), "error" (fail the operation), or
	// "budget" (exhaust the work budget mid-walk).
	Kind   string `json:"kind"`
	Millis int    `json:"millis,omitempty"`
	// EveryN fires the fault on every n-th firing of the point, exactly
	// (atomic counter). 0 or 1 means every firing.
	EveryN int `json:"everyN,omitempty"`
}

// InjectSpec is what changes during the inject phase.
type InjectSpec struct {
	Faults []FaultSpec `json:"faults,omitempty"`
	// AdversarialRules > 0 swaps the A side of every inject-phase diff
	// for synth.Adversarial(n) — the worst-case construction input —
	// which the server's MaxFDDNodes budget must refuse deterministically.
	AdversarialRules int `json:"adversarialRules,omitempty"`
	// DrainAfterOps calls BeginDrain once that many inject ops have
	// settled; every later /v1/* request sheds with 503.
	DrainAfterOps int `json:"drainAfterOps,omitempty"`
	// CrashRestart runs the scenario against a real fwserved subprocess
	// backed by a jobs journal: inject-phase jobs are submitted without
	// waiting, the process is SIGKILLed once the journal holds
	// KillAfterSettles pair settles, and a second process is started on
	// the same journal directory. Every submitted job must then reach a
	// terminal state; the jobs_nonterminal, duplicate_settles, and
	// recovered_jobs metrics expose the result to assertions. Requires
	// load.op "jobs"; incompatible with faults (the chaos registry is
	// process-local and cannot reach the subprocess), adversarialRules,
	// and drainAfterOps.
	CrashRestart bool `json:"crashRestart,omitempty"`
	// KillAfterSettles is how many durably journaled pair settles to
	// wait for before the SIGKILL (default 1). Keep it well under the
	// smallest possible inject-phase pair count so the threshold is
	// reachable at every load scale.
	KillAfterSettles int `json:"killAfterSettles,omitempty"`
}

// Assertion is one gate on a phase's aggregate metrics. Metric is one
// of: count, ok_rate, error_rate, shed_rate, invalid_responses, p50_ms,
// p95_ms, p99_ms, rate:<envelope code>, or slo:<objective name> (status
// rank: ok=0 warn=1 burning=2; phase must be "all" since the SLO store
// spans the whole run). Crash-restart scenarios additionally expose the
// whole-run durability counters jobs_nonterminal, duplicate_settles,
// and recovered_jobs (phase "all" only).
type Assertion struct {
	Phase  string  `json:"phase"`
	Metric string  `json:"metric"`
	Op     string  `json:"op"` // le lt ge gt eq between
	Value  float64 `json:"value,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Max    float64 `json:"max,omitempty"`
	// MaxVarPct > 0 additionally gates the spread of this metric across
	// reruns: (max-min)/mean*100 must stay at or under it.
	MaxVarPct float64 `json:"maxVarPct,omitempty"`
}

// Parse decodes one scenario, rejecting unknown fields so a typoed knob
// fails the run instead of silently meaning "default".
func Parse(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, err
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// LoadFile reads and validates one scenario file.
func LoadFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// LoadDir loads every *.json in dir, sorted by filename for a stable
// matrix order.
func LoadDir(dir string) ([]Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scen: no scenario files in %s", dir)
	}
	sort.Strings(paths)
	out := make([]Scenario, 0, len(paths))
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		sc, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("scen: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		out = append(out, sc)
	}
	return out, nil
}

var validPoints = map[string]bool{
	"engine.compile":              true,
	"engine.diff":                 true,
	"engine.cache_insert.compile": true,
	"engine.cache_insert.report":  true,
	"jobs.pair":                   true,
	"jobs.journal.write":          true,
	"jobs.journal.fsync":          true,
}

var validMetricNames = map[string]bool{
	"count": true, "ok_rate": true, "error_rate": true, "shed_rate": true,
	"invalid_responses": true, "p50_ms": true, "p95_ms": true, "p99_ms": true,
}

// durabilityMetricNames are whole-run counters produced only by
// crash-restart scenarios (they are measured across both server lives).
var durabilityMetricNames = map[string]bool{
	"jobs_nonterminal":  true,
	"duplicate_settles": true,
	"recovered_jobs":    true,
}

// Validate rejects scenarios the runner could misinterpret.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scen: scenario needs a name")
	}
	if sc.Seed == 0 {
		return fmt.Errorf("scen: %s: seed must be set (and non-zero) — unseeded scenarios cannot gate", sc.Name)
	}
	if sc.Load.Workers < 1 {
		return fmt.Errorf("scen: %s: load.workers must be >= 1", sc.Name)
	}
	if sc.Load.WarmupOps < 0 || sc.Load.InjectOps < 0 || sc.Load.RecoverOps < 0 {
		return fmt.Errorf("scen: %s: op counts must be >= 0", sc.Name)
	}
	if sc.Load.WarmupOps+sc.Load.InjectOps+sc.Load.RecoverOps == 0 {
		return fmt.Errorf("scen: %s: no ops in any phase", sc.Name)
	}
	switch sc.Load.Op {
	case "diff", "jobs", "mixed":
	default:
		return fmt.Errorf("scen: %s: load.op %q (want diff, jobs, or mixed)", sc.Name, sc.Load.Op)
	}
	if sc.Load.Rules < 1 {
		return fmt.Errorf("scen: %s: load.rules must be >= 1", sc.Name)
	}
	for _, f := range sc.Inject.Faults {
		if !validPoints[f.Point] {
			return fmt.Errorf("scen: %s: unknown chaos point %q", sc.Name, f.Point)
		}
		switch f.Kind {
		case "latency", "error", "budget":
		default:
			return fmt.Errorf("scen: %s: fault kind %q (want latency, error, or budget)", sc.Name, f.Kind)
		}
		if f.Kind == "latency" && f.Millis < 1 {
			return fmt.Errorf("scen: %s: latency fault needs millis >= 1", sc.Name)
		}
		if f.EveryN < 0 {
			return fmt.Errorf("scen: %s: everyN must be >= 0", sc.Name)
		}
	}
	if sc.Inject.DrainAfterOps < 0 || sc.Inject.DrainAfterOps > sc.Load.InjectOps {
		return fmt.Errorf("scen: %s: drainAfterOps out of range", sc.Name)
	}
	if sc.Inject.KillAfterSettles < 0 {
		return fmt.Errorf("scen: %s: killAfterSettles must be >= 0", sc.Name)
	}
	if sc.Inject.CrashRestart {
		if sc.Load.Op != "jobs" {
			return fmt.Errorf("scen: %s: crashRestart requires load.op \"jobs\"", sc.Name)
		}
		if sc.Load.InjectOps < 1 {
			return fmt.Errorf("scen: %s: crashRestart needs at least one inject op to kill mid-flight", sc.Name)
		}
		if len(sc.Inject.Faults) > 0 {
			return fmt.Errorf("scen: %s: crashRestart cannot combine with faults: the chaos registry is process-local and never reaches the subprocess", sc.Name)
		}
		if sc.Inject.AdversarialRules > 0 || sc.Inject.DrainAfterOps > 0 {
			return fmt.Errorf("scen: %s: crashRestart cannot combine with adversarialRules or drainAfterOps", sc.Name)
		}
	}
	if len(sc.Assertions) == 0 {
		return fmt.Errorf("scen: %s: a scenario with no assertions gates nothing", sc.Name)
	}
	for i, a := range sc.Assertions {
		switch a.Phase {
		case PhaseWarmup, PhaseInject, PhaseRecover, PhaseAll:
		default:
			return fmt.Errorf("scen: %s: assertion %d: phase %q", sc.Name, i, a.Phase)
		}
		if !validMetricNames[a.Metric] && !durabilityMetricNames[a.Metric] &&
			!strings.HasPrefix(a.Metric, "rate:") && !strings.HasPrefix(a.Metric, "slo:") {
			return fmt.Errorf("scen: %s: assertion %d: unknown metric %q", sc.Name, i, a.Metric)
		}
		if strings.HasPrefix(a.Metric, "slo:") && a.Phase != PhaseAll {
			return fmt.Errorf("scen: %s: assertion %d: slo:* metrics span the run; use phase %q", sc.Name, i, PhaseAll)
		}
		if durabilityMetricNames[a.Metric] {
			if !sc.Inject.CrashRestart {
				return fmt.Errorf("scen: %s: assertion %d: metric %q is only measured by crashRestart scenarios", sc.Name, i, a.Metric)
			}
			if a.Phase != PhaseAll {
				return fmt.Errorf("scen: %s: assertion %d: durability metrics span both server lives; use phase %q", sc.Name, i, PhaseAll)
			}
		}
		switch a.Op {
		case "le", "lt", "ge", "gt", "eq":
		case "between":
			if a.Min > a.Max {
				return fmt.Errorf("scen: %s: assertion %d: between with min > max", sc.Name, i)
			}
		default:
			return fmt.Errorf("scen: %s: assertion %d: op %q", sc.Name, i, a.Op)
		}
		if a.MaxVarPct < 0 {
			return fmt.Errorf("scen: %s: assertion %d: maxVarPct must be >= 0", sc.Name, i)
		}
	}
	return nil
}

// Sample is one scheduled op — the deterministic part of a run,
// serialized (one JSON object per line) to raw_samples.jsonl. Outcomes
// are deliberately absent: the stream exists to prove two runs executed
// the same workload, not that the network behaved the same.
type Sample struct {
	Seq         int     `json:"seq"`
	Phase       string  `json:"phase"`
	Op          string  `json:"op"` // diff | jobs
	Endpoint    string  `json:"endpoint"`
	Rules       int     `json:"rules,omitempty"`
	SeedA       int64   `json:"seed_a,omitempty"`
	SeedB       int64   `json:"seed_b,omitempty"`
	Adversarial bool    `json:"adversarial,omitempty"`
	JobSeeds    []int64 `json:"job_seeds,omitempty"`
}

// scaleOps applies the matrix-wide load scale, keeping at least one op
// in any phase that had any.
func scaleOps(n int, scale float64) int {
	if n == 0 || scale <= 0 || scale == 1 {
		return n
	}
	s := int(float64(n) * scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Schedule generates the full op schedule for one run: a pure function
// of the scenario and the load scale. All randomness comes from one
// rand.Source seeded with Scenario.Seed, consumed in seq order.
func Schedule(sc Scenario, loadScale float64) []Sample {
	rng := rand.New(rand.NewSource(sc.Seed))
	jobWidth := sc.Load.JobPolicies
	if jobWidth < 2 {
		jobWidth = 3
	}
	// Base offset for unique-per-op seeds, far from the small explicit
	// pool range so the two modes can never collide.
	base := sc.Seed * 1_000_000
	phases := []struct {
		name string
		ops  int
	}{
		{PhaseWarmup, scaleOps(sc.Load.WarmupOps, loadScale)},
		{PhaseInject, scaleOps(sc.Load.InjectOps, loadScale)},
		{PhaseRecover, scaleOps(sc.Load.RecoverOps, loadScale)},
	}
	var out []Sample
	seq := 0
	drawSeed := func(n int) int64 {
		if sc.Load.DistinctPolicies > 0 {
			return 1 + int64(rng.Intn(sc.Load.DistinctPolicies))
		}
		return base + int64(n)
	}
	uniq := 0 // monotone counter for unique-per-op seeds
	for _, ph := range phases {
		for i := 0; i < ph.ops; i++ {
			s := Sample{Seq: seq, Phase: ph.name, Rules: sc.Load.Rules}
			isJob := sc.Load.Op == "jobs" || (sc.Load.Op == "mixed" && rng.Intn(4) == 0)
			if isJob {
				s.Op = "jobs"
				s.Endpoint = "/v1/jobs"
				s.JobSeeds = make([]int64, jobWidth)
				for k := range s.JobSeeds {
					s.JobSeeds[k] = drawSeed(uniq)
					uniq++
				}
			} else {
				s.Op = "diff"
				s.Endpoint = "/v1/diff"
				s.SeedA = drawSeed(uniq)
				uniq++
				s.SeedB = drawSeed(uniq)
				uniq++
				if ph.name == PhaseInject && sc.Inject.AdversarialRules > 0 {
					s.Adversarial = true
					s.Rules = sc.Inject.AdversarialRules
				}
			}
			out = append(out, s)
			seq++
		}
	}
	return out
}

// WriteSamples writes the schedule as JSONL.
func WriteSamples(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
