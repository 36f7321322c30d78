// Command bench measures served requests: it builds fwserved, starts it
// as a child process on loopback, drives one of four closed-loop
// workloads at it over HTTP, checks every answer against a packet
// oracle, and prints each metric by name with its unit. With --trace 1
// it also replays the start of the workload in process with a span
// around each layer's public call and reports per-layer figures.
//
// Usage (from the repository root, through the wrapper that keeps the
// Go build cache inside the checkout):
//
//	bash bench/run.sh --workload diff-cold --seed 1 --seconds 25 --trace 0
//
// or from bench/ with an existing toolchain cache:
//
//	go run . --workload all --seed 1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Per-run detail lands in
// <out>/<workload>/results.json and spans.json; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if os.Getenv(referenceEnv) != "" {
		os.Exit(referenceMain(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	server   string // fwserved binary
	rounds   int
	setups   int
	maxOps   int // caps the generated schedule; 0 sizes it from the window
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "diff-cold, diff-warm, impact-edit, crosscompare, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Float64("seconds", 25, "measured window per workload")
	traceMode := fs.Int("trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for results.json, spans.json and journals")
	serverBin := fs.String("server", "", "fwserved binary; empty builds diversefw/cmd/fwserved (run from bench/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if _, ok := opsPerSecond[*workload]; !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bin := *serverBin
	if bin == "" {
		var err error
		if bin, err = buildServer(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range names {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *traceMode == 1,
			out: filepath.Join(*out, w), server: bin, rounds: 5, setups: 3}
		res, err := runWorkload(cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		printTable(stdout, w, res.all())
		want := endToEndMetrics
		if cfg.trace {
			want = perLayerMetrics
		}
		ms, err := pick(res.all(), want)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		for n, m := range ms {
			if len(names) > 1 {
				n = w + "/" + n
			}
			final.Metrics[n] = m
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// result is one workload's run, as written to results.json.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// RunS is the whole run's wall time: generation, set-ups, rounds,
	// reference samples and the oracle.
	RunS       float64      `json:"run_s"`
	Trace      bool         `json:"trace"`
	Provenance provenance   `json:"provenance"`
	Schedule   scheduleInfo `json:"schedule"`
	SetupEachS []float64    `json:"setup_s_each"`
	Rounds     []roundStats `json:"rounds"`
	Samples    int          `json:"latency_samples"`
	Correct    bool         `json:"correct"`
	Attempted  int          `json:"attempted"`
	Failed     int          `json:"failed"`
	ErrorRate  float64      `json:"error_rate"`
	FirstError string       `json:"first_error,omitempty"`
	// Reference holds the host reference's repetitions (speed.go) and
	// SpeedFactor{Wall,CPU} nominal / their medians. EndToEnd holds the
	// time metrics scaled by them; Measured holds them as measured.
	Reference       []referenceRep    `json:"reference"`
	SpeedFactorWall float64           `json:"speed_factor_wall"`
	SpeedFactorCPU  float64           `json:"speed_factor_cpu"`
	Measured        map[string]metric `json:"end_to_end_measured"`
	EndToEnd        map[string]metric `json:"end_to_end"`
	Server          map[string]metric `json:"server_counters"`
	Layers          map[string]metric `json:"per_layer,omitempty"`
	TracedOps       int               `json:"traced_ops,omitempty"`
	// Capped reports that the rounds ran past maxWindow times the
	// window and the rest of the schedule was not sent.
	Capped bool `json:"capped,omitempty"`
}

type scheduleInfo struct {
	Digest    string  `json:"digest"`
	Ops       int     `json:"ops"`
	SetupOps  int     `json:"setup_ops"`
	GenerateS float64 `json:"generate_s"`
}

// all merges every metric the run measured.
func (r *result) all() map[string]metric {
	out := make(map[string]metric)
	for _, set := range []map[string]metric{r.EndToEnd, r.Server, r.Layers} {
		for k, v := range set {
			out[k] = v
		}
	}
	return out
}

// maxWindow caps the timed rounds at this many times the window, so a
// much slower server still ends within the run's time limit.
const maxWindow = 2

// runWorkload is one workload end to end: generate, set up (several
// times, keeping the last server), run the timed rounds, stop the
// server, optionally replay traced in process, then check every answer.
// The window is the rounds' nominal length: it sizes the schedule
// (opsPerSecond).
func runWorkload(cfg config, logw io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	runStart := time.Now()
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2 // the other half is the traced replay's
	}
	n := cfg.maxOps
	if n == 0 {
		n = int(math.Ceil(opsPerSecond[cfg.workload] * window.Seconds()))
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Provenance: newProvenance()}
	genStart := time.Now()
	s, err := newSchedule(cfg.workload, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	res.Schedule = scheduleInfo{Digest: s.digest(), Ops: len(s.ops), SetupOps: len(s.prime),
		GenerateS: time.Since(genStart).Seconds()}

	speed, err := startHostSpeed()
	if err != nil {
		return nil, err
	}
	defer speed.stop()
	if err := speed.sample(); err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var srv *server
	defer func() { srv.stop() }()
	var d *runner
	for k := 0; k < cfg.setups; k++ {
		srv.stop()
		client.CloseIdleConnections()
		start := time.Now()
		if srv, err = startServer(cfg.server, filepath.Join(cfg.out, fmt.Sprintf("journal-%d", k))); err != nil {
			return nil, err
		}
		if err := srv.waitHealthy(client, 30*time.Second); err != nil {
			return nil, err
		}
		d = newRunner(client, srv.base)
		for _, o := range s.prime {
			if rec := d.do(o, -1); !rec.ok() {
				return nil, fmt.Errorf("set-up %s op: HTTP %d %v", o.kind, rec.status, rec.err)
			}
		}
		res.SetupEachS = append(res.SetupEachS, time.Since(start).Seconds())
	}
	c0, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	between := func() error {
		if err := srv.pause(); err != nil {
			return fmt.Errorf("pause fwserved: %w", err)
		}
		if err := speed.sample(); err != nil {
			return err
		}
		if err := srv.resume(); err != nil {
			return fmt.Errorf("resume fwserved: %w", err)
		}
		return nil
	}
	if res.Rounds, res.Capped, err = runRounds(d, s, srv.pid(), cfg.rounds, maxWindow*window, between); err != nil {
		return nil, err
	}
	if res.Capped {
		fmt.Fprintf(logw, "bench: %s: the rounds ran past %v; the rest of the schedule was not sent\n",
			cfg.workload, maxWindow*window)
	}
	c1, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	if c1.revision != "" {
		res.Provenance.Commit = c1.revision
	}
	srv.stop()
	srv = nil

	var tr *tracedRun
	if cfg.trace {
		if tr, err = runTraced(s, window, filepath.Join(cfg.out, "journal-traced")); err != nil {
			return nil, err
		}
	}

	a := verify(d.records, d.bodies)
	res.Attempted, res.Failed = a.measured, a.failed()
	res.Correct = a.failed() == 0 && a.setupBad == 0
	res.ErrorRate = float64(a.failed()) / float64(a.measured)
	res.FirstError = a.firstErr
	if err := speed.stop(); err != nil {
		return nil, err
	}
	res.Reference = speed.reps
	res.SpeedFactorWall, res.SpeedFactorCPU = speed.factors()
	res.Measured, res.Samples = endToEnd(res.Rounds, res.SetupEachS)
	res.EndToEnd = atNominalSpeed(res.Measured, res.SpeedFactorWall, res.SpeedFactorCPU)
	res.Server = serverDeltas(c0, c1, a.measured)
	res.Server["compare.rows"] = metric{float64(a.rows) / float64(max(1, a.measured-a.failed())), "count"}
	if res.FirstError != "" {
		fmt.Fprintf(logw, "bench: %s: %d failed ops, first: %s\n", cfg.workload, res.Failed, res.FirstError)
	}

	if tr != nil {
		spans := tr.rec.finish()
		res.Layers = make(map[string]metric)
		layerMetrics(tr, spans, res.Layers)
		var untraced []float64
		for _, r := range res.Rounds {
			untraced = append(untraced, r.latencies...)
		}
		res.Layers["http.unattributed_ms"] = metric{unattributedMs(mean(untraced), opDurations(spans)), "ms"}
		res.TracedOps = tr.measured
		if err := writeJSONFile(filepath.Join(cfg.out, "spans.json"), spans); err != nil {
			return nil, err
		}
	}
	res.Provenance.LoadAvgEnd = loadAvg()
	res.RunS = time.Since(runStart).Seconds()
	if err := writeJSONFile(filepath.Join(cfg.out, "results.json"), res); err != nil {
		return nil, err
	}
	return res, nil
}
