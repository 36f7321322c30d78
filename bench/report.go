package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics and perLayerMetrics are what the last output line
// carries with --trace 0 and --trace 1; they match BENCHMARK.json. The
// per-layer set holds the layers every workload exercises; results.json
// adds the workload-specific ones.
var endToEndMetrics = []string{
	"throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op", "setup_s", "peak_rss_mb",
}

var perLayerMetrics = []string{
	"api.decode_ms", "api.encode_ms", "api.alloc_mb",
	"frontend.parse_ms", "frontend.alloc_mb",
	"engine.hash_ms", "engine.compile_hit_ratio", "engine.report_hit_ratio",
	"engine.compilations_per_op", "engine.coalesced_per_op", "engine.incremental_used_ratio",
	"fdd.construct_ms", "fdd.construct_alloc_mb", "fdd.nodes",
	"compare.diff_ms", "compare.rows",
	"runtime.gc_pause_ms_per_op", "http.unattributed_ms",
}

const mib = 1 << 20

// endToEnd computes the user-visible metrics from the timed rounds.
// Throughput and CPU are medians of the rounds, so one disturbed round
// does not move them. Latency percentiles pool every op of the run: a
// round's few dozen cold diffs give a noisy median of their own. Peak
// memory is the mean of the rounds' peaks: the caches grow through the
// run, so the rounds' peaks climb, and each lands wherever a collection
// happens to fall; their mean is steadier than any one of them.
func endToEnd(rounds []roundStats, setups []float64) (map[string]metric, int) {
	var tput, cpu, peak, all []float64
	for _, r := range rounds {
		tput = append(tput, r.OpsPerSec)
		cpu = append(cpu, r.CPUPerOp)
		peak = append(peak, r.PeakRSSMiB)
		all = append(all, r.latencies...)
	}
	return map[string]metric{
		"throughput_ops_s": {median(tput), "ops/s"},
		"latency_p50_ms":   {quantile(all, 0.50), "ms"},
		"latency_p90_ms":   {quantile(all, 0.90), "ms"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"setup_s":          {median(setups), "s"},
		"peak_rss_mb":      {mean(peak), "MiB"},
	}, len(all)
}

// atNominalSpeed scales the time metrics by the host speed factors
// (speed.go): CPU per op by the CPU factor, the other times by the wall
// factor, throughput by the wall factor's inverse. Peak RSS is not a
// time and stays as measured.
func atNominalSpeed(measured map[string]metric, wall, cpu float64) map[string]metric {
	out := make(map[string]metric, len(measured))
	for k, m := range measured {
		switch {
		case k == "cpu_ms_per_op":
			m.Value *= cpu
		case m.Unit == "ms" || m.Unit == "s":
			m.Value *= wall
		case m.Unit == "ops/s":
			m.Value /= wall
		}
		out[k] = m
	}
	return out
}

// serverDeltas are the engine and runtime counters' movement over the
// timed rounds.
func serverDeltas(c0, c1 counters, ops int) map[string]metric {
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	perOp := func(d uint64) float64 { return float64(d) / float64(ops) }
	a, b := c0.cache, c1.cache
	return map[string]metric{
		"engine.compile_hit_ratio":      {ratio(b.Compile.Hits-a.Compile.Hits, b.Compile.Misses-a.Compile.Misses), "ratio"},
		"engine.report_hit_ratio":       {ratio(b.Reports.Hits-a.Reports.Hits, b.Reports.Misses-a.Reports.Misses), "ratio"},
		"engine.compilations_per_op":    {perOp(b.Compilations - a.Compilations), "count"},
		"engine.coalesced_per_op":       {perOp(b.Coalesced - a.Coalesced), "count"},
		"engine.incremental_used_ratio": {perOp(b.Incremental.Used - a.Incremental.Used), "ratio"},
		"runtime.gc_pause_ms_per_op":    {(c1.gcPauseSec - c0.gcPauseSec) * 1e3 / float64(ops), "ms"},
	}
}

// layerMetrics turns the traced run's spans into per-layer figures.
// Request layers (api, frontend, engine.hash, impact) are means per
// measured op of their self time. Pipeline layers (fdd, shape, compare)
// are means per call, set-up calls included, so a workload whose ops
// hit the caches still reports what its priming built. A layer the
// workload never calls is left out.
func layerMetrics(t *tracedRun, spans []span, out map[string]metric) {
	m := float64(t.measured)
	perOp := func(key, name, unit string) {
		if s := sumSpans(spans, name, true); s.calls > 0 {
			out[key] = metric{s.selfUS / 1e3 / m, unit}
		}
	}
	perCall := func(name string, durKey, allocKey, countKey, countUnit string) {
		s := sumSpans(spans, name, false)
		if s.calls == 0 {
			return
		}
		n := float64(s.calls)
		if durKey != "" {
			out[durKey] = metric{s.durUS / 1e3 / n, "ms"}
		}
		if allocKey != "" {
			out[allocKey] = metric{float64(s.alloc) / mib / n, "MiB"}
		}
		if countKey != "" {
			out[countKey] = metric{float64(s.count) / n, countUnit}
		}
	}
	allocPerOp := func(key string, names ...string) {
		var total uint64
		for _, name := range names {
			total += sumSpans(spans, name, true).alloc
		}
		out[key] = metric{float64(total) / mib / m, "MiB"}
	}

	perOp("api.decode_ms", "api.decode", "ms")
	perOp("api.encode_ms", "api.encode", "ms")
	allocPerOp("api.alloc_mb", "api.decode", "api.encode")
	perOp("frontend.parse_ms", "frontend.parse", "ms")
	allocPerOp("frontend.alloc_mb", "frontend.parse")
	perOp("engine.hash_ms", "engine.hash", "ms")
	perOp("impact.parse_ms", "impact.parse", "ms")
	perOp("impact.apply_ms", "impact.apply", "ms")
	perOp("impact.attribute_ms", "impact.attribute", "ms")

	perCall("engine.lookup", "engine.lookup_ms", "", "", "")
	perCall("fdd.construct", "fdd.construct_ms", "fdd.construct_alloc_mb", "fdd.nodes", "count")
	perCall("fdd.resume", "fdd.resume_ms", "", "fdd.rules_reappended", "count")
	perCall("shape.shape", "shape.shape_ms", "shape.alloc_mb", "", "")
	perCall("compare.lockstep", "compare.lockstep_ms", "", "compare.paths_compared", "count")
	perCall("compare.direct", "compare.direct_ms", "", "", "")
	perCall("compare.diff", "compare.diff_ms", "", "", "")

	if job := sumSpans(spans, "jobs.job", true); job.calls > 0 {
		jobMs := job.durUS / 1e3 / float64(job.calls)
		pairMs := mean(t.jobPairMs)
		workers := min(serverJobsWorkers, runtime.GOMAXPROCS(0))
		var retries float64
		for _, r := range t.jobRetries {
			retries += float64(r)
		}
		out["jobs.job_ms"] = metric{jobMs, "ms"}
		out["jobs.pair_ms"] = metric{pairMs, "ms"}
		out["jobs.parallel_efficiency"] = metric{pairMs / (jobMs * float64(workers)), "ratio"}
		out["jobs.retries_per_op"] = metric{retries / float64(job.calls), "count"}
	}
	if sync := sumSpans(spans, "engine.crosscompare", true); sync.calls > 0 {
		out["jobs.sync_ms"] = metric{sync.durUS / 1e3 / float64(sync.calls), "ms"}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// opDurations returns the measured traced ops' root-span durations.
func opDurations(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" && !s.Setup {
			out = append(out, s.dur())
		}
	}
	return out
}

// provenance is what lets two runs show they measured the same thing on
// comparable machines.
type provenance struct {
	Commit       string     `json:"commit"`
	GoVersion    string     `json:"go_version"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	NumCPU       int        `json:"nproc"`
	LoadAvgStart [3]float64 `json:"loadavg_start"`
	LoadAvgEnd   [3]float64 `json:"loadavg_end"`
}

func newProvenance() provenance {
	return provenance{
		Commit:       buildRevision(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		LoadAvgStart: loadAvg(),
	}
}

func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// loadAvg reads the 1, 5 and 15 minute load averages; zeros where
// /proc is unavailable.
func loadAvg() [3]float64 {
	var la [3]float64
	b, err := os.ReadFile("/proc/loadavg")
	if err == nil {
		fmt.Sscan(string(b), &la[0], &la[1], &la[2])
	}
	return la
}

func writeJSONFile(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable writes every metric by name, value and unit, sorted.
func printTable(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-32s %14.4f %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

// pick returns the named metrics, failing if any is missing.
func pick(ms map[string]metric, names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	var missing []string
	for _, n := range names {
		m, ok := ms[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
