package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"diversefw/internal/api"
)

// jobPollEvery is how often a job op polls its job.
const jobPollEvery = 5 * time.Millisecond

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// record is one sent op and what came back. The body is kept once per
// distinct content in the runner's store, addressed by sum.
type record struct {
	op     *op
	round  int // -1 for set-up ops
	lat    time.Duration
	status int
	err    error
	sum    [32]byte
}

// runner sends ops to one server, one at a time, and keeps every
// answer for the oracle, which runs after the timed rounds so it never
// competes with the server for CPU.
type runner struct {
	client  *http.Client
	base    string
	bodies  map[[32]byte][]byte
	records []record
}

func newRunner(client *http.Client, base string) *runner {
	return &runner{client: client, base: base, bodies: make(map[[32]byte][]byte)}
}

// do sends one op and blocks until its final answer: the response for a
// synchronous op, the terminal poll for a job.
func (d *runner) do(o *op, round int) record {
	rec := record{op: o, round: round}
	start := time.Now()
	var body []byte
	switch o.kind {
	case opDiff:
		rec.status, body, rec.err = d.post("/v1/diff", o)
	case opImpact:
		rec.status, body, rec.err = d.post("/v1/impact", o)
	case opCross:
		rec.status, body, rec.err = d.post("/v1/crosscompare", o)
	case opJob:
		rec.status, body, rec.err = d.runJob(o)
	}
	rec.lat = time.Since(start)
	rec.sum = sha256.Sum256(body)
	if _, ok := d.bodies[rec.sum]; !ok {
		d.bodies[rec.sum] = body
	}
	d.records = append(d.records, rec)
	return rec
}

func (d *runner) post(path string, o *op) (int, []byte, error) {
	readers := make([]io.Reader, len(o.parts))
	n := 0
	for i, p := range o.parts {
		readers[i] = bytes.NewReader(p)
		n += len(p)
	}
	req, err := http.NewRequest(http.MethodPost, d.base+path, io.MultiReader(readers...))
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = int64(n)
	req.Header.Set("Content-Type", "application/json")
	return d.send(req)
}

func (d *runner) send(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runJob submits a job and polls it until it is terminal. The returned
// body is the terminal snapshot; a non-2xx anywhere ends the op.
func (d *runner) runJob(o *op) (int, []byte, error) {
	status, body, err := d.post("/v1/jobs", o)
	if err != nil || status != http.StatusAccepted {
		return status, body, err
	}
	var snap api.JobStatusResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		return status, body, fmt.Errorf("decode job submit: %w", err)
	}
	for {
		time.Sleep(jobPollEvery)
		req, err := http.NewRequest(http.MethodGet, d.base+"/v1/jobs/"+snap.ID, nil)
		if err != nil {
			return 0, nil, err
		}
		status, body, err = d.send(req)
		if err != nil || status != http.StatusOK {
			return status, body, err
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return status, body, fmt.Errorf("decode job poll: %w", err)
		}
		switch st.State {
		case "completed":
			return status, body, nil
		case "canceled":
			return status, body, fmt.Errorf("job %s canceled", snap.ID)
		}
	}
}

// ok reports whether the op got a 2xx answer without a transport error.
func (r record) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// roundStats is one timed round.
type roundStats struct {
	Ops       int     `json:"ops"`
	OK        int     `json:"ok"`
	WallSec   float64 `json:"wall_s"`
	CPUms     float64 `json:"server_cpu_ms"`
	P50ms     float64 `json:"latency_p50_ms"`
	OpsPerSec float64 `json:"throughput_ops_s"`
	CPUPerOp  float64 `json:"cpu_ms_per_op"`
	// PeakRSSMiB is the server's peak resident set within the round.
	PeakRSSMiB float64 `json:"peak_rss_mb"`
	latencies  []float64
}

// runRounds drives the whole measured schedule closed-loop, split by op
// count into equal rounds: one client sends each op only after the
// previous answer. Every run of a seed sends the same ops, so the
// server's state at each point (cache contents, heap) does not depend on
// how fast the host or the code is: a faster server just ends sooner.
//
// Past limit no further op is sent and capped is set, so a much slower
// server still ends in time; its figures then cover the ops it answered.
//
// between, if not nil, runs after each round, outside its timing.
func runRounds(d *runner, s *schedule, pid int, rounds int, limit time.Duration, between func() error) (out []roundStats, capped bool, err error) {
	begin := time.Now()
	for r := 0; r < rounds && !capped; r++ {
		lo, hi := r*len(s.ops)/rounds, (r+1)*len(s.ops)/rounds
		if lo == hi {
			continue
		}
		if err := resetPeakRSS(pid); err != nil {
			return nil, false, err
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, false, err
		}
		start := time.Now()
		var st roundStats
		for _, o := range s.ops[lo:hi] {
			if time.Since(begin) > limit {
				capped = true
				break
			}
			st.Ops++
			if rec := d.do(o, r); rec.ok() {
				st.OK++
				st.latencies = append(st.latencies, ms(rec.lat))
			}
		}
		wall := time.Since(start)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, false, err
		}
		if st.Ops == 0 {
			break // the limit passed before the round began
		}
		if st.PeakRSSMiB, err = procMemMiB(pid, "VmHWM"); err != nil {
			return nil, false, err
		}
		st.WallSec = wall.Seconds()
		st.CPUms = ms(cpu1 - cpu0)
		st.OpsPerSec = float64(st.OK) / st.WallSec
		st.CPUPerOp = st.CPUms / float64(st.Ops)
		st.P50ms = quantile(st.latencies, 0.5)
		out = append(out, st)
		if between != nil {
			if err := between(); err != nil {
				return nil, false, err
			}
		}
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("no op answered within %v", limit)
	}
	return out, capped, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
