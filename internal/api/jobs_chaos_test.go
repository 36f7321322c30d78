package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/guard"
	"diversefw/internal/jobs"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// TestJobsChaos drives a fleet of concurrent async jobs through a real
// TCP server while faults fire underneath: injected latency on the
// worker right before a pair runs, forced budget exhaustion mid-diff,
// and hard diff failures — with random mid-flight DELETEs mixed in.
// It then asserts the job subsystem degraded instead of wedging:
//
//   - every job reaches a terminal state (no orphaned jobs),
//   - progress is monotonic on every poll and pairs never overshoot,
//   - failed pairs coexist with completed siblings in the same job
//     (per-pair isolation survives the fault cocktail),
//   - canceled jobs settle every pair as skipped-or-done, including
//     pairs that were in flight when the DELETE landed, and
//   - after srv.Close() the goroutine count returns to baseline.
//
// scripts/check.sh runs this with -race -count=1.
func TestJobsChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	base := runtime.NumGoroutine()

	eng := engine.New(engine.Config{
		Limits: guard.Limits{MaxFDDNodes: 200_000, MaxEdgeSplits: 200_000},
	})
	srv := NewServer(
		WithEngine(eng),
		WithMetrics(metrics.NewRegistry()),
		WithJobs(jobs.Config{Workers: 4, Retention: time.Hour}),
	)
	ts := httptest.NewServer(srv)

	// Fault cocktail: latency stretches pairs out so cancellation can
	// catch them in flight; budget and diff faults make pairs fail so
	// error isolation is exercised alongside successes.
	// The jobs.pair failure matters most: diff-walk faults only fire on
	// cache misses, and with a small policy pool the caches warm up
	// quickly — the per-pair hook keeps failing pairs for the whole run.
	walkFault := &flakyFault{n: 9, inner: chaos.ExhaustBudget(guard.KindNodes)}
	removes := []func(){
		chaos.Register(chaos.PointJobPair, (&flakyFault{n: 3, inner: chaos.Latency(5 * time.Millisecond)}).fire),
		chaos.Register(chaos.PointJobPair, (&flakyFault{n: 5, inner: chaos.FailWith(fmt.Errorf("injected: pair worker down"))}).fire),
		chaos.Register(chaos.PointDirectWalk, walkFault.fire),
		chaos.Register(chaos.PointDiff, (&flakyFault{n: 7, inner: chaos.FailWith(fmt.Errorf("injected: diff backend down"))}).fire),
	}
	defer func() {
		for _, rm := range removes {
			rm()
		}
	}()

	// A pool of small distinct policies; each job cross-compares a
	// random slice so compiles, cache hits, and shard placement mix.
	pool := make([]NamedPolicy, 8)
	for i := range pool {
		pool[i] = NamedPolicy{
			Name:   fmt.Sprintf("p%d", i+1),
			Policy: in(rule.FormatPolicy(synth.Synthetic(synth.Config{Rules: 12, Seed: int64(i + 1)}))),
		}
	}

	httpGet := func(client *http.Client, id string) (JobStatusResponse, error) {
		var snap JobStatusResponse
		resp, err := client.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			return snap, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return snap, fmt.Errorf("get %s: status %d: %s", id, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &snap); err != nil {
			return snap, fmt.Errorf("get %s: %v", id, err)
		}
		return snap, nil
	}

	const clients = 8
	const jobsPerClient = 4
	var wg sync.WaitGroup
	problems := make(chan string, clients*jobsPerClient*4)
	var canceledJobs, completedJobs, failedPairJobs int64
	var tally sync.Mutex
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := &http.Client{}
			for i := 0; i < jobsPerClient; i++ {
				// 3..6 policies from a random window of the pool.
				n := 3 + rng.Intn(4)
				lo := rng.Intn(len(pool) - n + 1)
				body, _ := json.Marshal(JobSubmitRequest{
					Schema: "five", Policies: pool[lo : lo+n],
				})
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
				if err != nil {
					problems <- "submit transport: " + err.Error()
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					problems <- fmt.Sprintf("submit status %d: %s", resp.StatusCode, raw)
					continue
				}
				var snap JobStatusResponse
				if err := json.Unmarshal(raw, &snap); err != nil || snap.ID == "" {
					problems <- fmt.Sprintf("submit body: %v: %s", err, raw)
					continue
				}

				// Half the jobs get a DELETE racing their execution.
				cancelAfter := -1
				if rng.Intn(2) == 0 {
					cancelAfter = rng.Intn(8)
				}
				var prev JobProgress
				deadline := time.Now().Add(30 * time.Second)
				poll := 0
				for {
					if poll == cancelAfter {
						req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
						dresp, err := client.Do(req)
						if err != nil {
							problems <- "cancel transport: " + err.Error()
						} else {
							io.Copy(io.Discard, dresp.Body)
							dresp.Body.Close()
							if dresp.StatusCode != http.StatusOK {
								problems <- fmt.Sprintf("cancel status %d", dresp.StatusCode)
							}
						}
					}
					cur, err := httpGet(client, snap.ID)
					if err != nil {
						problems <- err.Error()
						break
					}
					p := cur.Progress
					if p.Settled < prev.Settled || p.OK < prev.OK || p.Errors < prev.Errors || p.Skipped < prev.Skipped {
						problems <- fmt.Sprintf("job %s progress went backwards: %+v after %+v", snap.ID, p, prev)
						break
					}
					if p.Settled > p.Total {
						problems <- fmt.Sprintf("job %s progress overshot: %+v", snap.ID, p)
						break
					}
					prev = p
					if cur.State == "completed" || cur.State == "canceled" {
						if p.Settled != p.Total {
							problems <- fmt.Sprintf("job %s terminal (%s) with unsettled pairs: %+v", snap.ID, cur.State, p)
						}
						for _, pr := range cur.Pairs {
							switch pr.Status {
							case "ok":
								if pr.Equivalent == nil || pr.Error != nil {
									problems <- fmt.Sprintf("job %s ok pair %q malformed: %+v", snap.ID, pr.Name, pr)
								}
							case "error":
								if pr.Error == nil || pr.Error.Code == "" {
									problems <- fmt.Sprintf("job %s error pair %q has no typed error: %+v", snap.ID, pr.Name, pr)
								}
							case "skipped":
								if cur.State != "canceled" {
									problems <- fmt.Sprintf("job %s skipped pair %q outside cancellation", snap.ID, pr.Name)
								}
							default:
								problems <- fmt.Sprintf("job %s terminal with non-settled pair %q: %s", snap.ID, pr.Name, pr.Status)
							}
						}
						tally.Lock()
						switch {
						case cur.State == "canceled":
							canceledJobs++
						case p.Errors > 0 && p.OK > 0:
							failedPairJobs++
							completedJobs++
						default:
							completedJobs++
						}
						tally.Unlock()
						break
					}
					if time.Now().After(deadline) {
						problems <- fmt.Sprintf("job %s never reached a terminal state: %+v", snap.ID, cur)
						break
					}
					poll++
					time.Sleep(time.Millisecond)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(problems)
	bad := 0
	for p := range problems {
		bad++
		if bad <= 10 {
			t.Error(p)
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more problems", bad-10)
	}

	// The storm must have exercised both sides of the isolation story:
	// some jobs finished, and at least one completed job mixed failed
	// pairs with successful siblings. (Faults fire on 1/9 diff walks and
	// 1/7 diffs over ~32 jobs; a run where none lands means the fault
	// plumbing is broken, not that we got lucky.)
	if completedJobs == 0 {
		t.Error("no jobs completed under chaos")
	}
	if walkFault.hits() == 0 {
		t.Error("the diff-walk budget fault never fired: no pair tripped its budget mid-diff")
	}
	if failedPairJobs == 0 {
		t.Error("no completed job mixed failed and successful pairs — error isolation untested")
	}

	// Every job the server still remembers is terminal — nothing orphaned
	// in queued/running limbo after the clients walked away.
	for _, snap := range srv.Jobs().List() {
		if !snap.State.Terminal() {
			t.Errorf("orphaned job %s in state %s after storm", snap.ID, snap.State)
		}
	}

	// Lift the faults; a clean job straight through proves no poisoned
	// state survived (the compile cache rejects fault-tainted entries).
	for _, rm := range removes {
		rm()
	}
	removes = nil
	clean := submitJob(t, srv, JobSubmitRequest{
		Schema:   "paper",
		Policies: []NamedPolicy{{Name: "a", Policy: in(teamA)}, {Name: "b", Policy: in(teamB)}},
	})
	final := pollUntilTerminal(t, srv, clean.ID)
	if final.State != "completed" || final.Progress.OK != 1 {
		t.Fatalf("post-storm job = %+v", final)
	}
	if p := final.Pairs[0]; p.Equivalent == nil || *p.Equivalent || len(p.Discrepancies) != 3 {
		t.Fatalf("post-storm pair corrupted: %+v", final.Pairs[0])
	}

	ts.Close()
	srv.Close()
	settleGoroutines(t, base)
}
