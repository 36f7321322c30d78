// Package jobs runs cross-comparison work asynchronously. A submitted
// job names a set of policies and a set of comparison pairs; a bounded
// worker pool grinds through the pairs while the client polls for
// status, progress, and partial results, and may cancel at any time.
//
// Why a job API at all: an N-policy cross-comparison is N·(N-1)/2 FDD
// diffs, each potentially exponential in the worst case (PAPER.md
// Sections 3-4). Holding an HTTP request open for that is hostile to
// both sides — the client can't see progress and the server can't
// bound the connection's lifetime. A job decouples the two: submission
// is cheap and immediate, execution is bounded by the coordinator's
// worker pool, and every pair that finishes is visible to the next
// poll even if a sibling pair later trips its budget.
//
// The synchronous /v1/crosscompare endpoint runs its pairs on the same
// workers through Coordinator.Run, which blocks for the caller instead
// of storing a job, so the server has one pair scheduler.
//
// Pairs are sharded across workers by the content hashes of their two
// policies (see shard), so the pairs that share a policy cluster on
// the same worker and walk the engine's content-addressed compile
// cache in a cache-friendly order. Compile-once is not the sharding's
// job — the engine's singleflight already guarantees each distinct
// policy compiles exactly once — sharding keeps the pair stream's
// cache locality high and the per-worker work deterministic.
package jobs

import (
	"errors"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"diversefw/internal/compare"
	"diversefw/internal/rule"
)

// Kind names what a job computes.
type Kind string

const (
	// KindCrossCompare compares every pair among the job's policies.
	KindCrossCompare Kind = "crosscompare"
	// KindBatchDiff compares exactly the pairs the submitter listed.
	KindBatchDiff Kind = "batchdiff"
)

// State is a job's lifecycle phase. Terminal states are StateCompleted
// and StateCanceled; a completed job may still hold per-pair errors —
// those are results, not a job failure.
type State string

const (
	// StateQueued: accepted, no pair has started yet.
	StateQueued State = "queued"
	// StateRunning: at least one pair has started.
	StateRunning State = "running"
	// StateCompleted: every pair settled (ok or error).
	StateCompleted State = "completed"
	// StateCanceled: the client or server shutdown stopped the job;
	// unfinished pairs are skipped, finished pairs keep their results.
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool { return s == StateCompleted || s == StateCanceled }

// PairStatus is one pair's lifecycle phase.
type PairStatus string

const (
	// PairPending: not yet picked up by a worker.
	PairPending PairStatus = "pending"
	// PairRunning: a worker is comparing it now.
	PairRunning PairStatus = "running"
	// PairOK: compared; the report is available.
	PairOK PairStatus = "ok"
	// PairError: the comparison failed (budget trip, compile error,
	// injected fault). The error is available; siblings are unaffected.
	PairError PairStatus = "error"
	// PairSkipped: the job ended before this pair ran.
	PairSkipped PairStatus = "skipped"
)

// Settled reports whether the pair has reached a final status.
func (s PairStatus) Settled() bool {
	return s == PairOK || s == PairError || s == PairSkipped
}

// Pair indexes two policies in a job's policy list (I < J for
// crosscompare; batchdiff pairs are taken as given).
type Pair struct {
	I int
	J int
}

// Spec describes one job at submission. Policies must be parsed and
// schema-checked by the caller; Names parallels Policies. For
// KindBatchDiff the caller lists Pairs (and optionally PairNames,
// parallel to Pairs); for KindCrossCompare both are derived.
type Spec struct {
	Kind       Kind
	SchemaName string
	Names      []string
	Policies   []*rule.Policy
	Pairs      []Pair
	PairNames  []string
}

// PairResult is one pair's current outcome. Exactly one of Report and
// Err is set once Status is ok or error. Attempts counts executions
// including the settling one; Quarantined marks a pair that kept
// failing transiently until the retry budget ran out and was isolated
// as an error entry rather than being retried forever or failing its
// siblings.
type PairResult struct {
	Pair        Pair
	Name        string
	Status      PairStatus
	Report      *compare.Report
	Err         error
	Elapsed     time.Duration
	Attempts    int
	Quarantined bool
}

// Progress counts a job's pairs by outcome. Every field is monotonic
// non-decreasing over a job's lifetime, so a polling client can assert
// it never moves backwards.
type Progress struct {
	Total   int `json:"total"`
	Settled int `json:"settled"`
	OK      int `json:"ok"`
	Errors  int `json:"errors"`
	Skipped int `json:"skipped"`
	// Quarantined counts the subset of Errors that exhausted their
	// retry budget on transient failures.
	Quarantined int `json:"quarantined"`
}

// Snapshot is a point-in-time copy of a job, safe to render after the
// job keeps mutating.
type Snapshot struct {
	ID         string
	Kind       Kind
	State      State
	SchemaName string
	Names      []string
	TraceID    string
	Progress   Progress
	Pairs      []PairResult
	Created    time.Time
	Started    time.Time // zero until the first pair starts
	Finished   time.Time // zero until terminal
}

// ErrNotFound reports an unknown or already-purged job ID.
var ErrNotFound = errors.New("jobs: job not found")

// ErrTooManyJobs reports that the coordinator holds MaxJobs jobs.
var ErrTooManyJobs = errors.New("jobs: too many jobs")

// jobTable is the coordinator's set of stored jobs: a mutex-guarded map
// plus insertion order. It holds references; the coordinator mutates
// jobs in place under their own mutexes.
type jobTable struct {
	mu    sync.Mutex
	byID  map[string]*Job
	order []string
}

func (t *jobTable) put(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byID[j.id] = j
	t.order = append(t.order, j.id)
}

func (t *jobTable) get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// remove deletes the job with the given ID and reports whether it was
// there, so concurrent purges journal one delete record between them.
func (t *jobTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return false
	}
	delete(t.byID, id)
	for i, v := range t.order {
		if v == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	return true
}

// list returns all jobs in insertion order.
func (t *jobTable) list() []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Job, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.byID[id])
	}
	return out
}

func (t *jobTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// shard assigns a comparison pair to one of workers, given the content
// hashes of the pair's two policies: FNV-1a over the sorted pair. It is
// deterministic in (hashes, workers) and returns a value in [0, workers).
// Sorting makes placement symmetric — (A, B) and (B, A) land on the same
// worker — and hashing the pair rather than one side spreads a hub
// policy's N-1 pairs across workers instead of serializing them all
// behind one.
func shard(hashA, hashB string, workers int) int {
	if workers <= 1 {
		return 0
	}
	a, b := hashA, hashB
	if b < a {
		a, b = b, a
	}
	h := fnv.New32a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return int(h.Sum32() % uint32(workers))
}

// CrossPairs enumerates the N·(N-1)/2 pairs among n policies in
// deterministic (i, j) order, i < j — the same order the synchronous
// /v1/crosscompare endpoint reports.
func CrossPairs(n int) []Pair {
	pairs := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, Pair{I: i, J: j})
		}
	}
	return pairs
}

// sortSnapshotsByAge orders job snapshots newest-first for listings.
func sortSnapshotsByAge(snaps []Snapshot) {
	sort.Slice(snaps, func(i, j int) bool {
		return snaps[i].Created.After(snaps[j].Created)
	})
}
