package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"diversefw/internal/api"
	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/guard"
	"diversefw/internal/impact"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/shape"
)

// fwserved's defaults that the traced run mirrors: the per-request work
// budget and the job layer's pool and retry policy. It also mirrors the
// job retention the benchmark starts fwserved with (server.go).
const (
	serverMaxFDDNodes = 2_000_000
	serverJobsWorkers = 4
	serverJobsRetries = 3
	serverJobsBackoff = 50 * time.Millisecond
)

// tracedRun replays a schedule in process on one goroutine, in the
// order fwserved's handlers call the layers, with a harness span around
// each public call. Layers get context.Background(), so no span inside
// the program records anything.
type tracedRun struct {
	rec    *recorder
	ctx    context.Context
	schema *field.Schema
	// measured counts the ops outside set-up.
	measured int

	// What fwserved's engine would hold: reports by request key, the
	// impact base's builder, and (diff-warm) a primed engine for the
	// lookup probe.
	reports map[int]*compare.Report
	base    *fdd.Builder
	eng     *engine.Engine

	coord *jobs.Coordinator
	// jobsRecovered is how many jobs the journal held when it was
	// opened; the replay starts from an empty one, so it is 0.
	jobsRecovered int
	// Per job op: the pairs' summed elapsed time and their retries.
	jobPairMs  []float64
	jobRetries []int
}

func serverEngine() *engine.Engine {
	return engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: serverMaxFDDNodes, MaxEdgeSplits: serverMaxFDDNodes}})
}

// runTraced replays s's set-up ops and then as many measured ops as fit
// in budget, from the start of the schedule.
func runTraced(s *schedule, budget time.Duration, journalDir string) (*tracedRun, error) {
	t := &tracedRun{
		rec:     newRecorder(),
		ctx:     context.Background(),
		schema:  field.IPv4FiveTuple(),
		reports: make(map[int]*compare.Report),
	}
	switch s.workload {
	case wlDiffWarm:
		t.eng = serverEngine()
	case wlCrossCompare:
		// An earlier run's journal would hand its finished jobs back to
		// the store, where they count toward the job cap and make each
		// replay depend on the ones before it.
		if err := os.RemoveAll(journalDir); err != nil {
			return nil, err
		}
		store, err := jobs.OpenJournal(journalDir, jobs.JournalOptions{Fsync: jobs.FsyncBatch})
		if err != nil {
			return nil, err
		}
		t.jobsRecovered = store.RecoveryReport().JobsRecovered
		// The coordinator owns the journal and closes it on Close.
		t.coord = jobs.New(serverEngine(), jobs.Config{Workers: serverJobsWorkers, RetryMax: serverJobsRetries,
			RetryBase: serverJobsBackoff, Retention: jobsRetention, Store: store})
		defer t.coord.Close()
	}
	for k, o := range s.prime {
		if err := t.op(-1-k, o, true); err != nil {
			return nil, fmt.Errorf("traced set-up op %d: %w", k, err)
		}
	}
	deadline := time.Now().Add(budget)
	for i, o := range s.ops {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		if err := t.op(i, o, false); err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	return t, nil
}

func (t *tracedRun) op(idx int, o *op, setup bool) error {
	body := o.body()
	root := t.rec.begin(idx, 0, "op")
	var err error
	var hit [2]*rule.Policy
	switch o.kind {
	case opDiff:
		hit, err = t.diff(idx, root, o, body)
	case opImpact:
		err = t.impactEdit(idx, root, o, body)
	case opCross:
		err = t.crossSync(idx, root, body)
	case opJob:
		err = t.crossJob(idx, root, body)
	}
	t.rec.end(root)
	if setup {
		t.rec.markSetup(idx)
	} else {
		t.measured++
	}
	if err == nil && hit[0] != nil {
		err = t.lookupProbe(idx, hit[0], hit[1])
	}
	return err
}

// call runs fn inside a span under parent and returns the span's ID.
func (t *tracedRun) call(idx, parent int, name string, fn func()) int {
	id := t.rec.begin(idx, parent, name)
	a0 := heapAllocs()
	fn()
	t.rec.end(id)
	t.rec.setAlloc(id, heapAllocs()-a0)
	return id
}

// decode mirrors the handlers' strict body decoding.
func (t *tracedRun) decode(idx, root int, body []byte, v interface{}) error {
	var err error
	t.call(idx, root, "api.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	})
	return err
}

func (t *tracedRun) parse(idx, root int, in api.PolicyInput) (*rule.Policy, error) {
	var p *rule.Policy
	var err error
	t.call(idx, root, "frontend.parse", func() {
		p, err = frontend.Parse(in.Format, t.schema, in.Text, frontend.Options{Chain: in.Chain})
	})
	return p, err
}

func (t *tracedRun) hash(idx, root int, p *rule.Policy) {
	t.call(idx, root, "engine.hash", func() { engine.PolicyHash(p) })
}

func (t *tracedRun) encode(idx, root int, build func() interface{}) {
	t.call(idx, root, "api.encode", func() { json.NewEncoder(io.Discard).Encode(build()) })
}

// construct builds one FDD and records its node count on the span.
func (t *tracedRun) construct(idx, parent int, p *rule.Policy) (*fdd.Builder, error) {
	var b *fdd.Builder
	var err error
	id := t.call(idx, parent, "fdd.construct", func() { b, err = fdd.NewBuilderContext(t.ctx, p) })
	if err != nil {
		return nil, err
	}
	t.rec.setCount(id, int64(b.FDD().Stats().Nodes))
	return b, nil
}

// constructPair builds both sides concurrently, as the engine does. The
// two spans overlap, so their allocations are measured together and
// split evenly.
func (t *tracedRun) constructPair(idx, parent int, pa, pb *rule.Policy) (*fdd.FDD, *fdd.FDD, error) {
	a0 := heapAllocs()
	ida := t.rec.begin(idx, parent, "fdd.construct")
	idb := t.rec.begin(idx, parent, "fdd.construct")
	var bb *fdd.Builder
	var errB error
	done := make(chan struct{})
	go func() {
		defer close(done)
		bb, errB = fdd.NewBuilderContext(t.ctx, pb)
		t.rec.end(idb)
	}()
	ba, err := fdd.NewBuilderContext(t.ctx, pa)
	t.rec.end(ida)
	<-done
	if err == nil {
		err = errB
	}
	if err != nil {
		return nil, nil, err
	}
	half := (heapAllocs() - a0) / 2
	for id, b := range map[int]*fdd.Builder{ida: ba, idb: bb} {
		t.rec.setAlloc(id, half)
		t.rec.setCount(id, int64(b.FDD().Stats().Nodes))
	}
	return ba.FDD(), bb.FDD(), nil
}

// lockstep is the paper's shape-then-compare walk for one pair, under
// one compare.diff span.
func (t *tracedRun) lockstep(idx, root int, fa, fb *fdd.FDD) (*compare.Report, error) {
	id := t.rec.begin(idx, root, "compare.diff")
	defer t.rec.end(id)
	var sa, sb *fdd.FDD
	var err error
	t.call(idx, id, "shape.shape", func() { sa, sb, err = shape.MakeSemiIsomorphicContext(t.ctx, fa, fb) })
	if err != nil {
		return nil, err
	}
	var r *compare.Report
	lid := t.call(idx, id, "compare.lockstep", func() { r, err = compare.CompareSemiIsomorphicContext(t.ctx, sa, sb) })
	if err != nil {
		return nil, err
	}
	t.rec.setCount(lid, int64(r.PathsCompared))
	return r, nil
}

// diff is /v1/diff. Without the pair's report at hand every cache
// misses: it constructs both sides concurrently, shapes and walks. With
// it (diff-warm after priming) both caches hit and the engine only
// hashes and looks up; a hit returns the parsed pair for the lookup
// probe.
func (t *tracedRun) diff(idx, root int, o *op, body []byte) (hit [2]*rule.Policy, err error) {
	var req api.DiffRequest
	if err := t.decode(idx, root, body, &req); err != nil {
		return hit, err
	}
	pa, err := t.parse(idx, root, req.A)
	if err != nil {
		return hit, err
	}
	pb, err := t.parse(idx, root, req.B)
	if err != nil {
		return hit, err
	}
	t.hash(idx, root, pa)
	t.hash(idx, root, pb)
	r, cached := t.reports[o.key]
	if !cached {
		fa, fb, err := t.constructPair(idx, root, pa, pb)
		if err != nil {
			return hit, err
		}
		if r, err = t.lockstep(idx, root, fa, fb); err != nil {
			return hit, err
		}
		t.reports[o.key] = r
		if t.eng != nil {
			// diff-warm's priming also fills the engine the probe uses.
			if _, _, err := t.eng.DiffPolicies(t.ctx, pa, pb); err != nil {
				return hit, err
			}
		}
	}
	t.encode(idx, root, func() interface{} {
		resp := api.ConvertReport(t.schema, r)
		resp.Cached = cached
		return resp
	})
	if cached {
		hit = [2]*rule.Policy{pa, pb}
	}
	return hit, nil
}

// lookupProbe times engine.DiffPolicies on the primed engine, outside
// the op's path: what the engine itself spends answering from cache.
func (t *tracedRun) lookupProbe(idx int, pa, pb *rule.Policy) error {
	var st engine.DiffStats
	var err error
	probe := t.call(idx, 0, "engine.lookup", func() { _, st, err = t.eng.DiffPolicies(t.ctx, pa, pb) })
	t.rec.markProbe(probe)
	if err == nil && !st.ReportCached {
		err = fmt.Errorf("lookup probe missed the report cache")
	}
	return err
}

// impactEdit is /v1/impact with edits against the resident base. A
// repeated script hits the derived-from edge, the compile cache and the
// report cache, so it skips hashing the edited policy, resume and walk.
func (t *tracedRun) impactEdit(idx, root int, o *op, body []byte) error {
	var req api.ImpactRequest
	if err := t.decode(idx, root, body, &req); err != nil {
		return err
	}
	before, err := t.parse(idx, root, req.Before)
	if err != nil {
		return err
	}
	t.hash(idx, root, before)
	if t.base == nil {
		if t.base, err = t.construct(idx, root, before); err != nil {
			return err
		}
	}
	edits := make([]impact.Edit, len(req.Edits))
	t.call(idx, root, "impact.parse", func() {
		for i, line := range req.Edits {
			if edits[i], err = impact.ParseEdit(t.schema, line); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var after *rule.Policy
	t.call(idx, root, "impact.apply", func() { after, err = impact.Apply(before, edits) })
	if err != nil {
		return err
	}
	r, repeat := t.reports[o.key]
	var rs fdd.ResumeStats
	if !repeat {
		t.hash(idx, root, after)
		var nb *fdd.Builder
		id := t.call(idx, root, "fdd.resume", func() { nb, rs, err = t.base.Resume(t.ctx, after) })
		if err != nil {
			return err
		}
		t.rec.setCount(id, int64(rs.RulesReappended))
		did := t.rec.begin(idx, root, "compare.diff")
		t.call(idx, did, "compare.direct", func() { r, err = compare.DiffFDDsDirectContext(t.ctx, t.base.FDD(), nb.FDD()) })
		t.rec.end(did)
		if err != nil {
			return err
		}
		t.reports[o.key] = r
	}
	var atts []impact.Attribution
	t.call(idx, root, "impact.attribute", func() { atts = impact.FromReport(before, after, r).Attribute() })
	t.encode(idx, root, func() interface{} {
		resp := api.ImpactResponse{NoImpact: r.Equivalent(), Incremental: !repeat, RulesReappended: rs.RulesReappended}
		for _, a := range atts {
			resp.Attributions = append(resp.Attributions, api.Attribution{
				Region:     api.ConvertDiscrepancy(t.schema, a.Discrepancy),
				BeforeRule: a.BeforeRule + 1,
				AfterRule:  a.AfterRule + 1,
			})
		}
		return resp
	})
	return nil
}

func (t *tracedRun) parseNamed(idx, root int, named []api.NamedPolicy) ([]string, []*rule.Policy, error) {
	names := make([]string, len(named))
	pols := make([]*rule.Policy, len(named))
	for i, np := range named {
		p, err := t.parse(idx, root, np.Policy)
		if err != nil {
			return nil, nil, err
		}
		names[i], pols[i] = np.Name, p
	}
	return names, pols, nil
}

// crossSync is /v1/crosscompare: every policy hashed and constructed
// once, then each of the N(N-1)/2 pairs shaped and walked. The engine
// part sits under one engine.crosscompare span.
func (t *tracedRun) crossSync(idx, root int, body []byte) error {
	var req api.CrossCompareRequest
	if err := t.decode(idx, root, body, &req); err != nil {
		return err
	}
	names, pols, err := t.parseNamed(idx, root, req.Policies)
	if err != nil {
		return err
	}
	eid := t.rec.begin(idx, root, "engine.crosscompare")
	fdds := make([]*fdd.FDD, len(pols))
	for i, p := range pols {
		t.hash(idx, eid, p)
		b, err := t.construct(idx, eid, p)
		if err != nil {
			return err
		}
		fdds[i] = b.FDD()
	}
	var pairs []compare.PairReport
	for i := range fdds {
		for j := i + 1; j < len(fdds); j++ {
			r, err := t.lockstep(idx, eid, fdds[i], fdds[j])
			if err != nil {
				return err
			}
			pairs = append(pairs, compare.PairReport{I: i, J: j, Report: r})
		}
	}
	t.rec.end(eid)
	t.encode(idx, root, func() interface{} {
		resp := api.CrossCompareResponse{Policies: names, AllEquivalent: true}
		for _, pr := range pairs {
			cell := api.CrossPair{A: names[pr.I], B: names[pr.J], Equivalent: pr.Report.Equivalent()}
			for _, d := range pr.Report.Discrepancies {
				cell.Discrepancies = append(cell.Discrepancies, api.ConvertDiscrepancy(t.schema, d))
			}
			resp.AllEquivalent = resp.AllEquivalent && cell.Equivalent
			resp.Pairs = append(resp.Pairs, cell)
		}
		return resp
	})
	return nil
}

// crossJob is POST /v1/jobs plus polling, collapsed in process into
// Submit and waiting on Done.
func (t *tracedRun) crossJob(idx, root int, body []byte) error {
	var req api.JobSubmitRequest
	if err := t.decode(idx, root, body, &req); err != nil {
		return err
	}
	names, pols, err := t.parseNamed(idx, root, req.Policies)
	if err != nil {
		return err
	}
	var snap jobs.Snapshot
	t.call(idx, root, "jobs.job", func() {
		if snap, err = t.coord.Submit(jobs.Spec{Kind: jobs.KindCrossCompare, SchemaName: "five", Names: names, Policies: pols}); err != nil {
			return
		}
		var done <-chan struct{}
		if done, err = t.coord.Done(snap.ID); err != nil {
			return
		}
		<-done
		snap, err = t.coord.Get(snap.ID)
	})
	if err != nil {
		return err
	}
	if snap.State != jobs.StateCompleted {
		return fmt.Errorf("job %s ended %s", snap.ID, snap.State)
	}
	var pairMs float64
	retries := 0
	for _, pr := range snap.Pairs {
		if pr.Status != jobs.PairOK {
			return fmt.Errorf("job %s pair %s: %s %v", snap.ID, pr.Name, pr.Status, pr.Err)
		}
		pairMs += ms(pr.Elapsed)
		retries += pr.Attempts - 1
	}
	if idx >= 0 {
		t.jobPairMs = append(t.jobPairMs, pairMs)
		t.jobRetries = append(t.jobRetries, retries)
	}
	t.encode(idx, root, func() interface{} {
		resp := api.JobStatusResponse{ID: snap.ID, Kind: string(snap.Kind), Schema: snap.SchemaName,
			State: string(snap.State), Policies: snap.Names, TraceID: snap.TraceID}
		for _, pr := range snap.Pairs {
			eq := pr.Report.Equivalent()
			jp := api.JobPair{Name: pr.Name, A: names[pr.Pair.I], B: names[pr.Pair.J], Status: string(pr.Status),
				Equivalent: &eq, ElapsedMillis: ms(pr.Elapsed), Attempts: pr.Attempts}
			for _, d := range pr.Report.Discrepancies {
				jp.Discrepancies = append(jp.Discrepancies, api.ConvertDiscrepancy(t.schema, d))
			}
			resp.Pairs = append(resp.Pairs, jp)
		}
		return resp
	})
	return nil
}
