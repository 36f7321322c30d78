package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/metrics"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// -update regenerates the corruption fixtures under testdata/journal.
var updateFixtures = flag.Bool("update", false, "rewrite journal corruption fixtures and their golden reports")

// openTestJournal opens a journal with fsync off (tests assert replay
// semantics, not durability against power loss).
func openTestJournal(t *testing.T, dir string) *JournalStore {
	t.Helper()
	s, err := OpenJournal(dir, JournalOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJournalRoundTripAcrossRestart: run a job to completion against a
// journaled store, reopen the directory, and get the same job back —
// state, per-pair statuses, and report contents — without recomputing
// anything.
func TestJournalRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	names, policies := testPolicies(t, 3)

	st, err := OpenJournal(dir, JournalOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, snap.ID)
	if final.State != StateCompleted || final.Progress.OK != 3 {
		t.Fatalf("first life: %+v", final.Progress)
	}
	c.Close()

	st2 := openTestJournal(t, dir)
	rep := st2.RecoveryReport()
	if rep.JobsRecovered != 1 || rep.JobsResumed != 0 || rep.PairsRestored != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CorruptRecordsSkipped != 0 || rep.TornBytesTruncated != 0 || rep.JobsDropped != 0 {
		t.Fatalf("clean log tolerated something: %+v", rep)
	}
	c2 := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st2})
	defer c2.Close()
	got, err := c2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCompleted || got.Progress != final.Progress {
		t.Fatalf("restored = %+v, want %+v", got.Progress, final.Progress)
	}
	for k := range final.Pairs {
		want, have := final.Pairs[k], got.Pairs[k]
		if have.Status != want.Status || have.Name != want.Name || have.Attempts != want.Attempts {
			t.Fatalf("pair %d: %+v vs %+v", k, have, want)
		}
		if want.Report == nil || have.Report == nil {
			t.Fatalf("pair %d lost its report", k)
		}
		if have.Report.Equivalent() != want.Report.Equivalent() ||
			len(have.Report.Discrepancies) != len(want.Report.Discrepancies) ||
			have.Report.PathsCompared != want.Report.PathsCompared {
			t.Fatalf("pair %d report changed across restart", k)
		}
	}
	// The restored job is terminal: its done channel is already closed.
	done, err := c2.Done(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Fatal("restored terminal job's done channel is open")
	}
}

// writeJournalLog writes raw framed records as a journal directory's log.
func writeJournalLog(t *testing.T, dir string, frames []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalLogName), frames, 0o644); err != nil {
		t.Fatal(err)
	}
}

// testSubmitRecord renders n test policies as a crosscompare submit
// record, the shape Submit would have journaled.
func testSubmitRecord(t *testing.T, n int) *submitRecord {
	t.Helper()
	names, policies := testPolicies(t, n)
	sub := &submitRecord{
		Kind:         string(KindCrossCompare),
		Schema:       "",
		Names:        names,
		CreatedNanos: time.Now().UnixNano(),
	}
	for _, p := range policies {
		sub.Policies = append(sub.Policies, rule.FormatPolicy(p))
	}
	for _, pr := range CrossPairs(n) {
		sub.Pairs = append(sub.Pairs, [2]int{pr.I, pr.J})
		sub.PairNames = append(sub.PairNames, names[pr.I]+" vs "+names[pr.J])
	}
	return sub
}

// countPairFires registers a counting no-op fault at the job pair chaos
// point, returning the counter and cleanup.
func countPairFires(t *testing.T) *atomic.Int64 {
	t.Helper()
	var fires atomic.Int64
	remove := chaos.Register(chaos.PointJobPair, func(ctx context.Context) error {
		fires.Add(1)
		return nil
	})
	t.Cleanup(remove)
	return &fires
}

// TestJournalCloseTwiceBatch: a batch-mode journal closes idempotently,
// whether the caller closes it twice or the coordinator closes it first
// and the caller's own deferred Close follows.
func TestJournalCloseTwiceBatch(t *testing.T) {
	st, err := OpenJournal(t.TempDir(), JournalOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	st, err = OpenJournal(t.TempDir(), JournalOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 1, Store: st})
	c.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("Close after Coordinator.Close: %v", err)
	}
}

// TestJournalResumeSkipsSettledPairs is the core durability property: a
// journal holding a submit and one settled pair resumes with exactly
// the unsettled pairs executed — the settled pair's journaled result is
// served, never recomputed.
func TestJournalResumeSkipsSettledPairs(t *testing.T) {
	dir := t.TempDir()
	sub := testSubmitRecord(t, 3)
	var frames []byte
	frames = appendFrame(frames, encodeRecord(&record{Type: recSubmit, Job: "resume-1", Submit: sub}))
	frames = appendFrame(frames, encodeRecord(&record{Type: recSettle, Job: "resume-1", Settle: &settleRecord{
		Pair:         0,
		Status:       string(PairOK),
		Attempts:     1,
		ElapsedNanos: int64(5 * time.Millisecond),
		Report:       &reportRecord{RawPaths: 41, PathsCompared: 41},
	}}))
	writeJournalLog(t, dir, frames)

	fires := countPairFires(t)
	st := openTestJournal(t, dir)
	rep := st.RecoveryReport()
	if rep.JobsRecovered != 1 || rep.JobsResumed != 1 || rep.PairsRestored != 1 {
		t.Fatalf("report = %+v", rep)
	}
	reg := metrics.NewRegistry()
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st, Metrics: reg})
	defer c.Close()
	final := waitJob(t, c, "resume-1")
	if final.State != StateCompleted || final.Progress.OK != 3 {
		t.Fatalf("resumed job = %+v", final.Progress)
	}
	// Pair 0 kept its journaled result: the marker report values prove it
	// was restored, and only the two unsettled pairs touched a worker.
	if r := final.Pairs[0].Report; r == nil || r.RawPaths != 41 || r.PathsCompared != 41 {
		t.Fatalf("pair 0 was recomputed: %+v", final.Pairs[0].Report)
	}
	if got := fires.Load(); got != 2 {
		t.Fatalf("pair executions after resume = %d, want 2", got)
	}
	if got := c.inst.recovered.Value(); got != 1 {
		t.Fatalf("fwjobs_recovered_jobs = %d", got)
	}
	if c.Recovery() == nil || c.Recovery().JobsResumed != 1 {
		t.Fatalf("coordinator recovery report = %+v", c.Recovery())
	}
}

// TestJournalUpperCaseSchemaReplays: a journaled job whose schema name
// is spelled in upper case replays, runs its pairs and journals their
// reports, since the name resolves in any case.
func TestJournalUpperCaseSchemaReplays(t *testing.T) {
	dir := t.TempDir()
	sub := testSubmitRecord(t, 3)
	sub.Schema = "FIVE"
	writeJournalLog(t, dir, appendFrame(nil, encodeRecord(&record{Type: recSubmit, Job: "upper-1", Submit: sub})))
	st := openTestJournal(t, dir)
	if rep := st.RecoveryReport(); rep.JobsRecovered != 1 || rep.JobsResumed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	final := waitJob(t, c, "upper-1")
	c.Close()
	if final.State != StateCompleted || final.Progress.OK != 3 {
		t.Fatalf("replayed job = %+v", final.Progress)
	}

	st = openTestJournal(t, dir)
	c = New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	defer c.Close()
	again := waitJob(t, c, "upper-1")
	for i, pr := range again.Pairs {
		if pr.Status != PairOK || pr.Report == nil || pr.Report.RawPaths != final.Pairs[i].Report.RawPaths {
			t.Fatalf("pair %d did not come back from the journal with its report: %+v", i, pr)
		}
	}
}

// TestJournalCancelRecordRecovery: a cancel record makes the job
// terminal with its unsettled pairs skipped; nothing is re-enqueued.
func TestJournalCancelRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	sub := testSubmitRecord(t, 3)
	now := time.Now()
	var frames []byte
	frames = appendFrame(frames, encodeRecord(&record{Type: recSubmit, Job: "cx-1", Submit: sub}))
	frames = appendFrame(frames, encodeRecord(&record{Type: recSettle, Job: "cx-1", Settle: &settleRecord{
		Pair: 1, Status: string(PairOK), Report: &reportRecord{RawPaths: 7, PathsCompared: 7},
	}}))
	frames = appendFrame(frames, encodeRecord(&record{
		Type: recCancel, Job: "cx-1", State: string(StateCanceled), AtNanos: now.UnixNano(),
	}))
	writeJournalLog(t, dir, frames)

	fires := countPairFires(t)
	st := openTestJournal(t, dir)
	if rep := st.RecoveryReport(); rep.JobsRecovered != 1 || rep.JobsResumed != 0 {
		t.Fatalf("report = %+v", rep)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	defer c.Close()
	snap := waitJob(t, c, "cx-1")
	if snap.State != StateCanceled {
		t.Fatalf("state = %s", snap.State)
	}
	if snap.Progress.OK != 1 || snap.Progress.Skipped != 2 || snap.Progress.Settled != 3 {
		t.Fatalf("progress = %+v", snap.Progress)
	}
	if got := snap.Finished.UnixNano(); got != now.UnixNano() {
		t.Fatalf("finished = %d, want the cancel record's %d", got, now.UnixNano())
	}
	if fires.Load() != 0 {
		t.Fatalf("canceled job executed %d pairs after restart", fires.Load())
	}
}

// TestJournalAllSettledFinalizesOnAdoption: every pair settled but the
// finalize record lost (crash in the settle→finalize window) must
// complete at adoption instead of hanging with no worker left to
// trigger finalization.
func TestJournalAllSettledFinalizesOnAdoption(t *testing.T) {
	dir := t.TempDir()
	sub := testSubmitRecord(t, 2)
	var frames []byte
	frames = appendFrame(frames, encodeRecord(&record{Type: recSubmit, Job: "fin-1", Submit: sub}))
	frames = appendFrame(frames, encodeRecord(&record{Type: recSettle, Job: "fin-1", Settle: &settleRecord{
		Pair: 0, Status: string(PairError), Err: "chaos: injected failure", Attempts: 2,
	}}))
	writeJournalLog(t, dir, frames)

	fires := countPairFires(t)
	st := openTestJournal(t, dir)
	c := New(engine.New(engine.Config{}), Config{Workers: 1, Store: st})
	defer c.Close()
	snap := waitJob(t, c, "fin-1")
	if snap.State != StateCompleted || snap.Progress.Errors != 1 {
		t.Fatalf("snap = %v %+v", snap.State, snap.Progress)
	}
	if snap.Pairs[0].Err == nil || snap.Pairs[0].Err.Error() != "chaos: injected failure" {
		t.Fatalf("restored error = %v", snap.Pairs[0].Err)
	}
	if fires.Load() != 0 {
		t.Fatalf("fully-settled job executed %d pairs", fires.Load())
	}
}

// TestJournalWriteChaosDegradesDurabilityOnly: injected journal write
// failures are counted and absorbed — the job still runs to completion
// through the in-memory path.
func TestJournalWriteChaosDegradesDurabilityOnly(t *testing.T) {
	remove := chaos.Register(chaos.PointJournalWrite, chaos.FailWith(errors.New("disk full")))
	defer remove()

	dir := t.TempDir()
	st := openTestJournal(t, dir)
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	defer c.Close()
	names, policies := testPolicies(t, 2)
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, snap.ID)
	if final.State != StateCompleted || final.Progress.OK != 1 {
		t.Fatalf("job with failing journal = %v %+v", final.State, final.Progress)
	}
	writes, _ := st.JournalErrors()
	if writes == 0 {
		t.Fatal("no journal write errors counted")
	}
}

// TestJournalCompaction: a tiny compaction threshold forces snapshot
// rewrites on every append; the reopened store must rebuild the job
// from the snapshot alone.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournal(dir, JournalOptions{Fsync: FsyncNever, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st})
	names, policies := testPolicies(t, 3)
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, snap.ID)
	c.Close()

	fi, err := os.Stat(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("log size after compaction = %d", fi.Size())
	}
	st2 := openTestJournal(t, dir)
	rep := st2.RecoveryReport()
	if !rep.SnapshotLoaded || rep.JobsRecovered != 1 || rep.PairsRestored != 3 {
		t.Fatalf("report = %+v", rep)
	}
	c2 := New(engine.New(engine.Config{}), Config{Workers: 2, Store: st2})
	defer c2.Close()
	if _, err := c2.Get(snap.ID); err != nil {
		t.Fatal("job missing after snapshot-only recovery")
	}
}

// TestJournalDeleteRecordStopsResurrection: a retention purge's delete
// record keeps the job from coming back on replay.
func TestJournalDeleteRecordStopsResurrection(t *testing.T) {
	dir := t.TempDir()
	st := openTestJournal(t, dir)
	c := New(engine.New(engine.Config{}), Config{Workers: 1, Store: st, Retention: time.Millisecond})
	names, policies := testPolicies(t, 2)
	snap, err := c.Submit(Spec{Kind: KindCrossCompare, Names: names, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, snap.ID)
	time.Sleep(5 * time.Millisecond)
	c.List() // triggers the lazy purge past retention
	if _, err := c.Get(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatal("job not purged")
	}
	c.Close()

	st2 := openTestJournal(t, dir)
	defer st2.Close()
	if rep := st2.RecoveryReport(); rep.JobsRecovered != 0 {
		t.Fatalf("purged job resurrected: %+v", rep)
	}
}

// --- Corruption fixture corpus -------------------------------------

// fixtureDir is the shared corpus under the repo root, exercised here
// and seeded into FuzzJournalReplay.
var fixtureDir = filepath.Join("..", "..", "testdata", "journal")

// journalFixtures builds the corpus deterministically: a fixed base
// journal (one 3-policy crosscompare job, two settled pairs) corrupted
// four ways. Policies come from the seeded synthesizer, times are
// pinned, so -update is reproducible.
func journalFixtures(t *testing.T) map[string][]byte {
	t.Helper()
	names, policies := testPolicies(t, 3)
	sub := &submitRecord{
		Kind:         string(KindCrossCompare),
		Schema:       "five",
		Names:        names,
		Pairs:        [][2]int{{0, 1}, {0, 2}, {1, 2}},
		PairNames:    []string{"p1 vs p2", "p1 vs p3", "p2 vs p3"},
		CreatedNanos: 1700000000000000000,
	}
	for _, p := range policies {
		sub.Policies = append(sub.Policies, rule.FormatPolicy(p))
	}
	var base []byte
	base = appendFrame(base, encodeRecord(&record{Type: recSubmit, Job: "fix-1", Submit: sub}))
	base = appendFrame(base, encodeRecord(&record{Type: recSettle, Job: "fix-1", Settle: &settleRecord{
		Pair: 0, Status: string(PairOK), Attempts: 1, ElapsedNanos: 2500000,
		Report: &reportRecord{RawPaths: 9, PathsCompared: 7},
	}}))
	base = appendFrame(base, encodeRecord(&record{Type: recSettle, Job: "fix-1", Settle: &settleRecord{
		Pair: 1, Status: string(PairError), Err: "chaos: injected failure", Attempts: 3, Quarantined: true,
	}}))
	lastSettle := encodeRecord(&record{Type: recSettle, Job: "fix-1", Settle: &settleRecord{
		Pair: 2, Status: string(PairOK), Attempts: 1,
		Report: &reportRecord{RawPaths: 4, PathsCompared: 4},
	}})

	tornFrame := appendFrame(nil, lastSettle)
	torn := append(append([]byte{}, base...), tornFrame[:len(tornFrame)-5]...)

	badFrame := appendFrame(nil, lastSettle)
	badFrame[frameHeaderLen+2] ^= 0xff // flip a payload byte: CRC now lies
	badCRC := append(append([]byte{}, base...), badFrame...)
	badCRC = appendFrame(badCRC, lastSettle) // a good frame after the bad one still applies

	unknown := append([]byte{}, base...)
	unknown = appendFrame(unknown, []byte(`{"type":"wibble","job":"fix-1"}`))
	unknown = appendFrame(unknown, lastSettle)

	return map[string][]byte{
		"torn-tail":    torn,
		"bad-crc":      badCRC,
		"empty":        nil,
		"unknown-type": unknown,
	}
}

// TestJournalCorruptionFixtures replays each checked-in corrupted
// journal and pins its recovery report against the golden file. The
// fixture is copied to a temp dir first: open-time tail truncation
// must never rewrite the corpus.
func TestJournalCorruptionFixtures(t *testing.T) {
	fixtures := journalFixtures(t)
	if *updateFixtures {
		for name, frames := range fixtures {
			dir := filepath.Join(fixtureDir, name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, journalLogName), frames, 0o644); err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			writeJournalLog(t, tmp, frames)
			s := openTestJournal(t, tmp)
			rep := s.RecoveryReport()
			s.Close()
			body, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "report.json"), append(body, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name := range fixtures {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(fixtureDir, name)
			frames, err := os.ReadFile(filepath.Join(dir, journalLogName))
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update): %v", err)
			}
			goldenRaw, err := os.ReadFile(filepath.Join(dir, "report.json"))
			if err != nil {
				t.Fatalf("missing golden report (regenerate with -update): %v", err)
			}
			var want RecoveryReport
			if err := json.Unmarshal(goldenRaw, &want); err != nil {
				t.Fatal(err)
			}
			tmp := t.TempDir()
			writeJournalLog(t, tmp, frames)
			s := openTestJournal(t, tmp)
			defer s.Close()
			if got := s.RecoveryReport(); got != want {
				t.Fatalf("recovery report:\n got %+v\nwant %+v", got, want)
			}
		})
	}

	// Semantic spot checks beyond the goldens: what each corruption may
	// and may not cost.
	replay := func(name string) (*JournalStore, RecoveryReport) {
		tmp := t.TempDir()
		writeJournalLog(t, tmp, fixtures[name])
		s := openTestJournal(t, tmp)
		t.Cleanup(func() { s.Close() })
		return s, s.RecoveryReport()
	}
	if _, rep := replay("torn-tail"); rep.TornBytesTruncated == 0 || rep.PairsRestored != 2 {
		t.Fatalf("torn-tail: %+v", rep)
	}
	if _, rep := replay("bad-crc"); rep.CorruptRecordsSkipped != 1 || rep.PairsRestored != 3 {
		// The flipped frame is skipped; the good copy after it lands.
		t.Fatalf("bad-crc: %+v", rep)
	}
	if _, rep := replay("empty"); rep != (RecoveryReport{}) {
		t.Fatalf("empty: %+v", rep)
	}
	s, rep := replay("unknown-type")
	if rep.UnknownRecordsSkipped != 1 || rep.PairsRestored != 3 {
		t.Fatalf("unknown-type: %+v", rep)
	}
	c := New(engine.New(engine.Config{}), Config{Workers: 1, Store: s})
	defer c.Close()
	if got, err := c.Get("fix-1"); err != nil || got.Pairs[1].Attempts != 3 || !got.Pairs[1].Quarantined {
		t.Fatalf("quarantine flags lost in replay")
	}
}

// TestJournalTornTailTruncatedOnDisk: open drops the torn bytes from
// the file itself, so the next replay starts at a clean frame boundary.
func TestJournalTornTailTruncatedOnDisk(t *testing.T) {
	fixtures := journalFixtures(t)
	dir := t.TempDir()
	writeJournalLog(t, dir, fixtures["torn-tail"])
	s := openTestJournal(t, dir)
	torn := s.RecoveryReport().TornBytesTruncated
	s.Close()
	fi, err := os.Stat(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(fixtures["torn-tail"]))-torn {
		t.Fatalf("log size %d after truncating %d torn bytes of %d", fi.Size(), torn, len(fixtures["torn-tail"]))
	}
	s2 := openTestJournal(t, dir)
	defer s2.Close()
	if rep := s2.RecoveryReport(); rep.TornBytesTruncated != 0 || rep.PairsRestored != 2 {
		t.Fatalf("second open still torn: %+v", rep)
	}
}

// FuzzJournalReplay: arbitrary journal bytes must never panic replay —
// the worst allowed outcome is a report full of skip counts.
func FuzzJournalReplay(f *testing.F) {
	sub := &submitRecord{
		Kind: string(KindCrossCompare), Schema: "five", Names: []string{"a", "b", "c"},
		Pairs: [][2]int{{0, 1}, {0, 2}, {1, 2}}, PairNames: []string{"x", "y", "z"},
	}
	for i := 0; i < 3; i++ {
		p := synth.Synthetic(synth.Config{Rules: 15, Seed: int64(i + 1)})
		sub.Policies = append(sub.Policies, rule.FormatPolicy(p))
	}
	var valid []byte
	valid = appendFrame(valid, encodeRecord(&record{Type: recSubmit, Job: "f-1", Submit: sub}))
	valid = appendFrame(valid, encodeRecord(&record{Type: recSettle, Job: "f-1", Settle: &settleRecord{Pair: 0, Status: string(PairOK)}}))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(appendFrame(nil, []byte(`{"type":"wibble"}`)))
	f.Add(appendFrame(nil, []byte(`not json`)))
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalLogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenJournal(dir, JournalOptions{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("OpenJournal must tolerate corruption, got %v", err)
		}
		s.Close()
	})
}

// TestJournalBatchBufferReused: batch-mode appends across flush cycles
// alternate between two frame buffers once both have grown to a
// cycle's frames; no flush leaves the next batch to regrow from empty.
// The flusher goroutine is not started, so each cycle's flush is the
// test's own.
func TestJournalBatchBufferReused(t *testing.T) {
	dir := t.TempDir()
	st := openTestJournal(t, dir)
	st.opts.Fsync = FsyncBatch // buffer appends; flushBatch writes them
	const perCycle = 50
	cycle := func(n int) *byte {
		for k := range perCycle {
			st.appendDelete(fmt.Sprintf("job-%04d-%04d", n, k))
		}
		st.jmu.Lock()
		data := unsafe.SliceData(st.buf)
		st.jmu.Unlock()
		st.flushBatch()
		return data
	}
	warm := map[*byte]bool{cycle(0): true, cycle(1): true}
	if len(warm) != 2 {
		t.Fatalf("the first two cycles filled %d buffers, want 2", len(warm))
	}
	for n := 2; n < 10; n++ {
		if data := cycle(n); !warm[data] {
			t.Fatalf("cycle %d appended to a new frame buffer", n)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalLogName))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	if torn := walkFrames(data, func(_ []byte, ok bool) {
		if ok {
			frames++
		}
	}); torn != len(data) || frames != 10*perCycle {
		t.Fatalf("log holds %d valid frames (torn at %d of %d bytes), want %d", frames, torn, len(data), 10*perCycle)
	}
}

// TestJournalBatchAppendsRaceFlusher races batch-mode appends from
// several goroutines against the flusher's ticks, so the race detector
// sees the buffer hand-back; every job journaled comes back on replay.
func TestJournalBatchAppendsRaceFlusher(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenJournal(dir, JournalOptions{Fsync: FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	sub := testSubmitRecord(t, 2)
	const writers, perWriter = 4, 60
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perWriter {
				st.append(&record{Type: recSubmit, Job: fmt.Sprintf("job-%d-%d", w, k), Submit: sub})
				if k%10 == 0 {
					time.Sleep(2 * batchInterval / 3) // let ticks land between appends
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestJournal(t, dir)
	defer re.Close()
	if got := re.RecoveryReport().JobsRecovered; got != writers*perWriter {
		t.Fatalf("replay recovered %d jobs, want %d", got, writers*perWriter)
	}
}
