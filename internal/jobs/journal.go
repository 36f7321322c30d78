package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"diversefw/internal/chaos"
	"diversefw/internal/engine"
	"diversefw/internal/field"
)

// FsyncPolicy is when the journal fsyncs its log file.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every record: no acknowledged lifecycle
	// event is ever lost, at the cost of one fsync per settle.
	FsyncAlways FsyncPolicy = "always"
	// FsyncBatch syncs on a short timer (and at compaction/close): a
	// crash loses at most the last flush interval of records — replay
	// then re-runs those pairs, which is safe, just not free.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncNever leaves syncing to the OS: fastest, and a power loss can
	// lose anything the page cache still held. Process crashes (the
	// common case) lose nothing — the writes are already in the kernel.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy parses the -jobs-fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncBatch, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("jobs: invalid fsync policy %q: use always, batch, or never", s)
}

// JournalOptions configures a JournalStore. The zero value is usable:
// batch fsync, 4 MiB compaction threshold.
type JournalOptions struct {
	// Fsync is the log durability policy (default batch).
	Fsync FsyncPolicy
	// CompactBytes is the log size that triggers snapshot+compaction
	// (default 4 MiB).
	CompactBytes int64
}

// batchInterval is the flush cadence under FsyncBatch: the usual
// group-commit territory. Each fsync costs real kernel CPU that on a
// small host comes straight out of the worker budget, and a tenth of a
// second bounds the worst-case re-run window to a sliver of any real
// job's runtime.
const batchInterval = 100 * time.Millisecond

// RecoveryReport summarizes one journal replay: what was recovered,
// what was resumed, and what the replay had to tolerate. Rendered in
// the /healthz "recovery" block and pinned by the corruption-fixture
// golden tests.
type RecoveryReport struct {
	// JobsRecovered counts jobs rebuilt from the journal, terminal ones
	// included.
	JobsRecovered int `json:"jobsRecovered"`
	// JobsResumed counts recovered jobs that were non-terminal at crash
	// time and were re-enqueued.
	JobsResumed int `json:"jobsResumed"`
	// PairsRestored counts settled pairs restored without recomputation.
	PairsRestored int `json:"pairsRestored"`
	// RecordsApplied counts journal records replayed successfully.
	RecordsApplied int `json:"recordsApplied"`
	// CorruptRecordsSkipped counts frames with a bad checksum or an
	// unusable payload, skipped without aborting replay.
	CorruptRecordsSkipped int `json:"corruptRecordsSkipped"`
	// UnknownRecordsSkipped counts well-formed frames whose record type
	// this build does not know (a newer writer's log).
	UnknownRecordsSkipped int `json:"unknownRecordsSkipped"`
	// TornBytesTruncated is the size of the incomplete tail dropped from
	// the log (a write torn by process death).
	TornBytesTruncated int64 `json:"tornBytesTruncated"`
	// JobsDropped counts jobs whose journal state could not be
	// materialized (unparseable policy text, unknown schema).
	JobsDropped int `json:"jobsDropped"`
	// SnapshotLoaded reports whether a compaction snapshot seeded the
	// replay.
	SnapshotLoaded bool `json:"snapshotLoaded"`
}

const (
	journalLogName  = "journal.log"
	journalSnapName = "snapshot.json"
)

// JournalStore records the coordinator's stored jobs: an append-only
// journal of lifecycle records (submit, settle, cancel, finalize,
// delete) plus a compaction snapshot, so a restarted process rebuilds
// every job and resumes the unfinished ones. It holds no jobs itself;
// the coordinator calls it as each lifecycle event happens.
//
// Journal failures degrade durability, never availability: if an append
// or fsync fails (disk full, injected chaos), the record is counted and
// dropped, the in-memory shadow stays correct, and the next compaction
// rewrites the snapshot from the shadow — the job layer keeps serving.
type JournalStore struct {
	dir  string
	opts JournalOptions

	// jmu serializes shadow mutation, log appends, and compaction. It is
	// taken while a Job's mutex is held (settle → append), so nothing
	// under jmu may take a Job mutex — compaction reads the shadow, not
	// the live jobs, for exactly this reason.
	jmu     sync.Mutex
	f       *os.File
	size    int64
	buf     []byte // FsyncBatch: frames awaiting the flusher's write
	bufRecs int    // records in buf, for write-error accounting
	// spare is the batch buffer the flusher last wrote, handed back
	// for the next swap so a batch does not regrow its buffer from
	// empty; nil while the flusher is writing it.
	spare  []byte
	dirty  bool
	sh     *shadow
	closed bool

	// fmu serializes the file operations that move the log's write
	// offset: the flusher's deferred batch write (which runs without
	// jmu, so settle appends never wait behind a disk write) against
	// compaction's truncate+rewind. Lock order: jmu then fmu, never the
	// reverse.
	fmu sync.Mutex

	flushStop chan struct{}
	flushDone chan struct{}
	stopOnce  sync.Once

	writeErrs atomic.Int64
	syncErrs  atomic.Int64

	report RecoveryReport
	// recovered holds the replayed jobs until a coordinator adopts them
	// in New.
	recovered []*Job
}

// OpenJournal opens (or creates) a journal directory, replays its
// snapshot and log, truncates any torn tail, and returns a store ready
// to hand to jobs.Config.Store. The coordinator adopts the recovered
// jobs when it is constructed; the report stays available via
// Coordinator.Recovery.
func OpenJournal(dir string, opts JournalOptions) (*JournalStore, error) {
	if opts.Fsync == "" {
		opts.Fsync = FsyncBatch
	}
	if _, err := ParseFsyncPolicy(string(opts.Fsync)); err != nil {
		return nil, err
	}
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: journal dir: %w", err)
	}
	s := &JournalStore{
		dir:  dir,
		opts: opts,
		sh:   newShadow(),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalLogName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal log: %w", err)
	}
	// Drop the torn tail on disk too, so the next process's replay
	// starts from a clean frame boundary even if this one never
	// compacts.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: journal log: %w", err)
	}
	valid := st.Size() - s.report.TornBytesTruncated
	if valid < 0 {
		valid = 0
	}
	if valid != st.Size() {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("jobs: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: journal log: %w", err)
	}
	s.f = f
	s.size = valid
	for _, st := range s.sh.states() {
		j, err := materialize(st)
		if err != nil {
			s.report.JobsDropped++
			continue
		}
		j.hashes = make([]string, len(j.spec.Policies))
		for i, p := range j.spec.Policies {
			j.hashes[i] = engine.PolicyHash(p)
		}
		s.report.JobsRecovered++
		s.report.PairsRestored += j.settled
		if !j.state.Terminal() {
			s.report.JobsResumed++
		}
		s.recovered = append(s.recovered, j)
	}
	if opts.Fsync == FsyncBatch {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, nil
}

// replay loads the snapshot (when present) and folds the log into the
// shadow, recording what it had to tolerate.
func (s *JournalStore) replay() error {
	snapPath := filepath.Join(s.dir, journalSnapName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotFile
		if json.Unmarshal(data, &snap) == nil && snap.Version == 1 {
			for _, st := range snap.Jobs {
				if st == nil || st.ID == "" {
					continue
				}
				if _, ok := s.sh.jobs[st.ID]; ok {
					continue
				}
				s.sh.jobs[st.ID] = st
				s.sh.order = append(s.sh.order, st.ID)
			}
			s.report.SnapshotLoaded = true
		} else {
			// A half-written snapshot only survives a crash inside
			// compaction before the atomic rename; treat it as absent.
			s.report.CorruptRecordsSkipped++
		}
	}
	data, err := os.ReadFile(filepath.Join(s.dir, journalLogName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: journal log: %w", err)
	}
	tornAt := walkFrames(data, func(payload []byte, crcOK bool) {
		if !crcOK {
			s.report.CorruptRecordsSkipped++
			return
		}
		var rec record
		if json.Unmarshal(payload, &rec) != nil {
			s.report.CorruptRecordsSkipped++
			return
		}
		switch err := s.sh.apply(&rec); {
		case err == nil:
			s.report.RecordsApplied++
		case errors.Is(err, errUnknownRecord):
			s.report.UnknownRecordsSkipped++
		default:
			s.report.CorruptRecordsSkipped++
		}
	})
	s.report.TornBytesTruncated = int64(len(data) - tornAt)
	return nil
}

// flusher is the FsyncBatch loop: each tick flushes the buffered
// frames (flushBatch).
func (s *JournalStore) flusher() {
	defer close(s.flushDone)
	t := time.NewTicker(batchInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.flushBatch()
		case <-s.flushStop:
			return
		}
	}
}

// flushBatch swaps the buffered frames out under jmu (a slice exchange
// with the spare buffer), then writes and fsyncs them with no locks
// held. A worker's settle append in batch mode therefore never enters
// the kernel and never waits behind a disk operation — holding jmu
// across the write or the fsync, or even letting appends share the log
// inode's in-kernel lock with an in-flight fsync, each measured as
// double-digit percent overhead on the crosscompare benchmark. The
// written buffer comes back as the spare once the write is done, so the
// two buffers alternate and a buffer being written is never appended to.
func (s *JournalStore) flushBatch() {
	s.jmu.Lock()
	if !s.dirty || s.closed {
		s.jmu.Unlock()
		return
	}
	// Clear before syncing: appends racing the fsync re-mark dirty,
	// fill the spare buffer, and are covered by the next tick.
	s.dirty = false
	buf, recs := s.buf, s.bufRecs
	s.buf, s.bufRecs, s.spare = s.spare[:0], 0, nil
	s.jmu.Unlock()
	s.writeFrames(buf, recs)
	s.jmu.Lock()
	s.spare = buf
	s.jmu.Unlock()
	s.sync()
}

// writeFrames writes a swapped-out batch buffer to the log. A failed
// write drops the whole buffer and counts every record in it — the same
// degrade-durability-not-availability contract as a failed inline
// append. fmu keeps the write offset out from under a concurrent
// compaction; a batch the flusher swapped out before a compaction
// landed is then appended to the fresh log, where replay treats its
// records as the idempotent no-ops they are (the snapshot already
// includes them).
func (s *JournalStore) writeFrames(buf []byte, recs int) {
	if len(buf) == 0 {
		return
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if _, err := s.f.Write(buf); err != nil {
		s.writeErrs.Add(int64(recs))
	}
}

// Close flushes and closes the log. The coordinator calls it from
// Coordinator.Close after the workers have drained. Closing twice is a
// no-op, in every fsync policy.
func (s *JournalStore) Close() error {
	if s.flushStop != nil {
		s.stopOnce.Do(func() { close(s.flushStop) })
		<-s.flushDone
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.writeFrames(s.buf, s.bufRecs)
	s.buf, s.bufRecs, s.spare = nil, 0, nil
	if s.dirty {
		s.sync()
	}
	return s.f.Close()
}

// append journals one record: fold it into the shadow, frame it, write,
// sync per policy, compact past the threshold. Journal write failures
// (including injected chaos at PointJournalWrite/PointJournalFsync) are
// counted and absorbed — see the type comment.
func (s *JournalStore) append(rec *record) {
	payload := encodeRecord(rec)
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if err := s.sh.apply(rec); err != nil {
		// Records are built from live jobs; an unappliable one is a bug.
		panic("jobs: journal append: " + err.Error())
	}
	if s.closed {
		return
	}
	if err := chaos.Fire(context.Background(), chaos.PointJournalWrite); err != nil {
		s.writeErrs.Add(1)
		return
	}
	if s.opts.Fsync == FsyncBatch {
		// Frame straight into the buffer instead of writing: the flusher
		// issues both the write and the fsync, so the append path stays
		// syscall-free (see flusher). The loss window is unchanged —
		// batch mode already promises only "at most the last flush
		// interval".
		n := len(s.buf)
		s.buf = appendFrame(s.buf, payload)
		s.bufRecs++
		s.size += int64(len(s.buf) - n)
		s.dirty = true
	} else {
		frame := appendFrame(nil, payload)
		if _, err := s.f.Write(frame); err != nil {
			s.writeErrs.Add(1)
			return
		}
		s.size += int64(len(frame))
		if s.opts.Fsync == FsyncAlways {
			s.sync()
		}
	}
	if s.size >= s.opts.CompactBytes {
		s.compactLocked()
	}
}

// sync fsyncs the log. Safe with or without jmu: it touches only the
// fd (os.File is safe for concurrent use) and atomic error counters.
func (s *JournalStore) sync() {
	if err := chaos.Fire(context.Background(), chaos.PointJournalFsync); err != nil {
		s.syncErrs.Add(1)
		return
	}
	if err := s.f.Sync(); err != nil {
		s.syncErrs.Add(1)
	}
}

// compactLocked writes the shadow as a snapshot and resets the log.
// Crash safety: the snapshot lands via write-tmp/fsync/rename before
// the log is truncated, and shadow application is idempotent, so a
// crash between the rename and the truncate replays the old log over
// the new snapshot as no-ops.
func (s *JournalStore) compactLocked() {
	body, err := json.Marshal(snapshotFile{Version: 1, Jobs: s.sh.states()})
	if err != nil {
		return
	}
	tmp := filepath.Join(s.dir, journalSnapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	_, werr := f.Write(body)
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		s.writeErrs.Add(1)
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, journalSnapName)); err != nil {
		s.writeErrs.Add(1)
		os.Remove(tmp)
		return
	}
	// The snapshot was built from the shadow, which already includes any
	// buffered batch-mode records — discard them rather than writing
	// pre-snapshot frames into the fresh log.
	s.buf = s.buf[:0]
	s.bufRecs = 0
	s.fmu.Lock()
	terr := s.f.Truncate(0)
	var seekErr error
	if terr == nil {
		_, seekErr = s.f.Seek(0, io.SeekStart)
	}
	s.fmu.Unlock()
	if terr != nil || seekErr != nil {
		s.writeErrs.Add(1)
		return
	}
	s.size = 0
	if s.opts.Fsync != FsyncNever {
		s.sync()
		s.dirty = false
	}
}

// appendSubmit journals a newly submitted job. Called from Submit
// before the job is stored or fed to workers, so its fields are safe to
// read without its mutex.
func (s *JournalStore) appendSubmit(j *Job) {
	s.append(&record{Type: recSubmit, Job: j.id, Submit: specRecord(j.spec, j.created)})
}

// appendDelete journals a retention purge, so replay does not bring the
// job back.
func (s *JournalStore) appendDelete(id string) {
	s.append(&record{Type: recDelete, Job: id})
}

// appendSettle journals pair k's outcome. Called from settle with j.mu
// held, so it reads the pair directly and must not touch other jobs.
func (s *JournalStore) appendSettle(j *Job, k int) {
	pr := &j.pairs[k]
	sr := &settleRecord{
		Pair:         k,
		Status:       string(pr.Status),
		Attempts:     pr.Attempts,
		Quarantined:  pr.Quarantined,
		ElapsedNanos: int64(pr.Elapsed),
	}
	if pr.Err != nil {
		sr.Err = pr.Err.Error()
	}
	if pr.Report != nil {
		if schema, err := field.SchemaByName(j.spec.SchemaName); err == nil {
			sr.Report = encodeReport(schema, pr.Report)
		}
	}
	s.append(&record{Type: recSettle, Job: j.id, Settle: sr})
}

// appendFinal journals a job reaching a terminal state: a cancel record
// when canceled (it implies skipping the unsettled pairs), a finalize
// record when every pair settled on its own.
func (s *JournalStore) appendFinal(j *Job, state State, at time.Time) {
	typ := recFinalize
	if state == StateCanceled {
		typ = recCancel
	}
	s.append(&record{Type: typ, Job: j.id, State: string(state), AtNanos: at.UnixNano()})
}

// RecoveryReport returns what this store's open-time replay recovered
// and tolerated.
func (s *JournalStore) RecoveryReport() RecoveryReport { return s.report }

// JournalErrors returns how many journal writes and fsyncs have been
// dropped since open (durability degradation, not job failures).
func (s *JournalStore) JournalErrors() (writes, syncs int64) {
	return s.writeErrs.Load(), s.syncErrs.Load()
}

// SettleRef identifies one settle record in a journal log: which job,
// which pair. Exposed for tests and the scenario runner, which assert
// that no pair is ever settled twice across a crash+restart.
type SettleRef struct {
	Job  string
	Pair int
}

// ScanSettles reads a journal directory's log (not its snapshot) and
// returns every settle record's reference in order, bad frames skipped.
func ScanSettles(dir string) ([]SettleRef, error) {
	data, err := os.ReadFile(filepath.Join(dir, journalLogName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var refs []SettleRef
	walkFrames(data, func(payload []byte, crcOK bool) {
		if !crcOK {
			return
		}
		var rec record
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if rec.Type == recSettle && rec.Settle != nil {
			refs = append(refs, SettleRef{Job: rec.Job, Pair: rec.Settle.Pair})
		}
	})
	return refs, nil
}
