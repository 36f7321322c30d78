package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"time"

	"diversefw/internal/compare"
	"diversefw/internal/field"
	"diversefw/internal/rule"
)

// The journal is a sequence of length+CRC32-framed JSON records, one per
// job lifecycle event. Framing over bare JSON lines because the failure
// mode that matters is a torn write at process death: a length prefix
// tells replay exactly where the next record should end, and the CRC
// tells it whether the bytes inside are the bytes that were written.
// Replay distinguishes the two corruptions the format can express — a
// frame that runs past EOF is a torn tail (truncate, keep everything
// before it), a frame whose checksum fails is bit rot or a torn middle
// (skip it, keep counting) — and recovers everything else.

// Journal record types. submit/settle/cancel/finalize mirror the job
// lifecycle; delete records retention purges so replay does not
// resurrect jobs the coordinator already aged out.
const (
	recSubmit   = "submit"
	recSettle   = "settle"
	recCancel   = "cancel"
	recFinalize = "finalize"
	recDelete   = "delete"
)

// record is one framed journal entry. Exactly one of the type-specific
// payloads is set, keyed by Type.
type record struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Submit is set for recSubmit.
	Submit *submitRecord `json:"submit,omitempty"`
	// Settle is set for recSettle.
	Settle *settleRecord `json:"settle,omitempty"`
	// State and AtNanos are set for recCancel and recFinalize.
	State   string `json:"state,omitempty"`
	AtNanos int64  `json:"at,omitempty"`
}

// submitRecord persists everything needed to rebuild a Job's spec:
// policies round-trip through the rule text format, so the journal is
// self-contained (no reference to request bodies that died with the
// process).
type submitRecord struct {
	Kind         string   `json:"kind"`
	Schema       string   `json:"schema"`
	Names        []string `json:"names"`
	Policies     []string `json:"policies"`
	Pairs        [][2]int `json:"pairs"`
	PairNames    []string `json:"pairNames"`
	CreatedNanos int64    `json:"created"`
}

// settleRecord persists one pair's terminal outcome. The report is
// rendered through the rule text format (parse-backable); the error
// keeps its message but drops its Go type — after a restart a restored
// pair error renders with the generic unprocessable code.
type settleRecord struct {
	Pair         int           `json:"pair"`
	Status       string        `json:"status"`
	Err          string        `json:"err,omitempty"`
	Attempts     int           `json:"attempts,omitempty"`
	Quarantined  bool          `json:"quarantined,omitempty"`
	ElapsedNanos int64         `json:"elapsed,omitempty"`
	Report       *reportRecord `json:"report,omitempty"`
}

// reportRecord is a compare.Report rendered for the journal.
type reportRecord struct {
	RawPaths      int                 `json:"rawPaths"`
	PathsCompared int                 `json:"pathsCompared"`
	Discrepancies []discrepancyRecord `json:"discrepancies,omitempty"`
}

// discrepancyRecord is one discrepancy row: per-field value sets in the
// rule text syntax plus the two decisions.
type discrepancyRecord struct {
	Pred []string `json:"pred"`
	A    string   `json:"a"`
	B    string   `json:"b"`
}

// encodeReport renders a compare.Report for the journal. Timing is not
// persisted: it described a run of a process that no longer exists.
func encodeReport(schema *field.Schema, r *compare.Report) *reportRecord {
	if r == nil {
		return nil
	}
	rr := &reportRecord{RawPaths: r.RawPaths, PathsCompared: r.PathsCompared}
	for _, d := range r.Discrepancies {
		dr := discrepancyRecord{A: d.A.String(), B: d.B.String()}
		for i, s := range d.Pred {
			dr.Pred = append(dr.Pred, rule.FormatValueSet(schema.Field(i), s))
		}
		rr.Discrepancies = append(rr.Discrepancies, dr)
	}
	return rr
}

// decodeReport parses a journaled report back into a compare.Report.
// A discrepancy that fails to parse is dropped rather than failing the
// whole job: RawPaths still records the pre-merge count, and losing a
// row beats losing the job.
func decodeReport(schema *field.Schema, rr *reportRecord) *compare.Report {
	if rr == nil {
		return nil
	}
	r := &compare.Report{RawPaths: rr.RawPaths, PathsCompared: rr.PathsCompared}
	for _, dr := range rr.Discrepancies {
		if len(dr.Pred) != schema.NumFields() {
			continue
		}
		d := compare.Discrepancy{Pred: make(rule.Predicate, len(dr.Pred))}
		ok := true
		for i, text := range dr.Pred {
			s, err := rule.ParseValueSet(schema.Field(i), text)
			if err != nil {
				ok = false
				break
			}
			d.Pred[i] = s
		}
		if !ok {
			continue
		}
		var err error
		if d.A, err = parseDecision(dr.A); err != nil {
			continue
		}
		if d.B, err = parseDecision(dr.B); err != nil {
			continue
		}
		r.Discrepancies = append(r.Discrepancies, d)
	}
	return r
}

// parseDecision is rule.ParseDecision plus the numeric decision#N form
// Decision.String falls back to for non-standard decision sets.
func parseDecision(s string) (rule.Decision, error) {
	if rest, ok := strings.CutPrefix(s, "decision#"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("jobs: bad decision %q", s)
		}
		return rule.Decision(n), nil
	}
	return rule.ParseDecision(s)
}

// Framing: [uint32 payload length][uint32 CRC32 (IEEE) of payload]
// [payload], both integers little-endian.
const (
	frameHeaderLen = 8
	// maxFramePayload bounds one record; anything larger in a length
	// field is corruption, not data (a submit record for 64 maximal
	// policies stays well under this).
	maxFramePayload = 16 << 20
)

// appendFrame frames payload onto dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// walkFrames scans framed data, calling fn for every complete frame with
// its payload and checksum verdict. It returns the offset where a torn
// tail begins: len(data) when the file ends cleanly on a frame boundary,
// earlier when the final frame is incomplete or a length field is
// implausible (once a length can't be trusted, the rest of the stream
// can't be re-synchronized and is treated as torn).
func walkFrames(data []byte, fn func(payload []byte, crcOK bool)) (tornAt int) {
	off := 0
	for {
		if len(data)-off < frameHeaderLen {
			if len(data)-off == 0 {
				return len(data)
			}
			return off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxFramePayload || off+frameHeaderLen+n > len(data) {
			return off
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		fn(payload, crc32.ChecksumIEEE(payload) == want)
		off += frameHeaderLen + n
	}
}

// jobState is the journal's view of one job: exactly the state replay
// produces, maintained live as records are appended so compaction can
// snapshot without touching the coordinator's Job mutexes (which would
// invert the settle-path lock order).
type jobState struct {
	ID       string          `json:"id"`
	Submit   submitRecord    `json:"submit"`
	State    string          `json:"state"`
	Finished int64           `json:"finished,omitempty"`
	Settles  []*settleRecord `json:"settles"`
}

// shadow is the journal's full state: jobStates in insertion order.
type shadow struct {
	order []string
	jobs  map[string]*jobState
}

func newShadow() *shadow { return &shadow{jobs: make(map[string]*jobState)} }

// apply folds one record into the shadow. Idempotent by construction —
// replaying a log over a snapshot that already contains its effects is
// a sequence of no-ops — because compaction's crash window (snapshot
// renamed, log not yet reset) replays exactly that way.
func (sh *shadow) apply(rec *record) error {
	switch rec.Type {
	case recSubmit:
		if rec.Submit == nil {
			return fmt.Errorf("jobs: submit record without body")
		}
		if _, ok := sh.jobs[rec.Job]; ok {
			return nil
		}
		if len(rec.Submit.Names) != len(rec.Submit.Policies) ||
			len(rec.Submit.PairNames) != len(rec.Submit.Pairs) || len(rec.Submit.Pairs) == 0 {
			return fmt.Errorf("jobs: malformed submit record")
		}
		sh.jobs[rec.Job] = &jobState{
			ID:      rec.Job,
			Submit:  *rec.Submit,
			State:   string(StateQueued),
			Settles: make([]*settleRecord, len(rec.Submit.Pairs)),
		}
		sh.order = append(sh.order, rec.Job)
	case recSettle:
		st, ok := sh.jobs[rec.Job]
		if !ok {
			return fmt.Errorf("jobs: settle for unknown job %q", rec.Job)
		}
		if rec.Settle == nil || rec.Settle.Pair < 0 || rec.Settle.Pair >= len(st.Settles) {
			return fmt.Errorf("jobs: settle pair out of range")
		}
		switch PairStatus(rec.Settle.Status) {
		case PairOK, PairError, PairSkipped:
		default:
			return fmt.Errorf("jobs: settle with status %q", rec.Settle.Status)
		}
		if st.Settles[rec.Settle.Pair] != nil {
			return nil
		}
		st.Settles[rec.Settle.Pair] = rec.Settle
		if st.State == string(StateQueued) {
			st.State = string(StateRunning)
		}
	case recCancel, recFinalize:
		st, ok := sh.jobs[rec.Job]
		if !ok {
			return fmt.Errorf("jobs: %s for unknown job %q", rec.Type, rec.Job)
		}
		state := State(rec.State)
		if !state.Terminal() {
			return fmt.Errorf("jobs: %s with non-terminal state %q", rec.Type, rec.State)
		}
		if State(st.State).Terminal() {
			return nil
		}
		// A cancel (and a finalize replayed without its trailing settles)
		// implies every unsettled pair was, or would have been, skipped.
		for k, s := range st.Settles {
			if s == nil {
				st.Settles[k] = &settleRecord{Pair: k, Status: string(PairSkipped)}
			}
		}
		st.State = string(state)
		st.Finished = rec.AtNanos
	case recDelete:
		if _, ok := sh.jobs[rec.Job]; !ok {
			return nil
		}
		delete(sh.jobs, rec.Job)
		for i, id := range sh.order {
			if id == rec.Job {
				sh.order = append(sh.order[:i], sh.order[i+1:]...)
				break
			}
		}
	default:
		return errUnknownRecord
	}
	return nil
}

var errUnknownRecord = fmt.Errorf("jobs: unknown journal record type")

// states returns the shadow's jobStates in insertion order (the
// snapshot body).
func (sh *shadow) states() []*jobState {
	out := make([]*jobState, 0, len(sh.order))
	for _, id := range sh.order {
		out = append(out, sh.jobs[id])
	}
	return out
}

// snapshotFile is the compaction snapshot document.
type snapshotFile struct {
	Version int         `json:"version"`
	Jobs    []*jobState `json:"jobs"`
}

// materialize builds a *Job from a replayed jobState. The returned job
// has its spec, hashes, and settled pairs restored but no context,
// trace, or done channel — the coordinator attaches those when it
// adopts recovered jobs (New → adoptRecovered).
func materialize(st *jobState) (*Job, error) {
	schema, err := field.SchemaByName(st.Submit.Schema)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w in journal", err)
	}
	kind := Kind(st.Submit.Kind)
	if kind != KindCrossCompare && kind != KindBatchDiff {
		return nil, fmt.Errorf("jobs: unknown kind %q in journal", st.Submit.Kind)
	}
	spec := Spec{
		Kind:       kind,
		SchemaName: st.Submit.Schema,
		Names:      st.Submit.Names,
		PairNames:  st.Submit.PairNames,
	}
	n := len(st.Submit.Names)
	for _, p := range st.Submit.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("jobs: pair out of range in journal")
		}
		spec.Pairs = append(spec.Pairs, Pair{I: p[0], J: p[1]})
	}
	for _, text := range st.Submit.Policies {
		p, err := rule.ParsePolicyString(schema, text)
		if err != nil {
			return nil, fmt.Errorf("jobs: journaled policy: %w", err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	j := &Job{
		id:      st.ID,
		spec:    spec,
		created: time.Unix(0, st.Submit.CreatedNanos),
		state:   State(st.State),
		pairs:   make([]PairResult, len(spec.Pairs)),
	}
	for k, p := range spec.Pairs {
		j.pairs[k] = PairResult{Pair: p, Name: spec.PairNames[k], Status: PairPending}
		s := st.Settles[k]
		if s == nil {
			continue
		}
		pr := &j.pairs[k]
		pr.Status = PairStatus(s.Status)
		pr.Attempts = s.Attempts
		pr.Quarantined = s.Quarantined
		pr.Elapsed = time.Duration(s.ElapsedNanos)
		if s.Err != "" {
			pr.Err = &restoredError{msg: s.Err}
		}
		pr.Report = decodeReport(schema, s.Report)
		j.settled++
		switch pr.Status {
		case PairOK:
			j.ok++
		case PairError:
			j.errs++
			if s.Quarantined {
				j.quarantined++
			}
		case PairSkipped:
			j.skipped++
		}
	}
	if j.state == StateRunning || (j.state == StateQueued && j.settled > 0) {
		j.state = StateRunning
		j.started = j.created
	}
	if j.state.Terminal() {
		j.finished = time.Unix(0, st.Finished)
		if st.Finished == 0 {
			j.finished = j.created
		}
		if !j.started.IsZero() || j.settled > 0 {
			j.started = j.created
		}
	}
	return j, nil
}

// restoredError is a pair error read back from the journal: the message
// survives a restart, the Go error type does not.
type restoredError struct{ msg string }

func (e *restoredError) Error() string { return e.msg }

// encodeRecord marshals a record for framing. The records are built by
// this package, so a marshal failure is a bug, not input.
func encodeRecord(rec *record) []byte {
	b, err := json.Marshal(rec)
	if err != nil {
		panic("jobs: journal record marshal: " + err.Error())
	}
	return b
}

// specRecord renders a Spec (plus creation time) as a submit record.
func specRecord(spec Spec, created time.Time) *submitRecord {
	sr := &submitRecord{
		Kind:         string(spec.Kind),
		Schema:       spec.SchemaName,
		Names:        spec.Names,
		PairNames:    spec.PairNames,
		CreatedNanos: created.UnixNano(),
	}
	for _, p := range spec.Policies {
		sr.Policies = append(sr.Policies, rule.FormatPolicy(p))
	}
	for _, p := range spec.Pairs {
		sr.Pairs = append(sr.Pairs, [2]int{p.I, p.J})
	}
	return sr
}
