package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diversefw/internal/compare"
	"diversefw/internal/engine"
	"diversefw/internal/fdd"
	"diversefw/internal/field"
	"diversefw/internal/guard"
	"diversefw/internal/interval"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// convertJobSnapshot is the reference the job status writers are held
// to: the job snapshot rendered onto the wire structs. withPairs false
// (listings) drops the per-pair entries.
func convertJobSnapshot(snap jobs.Snapshot, withPairs bool) JobStatusResponse {
	resp := JobStatusResponse{
		ID:       snap.ID,
		Kind:     string(snap.Kind),
		Schema:   snap.SchemaName,
		State:    string(snap.State),
		Policies: snap.Names,
		Progress: JobProgress{
			Total:       snap.Progress.Total,
			Settled:     snap.Progress.Settled,
			OK:          snap.Progress.OK,
			Errors:      snap.Progress.Errors,
			Skipped:     snap.Progress.Skipped,
			Quarantined: snap.Progress.Quarantined,
		},
		TraceID:   snap.TraceID,
		CreatedAt: snap.Created.UTC().Format(time.RFC3339Nano),
	}
	if !snap.Started.IsZero() {
		resp.StartedAt = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		resp.FinishedAt = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if !withPairs {
		return resp
	}
	// The schema name was validated at submission; rendering falls back
	// to raw output only if it somehow stopped resolving.
	schema, _ := field.SchemaByName(snap.SchemaName)
	for _, pr := range snap.Pairs {
		jp := JobPair{
			Name:        pr.Name,
			A:           snap.Names[pr.Pair.I],
			B:           snap.Names[pr.Pair.J],
			Status:      string(pr.Status),
			Attempts:    pr.Attempts,
			Quarantined: pr.Quarantined,
		}
		switch pr.Status {
		case jobs.PairOK:
			eq := pr.Report.Equivalent()
			jp.Equivalent = &eq
			if schema != nil {
				for _, d := range pr.Report.Discrepancies {
					jp.Discrepancies = append(jp.Discrepancies, ConvertDiscrepancy(schema, d))
				}
			}
			jp.ElapsedMillis = float64(pr.Elapsed.Microseconds()) / 1000
		case jobs.PairError:
			jp.Error = convertPairError(pr.Err)
			jp.ElapsedMillis = float64(pr.Elapsed.Microseconds()) / 1000
		}
		resp.Pairs = append(resp.Pairs, jp)
	}
	return resp
}

// referenceCrossCompare is the reference appendCrossCompare is held to:
// the /v1/crosscompare response assembled on the wire structs.
func referenceCrossCompare(schema *field.Schema, names []string, pairs []jobs.PairResult, elapsed float64) CrossCompareResponse {
	resp := CrossCompareResponse{
		Policies:      names,
		Pairs:         make([]CrossPair, 0, len(pairs)),
		AllEquivalent: true,
		ElapsedMillis: elapsed,
	}
	for _, pr := range pairs {
		cell := CrossPair{A: names[pr.Pair.I], B: names[pr.Pair.J]}
		if pr.Err != nil {
			cell.Error = convertPairError(pr.Err)
			resp.FailedPairs++
			resp.AllEquivalent = false
			resp.Pairs = append(resp.Pairs, cell)
			continue
		}
		cell.Equivalent = pr.Report.Equivalent()
		for _, d := range pr.Report.Discrepancies {
			cell.Discrepancies = append(cell.Discrepancies, ConvertDiscrepancy(schema, d))
		}
		if !cell.Equivalent {
			resp.AllEquivalent = false
		}
		resp.Pairs = append(resp.Pairs, cell)
	}
	return resp
}

// referenceJobList is the GET /v1/jobs response on the wire structs.
func referenceJobList(snaps []jobs.Snapshot) JobListResponse {
	resp := JobListResponse{Jobs: []JobStatusResponse{}}
	for _, snap := range snaps {
		resp.Jobs = append(resp.Jobs, convertJobSnapshot(snap, false))
	}
	return resp
}

// encodeReference encodes v as writeJSON does.
func encodeReference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireGen draws random wire content: strings with the characters
// encoding/json escapes, schemas over every field kind, reports, pair
// errors and job snapshots.
type wireGen struct {
	r    *rand.Rand
	text string // a fuzzer-chosen string mixed into names and messages
}

func (g *wireGen) str() string {
	pool := []string{"", "team-a", "x", g.text, "a<b", "a>b", "&amp;", "<script>", "a\u2028b\u2029c", "bad\xff\xfeutf8",
		"quote\"back\\slash\ttab\n", "caf\u00e9 \U0001F525", "ctl\x01\x1f\x7f", "policy 1"}
	return pool[g.r.Intn(len(pool))]
}

func (g *wireGen) schema() *field.Schema {
	for {
		fields := make([]field.Field, 1+g.r.Intn(6))
		for i := range fields {
			f := field.Field{Name: fmt.Sprintf("%s%c", g.str(), 'a'+rune(g.r.Intn(26))), Kind: field.Kind(1 + g.r.Intn(4))}
			switch f.Kind {
			case field.KindIPv4:
				f.Domain = interval.MustNew(0, math.MaxUint32)
			case field.KindPort:
				f.Domain = interval.MustNew(0, 65535)
			case field.KindProto:
				f.Domain = interval.MustNew(0, 255)
			default:
				f.Domain = interval.MustNew(0, uint64(g.r.Intn(1000)))
			}
			fields[i] = f
		}
		if s, err := field.NewSchema(fields...); err == nil {
			return s
		}
	}
}

// set draws a value set within f's domain, biased toward the domain's
// ends so the complemented forms and "*" show.
func (g *wireGen) set(f field.Field) interval.Set {
	hi := f.Domain.Hi
	point := func() uint64 {
		switch g.r.Intn(4) {
		case 0:
			return 0
		case 1:
			return hi
		default:
			return uint64(g.r.Int63n(int64(hi) + 1))
		}
	}
	var ivs []interval.Interval
	for range g.r.Intn(5) {
		lo, up := point(), point()
		if lo > up {
			lo, up = up, lo
		}
		ivs = append(ivs, interval.MustNew(lo, up))
	}
	return interval.NewSet(ivs...)
}

func (g *wireGen) duration() time.Duration {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return time.Duration(g.r.Intn(2000)) // below and around a microsecond
	case 2:
		return time.Duration(g.r.Int63())
	default:
		return time.Duration(g.r.Int63n(int64(time.Second)))
	}
}

func (g *wireGen) report(schema *field.Schema) *compare.Report {
	r := &compare.Report{Timing: compare.Timing{Construct: g.duration(), Shape: g.duration(), Compare: g.duration()}}
	for range g.r.Intn(5) {
		d := compare.Discrepancy{A: rule.Decision(g.r.Intn(6)), B: rule.Decision(g.r.Intn(6))}
		for fi := range schema.NumFields() {
			d.Pred = append(d.Pred, g.set(schema.Field(fi)))
		}
		r.Discrepancies = append(r.Discrepancies, d)
	}
	return r
}

func (g *wireGen) pairError() error {
	switch g.r.Intn(5) {
	case 0:
		return &guard.ErrBudgetExceeded{Kind: guard.KindNodes, Limit: 10, Used: 11}
	case 1:
		return fmt.Errorf("policy %q: %w", g.str(), context.DeadlineExceeded)
	case 2:
		return fmt.Errorf("policy %q: %w", g.str(), fdd.ErrIncomplete)
	case 3:
		return context.Canceled
	default:
		return errors.New(g.str())
	}
}

func (g *wireGen) time() time.Time {
	if g.r.Intn(3) == 0 {
		return time.Time{}
	}
	zone := time.FixedZone("z", 3600*(g.r.Intn(25)-12))
	return time.Unix(g.r.Int63n(4e9), g.r.Int63n(1e9)*int64(g.r.Intn(2))).In(zone)
}

func (g *wireGen) names() []string {
	names := make([]string, 2+g.r.Intn(4))
	for i := range names {
		names[i] = g.str()
	}
	return names
}

func (g *wireGen) snapshot() jobs.Snapshot {
	snap := jobs.Snapshot{
		ID: g.str(), Kind: jobs.Kind(g.str()), State: jobs.State(g.str()),
		SchemaName: []string{"five", "four", "paper", "", "bogus"}[g.r.Intn(5)],
		Names:      g.names(),
		TraceID:    g.str(),
		Progress: jobs.Progress{Total: g.r.Intn(20), Settled: g.r.Intn(20), OK: g.r.Intn(20),
			Errors: g.r.Intn(20), Skipped: g.r.Intn(20), Quarantined: g.r.Intn(20)},
		Created: g.time(), Started: g.time(), Finished: g.time(),
	}
	if g.r.Intn(8) == 0 {
		snap.Names = nil
		return snap
	}
	schema, err := field.SchemaByName(snap.SchemaName)
	if err != nil {
		schema = g.schema() // rows a listing drops unrendered
	}
	statuses := []jobs.PairStatus{jobs.PairPending, jobs.PairRunning, jobs.PairOK, jobs.PairError, jobs.PairSkipped}
	for range g.r.Intn(6) {
		pr := jobs.PairResult{
			Pair:    jobs.Pair{I: g.r.Intn(len(snap.Names)), J: g.r.Intn(len(snap.Names))},
			Name:    g.str(),
			Status:  statuses[g.r.Intn(len(statuses))],
			Elapsed: g.duration(),
			// Retried pairs run more than once; quarantined ones exhausted
			// their retries.
			Attempts:    g.r.Intn(4),
			Quarantined: g.r.Intn(4) == 0,
		}
		switch pr.Status {
		case jobs.PairOK:
			pr.Report = g.report(schema)
		case jobs.PairError:
			if g.r.Intn(6) > 0 {
				pr.Err = g.pairError()
			}
		}
		snap.Pairs = append(snap.Pairs, pr)
	}
	return snap
}

// float draws a float64 from every range encoding/json formats
// differently, never NaN or infinite.
func (g *wireGen) float() float64 {
	for {
		var f float64
		switch g.r.Intn(4) {
		case 0:
			f = math.Float64frombits(g.r.Uint64())
		case 1:
			f = []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, 1e-9, 1.5e-10, 123.456}[g.r.Intn(10)]
		default:
			f = float64(g.r.Int63n(1e12)) / 1000
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// checkWire holds every direct writer to encoding/json of its reference
// struct, byte for byte, on content drawn from seed.
func checkWire(t *testing.T, seed int64, text string) {
	g := &wireGen{r: rand.New(rand.NewSource(seed)), text: text}
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d %s:\n got %s\nwant %s", seed, what, got, want)
		}
	}

	for range 3 {
		f := g.float()
		want, _ := json.Marshal(f)
		same(fmt.Sprintf("float %v", f), appendFloat(nil, f), want)
	}

	schema := g.schema()
	rep := g.report(schema)
	body := appendReport(nil, schema, rep)
	same("diff body", body, referenceBody(t, schema, rep, false))
	cached := append(append([]byte(nil), body[:len(body)-len("}\n")]...), cachedTail...)
	same("cached diff body", cached, referenceBody(t, schema, rep, true))

	names := g.names()
	var pairs []jobs.PairResult
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			pr := jobs.PairResult{Pair: jobs.Pair{I: i, J: j}}
			if g.r.Intn(4) == 0 {
				pr.Err = g.pairError()
			} else {
				pr.Report = g.report(schema)
			}
			pairs = append(pairs, pr)
		}
	}
	elapsed := g.float()
	same("crosscompare body", appendCrossCompare(nil, schema, names, pairs, elapsed),
		encodeReference(t, referenceCrossCompare(schema, names, pairs, elapsed)))

	snaps := make([]jobs.Snapshot, g.r.Intn(4))
	for i := range snaps {
		snaps[i] = g.snapshot()
		same("job status", append(appendJobStatus(nil, snaps[i], true), '\n'),
			encodeReference(t, convertJobSnapshot(snaps[i], true)))
	}
	same("job list", appendJobList(nil, snaps), encodeReference(t, referenceJobList(snaps)))
}

// FuzzWireMatchesReference runs checkWire on arbitrary seeds and text;
// plain go test runs it over the seeds.
func FuzzWireMatchesReference(f *testing.F) {
	for i, text := range []string{"", "plain", "<b>&</b>", "\u2028\u2029", "\xff", "\"\\\n", "\U0001F525"} {
		for seed := range int64(8) {
			f.Add(seed+int64(8*i), text)
		}
	}
	f.Fuzz(checkWire)
}

// roundTrip decodes body strictly (unknown fields disallowed, nothing
// after the value) into v and checks that encoding v again gives body.
func roundTrip(t *testing.T, what string, body []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: strict decode: %v\n%s", what, err, body)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("%s: data after the body: %v", what, err)
	}
	if again := encodeReference(t, v); !bytes.Equal(again, body) {
		t.Fatalf("%s: re-encoded body differs:\n got %s\nwant %s", what, again, body)
	}
}

// TestServedBodiesRoundTrip sends each direct-written body over the
// server's handler and holds it to encoding/json of the api type it
// decodes into: a cold and a cached diff, a cross-comparison with a
// budget-tripped policy, and a job's submit, poll, list and delete.
func TestServedBodiesRoundTrip(t *testing.T) {
	t.Parallel()
	const budget = 50_000 // Adversarial(48) needs ~2.8e5 nodes
	eng := engine.New(engine.Config{Limits: guard.Limits{MaxFDDNodes: budget, MaxEdgeSplits: budget}})
	srv := NewServer(WithEngine(eng), WithJobs(jobs.Config{Workers: 2}))
	defer srv.Close()

	for _, cached := range []bool{false, true} {
		rec := doRec(t, srv, "/v1/diff", DiffRequest{Schema: "five", A: in(fiveA), B: in(fiveB)})
		var resp DiffResponse
		roundTrip(t, "diff", rec.Body.Bytes(), &resp)
		if resp.Cached != cached || resp.Equivalent || len(resp.Discrepancies) == 0 {
			t.Fatalf("diff: cached %v, equivalent %v, %d rows; want cached %v and rows",
				resp.Cached, resp.Equivalent, len(resp.Discrepancies), cached)
		}
	}

	policies := []NamedPolicy{
		{Name: "<ok1>", Policy: in(fiveA)},
		{Name: "ok&2\u2028", Policy: in(fiveB)},
		{Name: "bomb", Policy: in(rule.FormatPolicy(synth.Adversarial(48)))},
	}
	rec := doRec(t, srv, "/v1/crosscompare", CrossCompareRequest{Schema: "five", Policies: policies})
	var cc CrossCompareResponse
	roundTrip(t, "crosscompare", rec.Body.Bytes(), &cc)
	if cc.FailedPairs != 2 || cc.Pairs[0].Error != nil || len(cc.Pairs[0].Discrepancies) == 0 ||
		cc.Pairs[1].Error == nil || cc.Pairs[1].Error.Code != CodePolicyTooComplex {
		t.Fatalf("crosscompare: %d failed pairs, pairs %+v; want the bomb's 2 pairs tripped", cc.FailedPairs, cc.Pairs)
	}

	sub := doRec(t, srv, "/v1/jobs", JobSubmitRequest{Kind: "batchdiff", Schema: "five", Policies: policies,
		Pairs: []JobPairSpec{{Name: "<first>", A: "<ok1>", B: "ok&2\u2028"}, {A: "<ok1>", B: "bomb"}}})
	if sub.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", sub.Code, sub.Body)
	}
	var job JobStatusResponse
	roundTrip(t, "job submit", sub.Body.Bytes(), &job)
	final := pollUntilTerminal(t, srv, job.ID)
	if final.Progress.OK != 1 || final.Progress.Errors != 1 {
		t.Fatalf("job progress %+v, want one ok and one error pair", final.Progress)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, "/v1/jobs/"+job.ID, nil))
		var snap JobStatusResponse
		roundTrip(t, "job "+method, rec.Body.Bytes(), &snap)
		if len(snap.Pairs) != 2 || snap.Pairs[0].Equivalent == nil || len(snap.Pairs[0].Discrepancies) == 0 {
			t.Fatalf("job %s: pairs %+v", method, snap.Pairs)
		}
	}
	list := httptest.NewRecorder()
	srv.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var jl JobListResponse
	roundTrip(t, "job list", list.Body.Bytes(), &jl)
	if len(jl.Jobs) != 1 || jl.Jobs[0].ID != job.ID || jl.Jobs[0].Pairs != nil {
		t.Fatalf("job list %+v, want the one job without pairs", jl.Jobs)
	}
}

// crossComparePairs is a crosscompare benchmark op's content: six
// perturbations of one 40-rule policy and their 15 pair reports.
func crossComparePairs(tb testing.TB) ([]string, []jobs.PairResult) {
	base := synth.RealLife(40, 7)
	policies := make([]*rule.Policy, 6)
	names := make([]string, len(policies))
	for i := range policies {
		policies[i], _ = synth.Perturb(base, 20, int64(i+1))
		names[i] = fmt.Sprintf("team%d", i+1)
	}
	var pairs []jobs.PairResult
	for i := range policies {
		for j := i + 1; j < len(policies); j++ {
			r, err := compare.Diff(policies[i], policies[j])
			if err != nil {
				tb.Fatal(err)
			}
			pairs = append(pairs, jobs.PairResult{Pair: jobs.Pair{I: i, J: j}, Status: jobs.PairOK, Report: r})
		}
	}
	return names, pairs
}

// BenchmarkEncodeCrossCompare encodes one crosscompare body: 15 pairs of
// 40-rule reports, through the reference (ConvertDiscrepancy and
// encoding/json) and through the direct writer. MB/s is body bytes.
func BenchmarkEncodeCrossCompare(b *testing.B) {
	names, pairs := crossComparePairs(b)
	schema := field.IPv4FiveTuple()
	body := appendCrossCompare(nil, schema, names, pairs, 1.5)
	if want := encodeReference(b, referenceCrossCompare(schema, names, pairs, 1.5)); !bytes.Equal(body, want) {
		b.Fatalf("writer body differs from the reference:\n got %s\nwant %s", body, want)
	}
	b.Run("reference", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(referenceCrossCompare(schema, names, pairs, 1.5))
		}
	})
	b.Run("writer", func(b *testing.B) {
		var buf []byte
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			buf = appendCrossCompare(buf[:0], schema, names, pairs, 1.5)
		}
	})
}

// TestCrossCompareBodyShape pins the benchmark's content to what it
// stands for: rows in most of the 15 pairs.
func TestCrossCompareBodyShape(t *testing.T) {
	names, pairs := crossComparePairs(t)
	rows := 0
	for _, pr := range pairs {
		rows += len(pr.Report.Discrepancies)
	}
	if len(pairs) != 15 || rows < 15 {
		t.Fatalf("%d pairs, %d rows; want 15 pairs with rows", len(pairs), rows)
	}
	if !strings.HasPrefix(string(appendCrossCompare(nil, field.IPv4FiveTuple(), names, pairs, 0)), `{"policies":["team1",`) {
		t.Fatal("body does not start with the policy names")
	}
}
