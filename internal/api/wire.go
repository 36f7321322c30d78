package api

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"diversefw/internal/compare"
	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/jobs"
	"diversefw/internal/rule"
	"diversefw/internal/trace"
)

// The bodies whose size grows with report rows are written straight into
// a byte slice rather than built as wire structs and encoded by
// reflection: the /v1/diff kept body, the /v1/crosscompare body and
// every job status. Each writer gives, byte for byte, what
// json.NewEncoder(w).Encode gives for the struct its reference
// conversion builds (ConvertReport, ConvertDiscrepancy, and the tests'
// convertJobSnapshot): keys in struct-tag order, a row's "fields" keys
// sorted by name as encoding/json sorts a map's, the same omitempty
// rules, and strings escaped as encoding/json escapes them.

// safeByte marks the bytes encoding/json writes inside a string as
// themselves: printable ASCII other than the quote, the backslash and
// the HTML characters it escapes.
var safeByte = func() (safe [256]bool) {
	for c := range safe {
		safe[c] = plainByte[c] && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s as encoding/json encodes a string. Plain ASCII
// is copied; any other string goes through json.Marshal, which escapes
// control and HTML characters, U+2028 and U+2029, and invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !safeByte[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendStrings appends ss as encoding/json encodes a []string: null
// when nil.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// decimal that round-trips, in exponent form only for very small or very
// large magnitudes, with a one-digit negative exponent unpadded. f is
// never NaN or infinite here (durations in milliseconds).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 becomes e-9
		b = b[:n-1]
	}
	return b
}

// appendTime appends t as the RFC 3339 UTC timestamp the job status
// carries. Its bytes never need escaping.
func appendTime(b []byte, t time.Time) []byte {
	return append(t.UTC().AppendFormat(append(b, '"'), time.RFC3339Nano), '"')
}

// millis is a duration in the wire's milliseconds, at microsecond
// resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// rowSchema is what appendRows needs of a schema, taken once per body:
// its fields in the order a row writes them (sorted by name), each with
// its key encoded.
type rowSchema struct {
	fields []field.Field
	index  []int    // index[k] is fields[k]'s position in the schema
	keys   [][]byte // keys[k] is `"<fields[k].Name>":`
}

func newRowSchema(schema *field.Schema) *rowSchema {
	n := schema.NumFields()
	rs := &rowSchema{fields: make([]field.Field, n), index: make([]int, n), keys: make([][]byte, n)}
	for i := range rs.index {
		rs.index[i] = i
	}
	slices.SortFunc(rs.index, func(i, j int) int {
		return strings.Compare(schema.Field(i).Name, schema.Field(j).Name)
	})
	for k, i := range rs.index {
		rs.fields[k] = schema.Field(i)
		rs.keys[k] = append(appendString(nil, rs.fields[k].Name), ':')
	}
	return rs
}

// appendRows appends rows as encoding/json encodes the []Discrepancy
// ConvertDiscrepancy gives for them, each value set formatted in place.
func appendRows(b []byte, schema *rowSchema, rows []compare.Discrepancy) []byte {
	b = append(b, '[')
	for r, d := range rows {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"fields":{`...)
		first := true
		for k, i := range schema.index {
			if i >= len(d.Pred) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, schema.keys[k]...)
			b = appendValueSet(b, schema.fields[k], d.Pred[i])
		}
		b = appendString(append(b, `},"a":`...), d.A.String())
		b = append(appendString(append(b, `,"b":`...), d.B.String()), '}')
	}
	return append(b, ']')
}

// appendValueSet appends s's text as a JSON string. Value sets render in
// plain ASCII, so the text is formatted in place and checked; only text
// that would need escaping goes through appendString.
func appendValueSet(b []byte, f field.Field, s interval.Set) []byte {
	start := len(b)
	b = rule.AppendValueSet(append(b, '"'), f, s)
	for _, c := range b[start+1:] {
		if !safeByte[c] {
			text := string(b[start+1:])
			return appendString(b[:start], text)
		}
	}
	return append(b, '"')
}

// appendPairError appends a pair's typed failure. Failed pairs are rare,
// so it goes through encoding/json.
func appendPairError(b []byte, err error) []byte {
	q, _ := json.Marshal(convertPairError(err)) // a PairError always marshals
	return append(b, q...)
}

// appendReport appends the /v1/diff body for r with Cached unset:
// encoding ConvertReport(schema, r) gives the same bytes.
func appendReport(b []byte, schema *field.Schema, r *compare.Report) []byte {
	b = strconv.AppendBool(append(b, `{"equivalent":`...), r.Equivalent())
	if len(r.Discrepancies) > 0 {
		b = appendRows(append(b, `,"discrepancies":`...), newRowSchema(schema), r.Discrepancies)
	}
	b = appendFloat(append(b, `,"constructMillis":`...), millis(r.Timing.Construct))
	b = appendFloat(append(b, `,"shapeMillis":`...), millis(r.Timing.Shape))
	b = appendFloat(append(b, `,"compareMillis":`...), millis(r.Timing.Compare))
	return append(b, "}\n"...)
}

// appendCrossCompare appends the /v1/crosscompare body for a run's pairs
// over the named policies. A failed pair carries its error and makes the
// matrix partial and not all-equivalent.
func appendCrossCompare(b []byte, schema *field.Schema, names []string, pairs []jobs.PairResult, elapsed float64) []byte {
	var rs *rowSchema
	all, failed := true, 0
	b = appendStrings(append(b, `{"policies":`...), names)
	b = append(b, `,"pairs":[`...)
	for k, pr := range pairs {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"a":`...), names[pr.Pair.I])
		b = appendString(append(b, `,"b":`...), names[pr.Pair.J])
		if pr.Err != nil {
			b = appendPairError(append(b, `,"equivalent":false,"error":`...), pr.Err)
			failed++
			all = false
		} else {
			eq := pr.Report.Equivalent()
			all = all && eq
			b = strconv.AppendBool(append(b, `,"equivalent":`...), eq)
			if rows := pr.Report.Discrepancies; len(rows) > 0 {
				if rs == nil {
					rs = newRowSchema(schema)
				}
				b = appendRows(append(b, `,"discrepancies":`...), rs, rows)
			}
		}
		b = append(b, '}')
	}
	b = strconv.AppendBool(append(b, `],"allEquivalent":`...), all)
	if failed > 0 {
		b = strconv.AppendInt(append(b, `,"failedPairs":`...), int64(failed), 10)
	}
	b = appendFloat(append(b, `,"elapsedMillis":`...), elapsed)
	return append(b, "}\n"...)
}

// appendJobStatus appends a job snapshot as its JobStatusResponse object,
// with no trailing newline. withPairs false (listings) drops the
// per-pair entries.
func appendJobStatus(b []byte, snap jobs.Snapshot, withPairs bool) []byte {
	b = appendString(append(b, `{"id":`...), snap.ID)
	b = appendString(append(b, `,"kind":`...), string(snap.Kind))
	b = appendString(append(b, `,"schema":`...), snap.SchemaName)
	b = appendString(append(b, `,"state":`...), string(snap.State))
	b = appendStrings(append(b, `,"policies":`...), snap.Names)
	p := snap.Progress
	b = strconv.AppendInt(append(b, `,"progress":{"total":`...), int64(p.Total), 10)
	b = strconv.AppendInt(append(b, `,"settled":`...), int64(p.Settled), 10)
	b = strconv.AppendInt(append(b, `,"ok":`...), int64(p.OK), 10)
	b = strconv.AppendInt(append(b, `,"errors":`...), int64(p.Errors), 10)
	b = strconv.AppendInt(append(b, `,"skipped":`...), int64(p.Skipped), 10)
	b = strconv.AppendInt(append(b, `,"quarantined":`...), int64(p.Quarantined), 10)
	b = append(b, '}')
	if withPairs && len(snap.Pairs) > 0 {
		b = appendJobPairs(append(b, `,"pairs":`...), snap)
	}
	b = appendString(append(b, `,"traceId":`...), snap.TraceID)
	b = appendTime(append(b, `,"createdAt":`...), snap.Created)
	if !snap.Started.IsZero() {
		b = appendTime(append(b, `,"startedAt":`...), snap.Started)
	}
	if !snap.Finished.IsZero() {
		b = appendTime(append(b, `,"finishedAt":`...), snap.Finished)
	}
	return append(b, '}')
}

// appendJobList appends the GET /v1/jobs body listing snaps, without
// their pairs.
func appendJobList(b []byte, snaps []jobs.Snapshot) []byte {
	b = append(b, `{"jobs":[`...)
	for k, snap := range snaps {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendJobStatus(b, snap, false)
	}
	return append(b, "]}\n"...)
}

// appendJobPairs appends a snapshot's pairs as their []JobPair.
func appendJobPairs(b []byte, snap jobs.Snapshot) []byte {
	// The schema name was validated at submission; a pair's rows are
	// left out only if it somehow stopped resolving.
	var rs *rowSchema
	if schema, _ := field.SchemaByName(snap.SchemaName); schema != nil {
		rs = newRowSchema(schema)
	}
	b = append(b, '[')
	for k, pr := range snap.Pairs {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendString(append(b, `{"name":`...), pr.Name)
		b = appendString(append(b, `,"a":`...), snap.Names[pr.Pair.I])
		b = appendString(append(b, `,"b":`...), snap.Names[pr.Pair.J])
		b = appendString(append(b, `,"status":`...), string(pr.Status))
		var elapsed float64
		switch pr.Status {
		case jobs.PairOK:
			b = strconv.AppendBool(append(b, `,"equivalent":`...), pr.Report.Equivalent())
			if rows := pr.Report.Discrepancies; rs != nil && len(rows) > 0 {
				b = appendRows(append(b, `,"discrepancies":`...), rs, rows)
			}
			elapsed = millis(pr.Elapsed)
		case jobs.PairError:
			if pr.Err != nil {
				b = appendPairError(append(b, `,"error":`...), pr.Err)
			}
			elapsed = millis(pr.Elapsed)
		}
		if elapsed != 0 {
			b = appendFloat(append(b, `,"elapsedMillis":`...), elapsed)
		}
		if pr.Attempts != 0 {
			b = strconv.AppendInt(append(b, `,"attempts":`...), int64(pr.Attempts), 10)
		}
		if pr.Quarantined {
			b = append(b, `,"quarantined":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// bodyBufs recycles the buffers direct-written bodies are built in; one
// past maxPooledBody is left to the collector.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// withBody hands use the body build appends to an empty recycled buffer;
// the buffer is reused once use returns.
func withBody(build func([]byte) []byte, use func([]byte)) {
	buf := bodyBufs.Get().(*[]byte)
	body := build((*buf)[:0])
	use(body)
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyBufs.Put(buf)
	}
}

// respondWith writes the body build appends, under an api.encode span as
// respond writes a value.
func respondWith(r *http.Request, w http.ResponseWriter, status int, build func([]byte) []byte) {
	_, sp := trace.Start(r.Context(), "api.encode")
	defer sp.End()
	withBody(build, func(body []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(body)
	})
}
