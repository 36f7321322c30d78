package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"diversefw/internal/rule"
	"diversefw/internal/synth"
)

// referenceDecodeInto is decodeInto as it was before bodies were read
// once and walked in one pass: a json.Decoder over the size-bounded body
// with unknown fields disallowed, then a second Decode to reject
// trailing data. FuzzDecodeMatchesReference holds decodeInto to it.
func referenceDecodeInto(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("trailing data after JSON body")
		}
		writeBodyError(w, err)
		return false
	}
	return true
}

// decodeTargets are the request types of the POST endpoints, one each.
var decodeTargets = []struct {
	name string
	new  func() any
}{
	{"diff", func() any { return new(DiffRequest) }},
	{"impact", func() any { return new(ImpactRequest) }},
	{"audit", func() any { return new(AuditRequest) }},
	{"analyze", func() any { return new(AnalyzeRequest) }},
	{"resolve", func() any { return new(ResolveRequest) }},
	{"query", func() any { return new(QueryRequest) }},
	{"crosscompare", func() any { return new(CrossCompareRequest) }},
	{"jobs", func() any { return new(JobSubmitRequest) }},
}

// runDecode posts body through decode into v.
func runDecode(decode func(http.ResponseWriter, *http.Request, interface{}) bool, body []byte, v any) (*httptest.ResponseRecorder, bool) {
	req := httptest.NewRequest(http.MethodPost, "/v1/x", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	return rec, decode(rec, req, v)
}

// policies returns every PolicyInput in v, a pointer to a request
// struct, in walk order.
func policies(v any) []*PolicyInput {
	var ps []*PolicyInput
	var walk func(rv reflect.Value)
	walk = func(rv reflect.Value) {
		switch {
		case rv.Type() == reflect.TypeFor[PolicyInput]():
			ps = append(ps, rv.Addr().Interface().(*PolicyInput))
		case rv.Kind() == reflect.Struct:
			for i := range rv.NumField() {
				walk(rv.Field(i))
			}
		case rv.Kind() == reflect.Slice:
			for i := range rv.Len() {
				walk(rv.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(v).Elem())
	return ps
}

// policyFields replaces every PolicyInput in v, a pointer to a request
// struct, by its decoded fields and text, and returns the raw bytes each
// held, in walk order. decodeInto keeps a bare string's token as a view
// into the body where the reference keeps a copy; the two must come to
// the same text and carry the same value bytes, the alias key.
func policyFields(v any) [][]byte {
	var raws [][]byte
	for _, p := range policies(v) {
		raws = append(raws, p.raw)
		*p = PolicyInput{Format: p.Format, Text: p.Text, Chain: p.Chain}
	}
	return raws
}

// decodeSettled is decodeDeferred with every pending policy token
// settled at once into the request's policies, as a handler settles them
// before it parses.
func decodeSettled(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	var pend pendingTokens
	return decodeDeferred(w, r, v, &pend) && settled(r.Context(), w, &pend)
}

// checkDecode holds decodeInto to referenceDecodeInto on body, for every
// request type: the same accept or reject, status and error code, the
// bad-request prefix on a rejection, and on accept deeply equal values
// once every policy is compared by its fields, text and value bytes. It
// holds decodeSettled to decodeInto: the same answer, message included,
// and the same values.
func checkDecode(t *testing.T, body []byte) {
	for _, target := range decodeTargets {
		got, want, deferred := target.new(), target.new(), target.new()
		grec, gok := runDecode(decodeInto, body, got)
		wrec, wok := runDecode(referenceDecodeInto, body, want)
		if gok != wok || grec.Code != wrec.Code {
			t.Fatalf("%s %q: decodeInto ok=%v status %d %s; reference ok=%v status %d %s",
				target.name, body, gok, grec.Code, grec.Body, wok, wrec.Code, wrec.Body)
		}
		drec, dok := runDecode(decodeSettled, body, deferred)
		if dok != gok || drec.Code != grec.Code || !bytes.Equal(drec.Body.Bytes(), grec.Body.Bytes()) {
			t.Fatalf("%s %q: settled deferred decode ok=%v status %d %s; decodeInto ok=%v status %d %s",
				target.name, body, dok, drec.Code, drec.Body, gok, grec.Code, grec.Body)
		}
		if gok {
			graws, wraws, draws := policyFields(got), policyFields(want), policyFields(deferred)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(deferred, got) {
				t.Fatalf("%s %q: decodeInto gives %+v, reference %+v, settled deferred decode %+v", target.name, body, got, want, deferred)
			}
			for i := range graws {
				if !bytes.Equal(graws[i], wraws[i]) || !bytes.Equal(draws[i], graws[i]) {
					t.Fatalf("%s %q: policy %d carries value bytes %q, reference %q, settled deferred decode %q",
						target.name, body, i, graws[i], wraws[i], draws[i])
				}
			}
			continue
		}
		ge, we := errorBody(t, grec), errorBody(t, wrec)
		if ge.Err.Code != we.Err.Code {
			t.Fatalf("%s %q: code %q, reference %q", target.name, body, ge.Err.Code, we.Err.Code)
		}
		if ge.Err.Code == CodeBadRequest && !strings.HasPrefix(ge.Err.Message, "bad request body: ") {
			t.Fatalf("%s %q: message %q lacks the bad request body prefix", target.name, body, ge.Err.Message)
		}
	}
}

// decodeSeeds are request bodies covering what the one-pass walk hands
// to encoding/json and what it decodes itself.
func decodeSeeds(t testing.TB) [][]byte {
	var seeds []string
	// Policy string seeds as every kind of member value, alone and next
	// to other members.
	for _, s := range policyStringSeeds {
		for _, key := range []string{"a", "policy", "before", "after", "schema", "query", "kind", "method"} {
			seeds = append(seeds, `{"`+key+`":`+s+`}`)
		}
		seeds = append(seeds, `{"schema":"five","a":`+s+`,"b":"any -> accept"}`)
	}
	// The frontend corpus in object form, as a member and nested.
	formats := map[string]string{".rules": "iptables", ".nft": "nftables", ".json": "secgroup"}
	paths, err := filepath.Glob("../../testdata/frontends/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("frontend corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		text, _ := json.Marshal(string(data))
		obj := fmt.Sprintf(`{"format":%q,"text":%s,"chain":"INPUT"}`, formats[filepath.Ext(p)], text)
		seeds = append(seeds,
			`{"schema":"five","policy":`+obj+`}`,
			`{"schema":"five","a":`+string(text)+`,"b":`+obj+`}`,
			`{"schema":"five","policies":[{"name":"x","policy":`+obj+`},{"policy":`+string(text)+`}]}`,
			`{"kind":"crosscompare","schema":"five","policies":[{"policy":`+obj+`}],"pairs":[{"a":"x","b":"y"}]}`)
	}
	seeds = append(seeds,
		// Keys matching a tag only case-insensitively, and escaped keys.
		`{"A":"x","B":"y","SCHEMA":"five"}`, `{"Policy":"x","Query":"q"}`, `{"Before":"x","Edits":["e"]}`,
		`{"schema":"five","a":"x"}`, `{"a\u0000":"x"}`,
		// Policy tokens whose closing quote follows a run of backslashes:
		// an even run ends the token there, an odd one escapes the quote.
		`{"a":"x\\","b":"y"}`, `{"a":"x\\\\","b":"y"}`, `{"a":"x\\\"","b":"y"}`,
		`{"policy":"\\\\\\"}`, `{"policy":"\\\"\\"}`,
		// Duplicate keys: the last wins, whichever side decodes each.
		`{"a":"x","a":"y"}`, `{"a":{"text":"x","format":"native"},"a":"y"}`, `{"a":"y","a":{"text":"x"}}`,
		`{"a":"y","a":null}`, `{"a":"y","A":"z"}`, `{"A":"z","a":"y"}`, `{"schema":"five","schema":"four"}`,
		`{"decisions":{"1":"accept"},"decisions":{"2":"discard"}}`,
		`{"policies":[{"name":"x","policy":"a"}],"policies":[{"policy":"b"}]}`,
		// Arrays the walk decodes: duplicate keys decode into the elements
		// already there, up to the slice's capacity, and an empty array
		// drops them; object-form policies, null elements and unknown
		// keys inside elements go to encoding/json.
		`{"policies":[{"name":"x","policy":"a"},{"name":"y"},{"name":"z","policy":"c"}],"policies":[{"policy":"b"}],"policies":[{},{},{"name":"w"}]}`,
		`{"policies":[{"name":"x","policy":"a"},{"name":"y"}],"policies":[],"policies":[{"policy":"b"},{}]}`,
		`{"policies":[{"name":"x","policy":"a"}],"policies":null,"policies":[{}]}`,
		`{"policies":[{"name":"x","policy":"a"}],"Policies":[{"policy":"b"}]}`,
		`{"policies":[{"name":"x","policy":{"format":"native","text":"any -> accept"}},{"policy":{"text":"t"},"policy":"u"}]}`,
		`{"policies":[null,{"name":"x"},null]}`, `{"policies":[{"name":"x"}],"policies":[null,null]}`,
		`{"policies":[{"name":"x","Policy":"a","NAME":"y"}]}`, `{"policies":[{"name":"x","zzz":1}]}`,
		`{"policies":[{"policy":{"text":"t","zzz":1}}]}`, `{"policies":[1]}`, `{"policies":["x"]}`,
		`{"policies":[[]]}`, `{"policies":[{"name":5}]}`, `{"policies":[{"name":"x"},]}`, `{"policies":[,]}`,
		`{"policies":[{"name":"x"} {"name":"y"}]}`, `{"policies":[nul]}`, `{"policies":[nullx]}`,
		`{"policies":[{"name":"x"}`, `{"policies":[`, `{"policies": [ { "name" : "x" } , null ] }`,
		`{"pairs":[{"name":"p","a":"x","b":"y"},{"a":"y"}],"pairs":[{"b":"z"}],"pairs":[{},{}]}`,
		`{"pairs":[null,{"A":"x"},{"a":"x","c":1}]}`, `{"pairs":[{"a":1}]}`,
		`{"edits":["a","b","c"],"edits":["d"],"edits":[null,null,"e"]}`, `{"edits":["a"],"edits":[]}`,
		`{"edits":[null]}`, `{"edits":[1]}`, `{"edits":[{}]}`, `{"edits":["a\u00e9\ud800","\xff"]}`,
		`{"edits":["a",]}`, `{"edits":["a" "b"]}`, `{"edits":["a"`, `{"edits":null,"edits":["x"]}`,
		// Null members and top-level non-objects.
		`{"a":null,"schema":null,"complete":null,"policies":null}`, `null`, ` null `, `nullx`, `null {}`,
		`[]`, `"x"`, ``, ` `, `1`, `{}`, ` {} `, `{`, `{"a"`, `{"a":`, `{"a":"x"`, `{"a":"x",}`, `{,}`, `{"a" "x"}`,
		// Unknown fields, top-level and nested; type errors.
		`{"zzz":1}`, `{"a":"x","zzz":"y"}`, `{"a":{"text":"x","zzz":1}}`,
		`{"policies":[{"name":"x","policy":"a","extra":1}]}`, `{"schema":5}`, `{"a":5}`,
		`{"complete":"yes"}`, `{"edits":"x"}`, `{"complete":true,"policy":"x"}`, `{"complete":tru}`,
		`{"pairs":[{"a":"x","b":"y","c":"z"}]}`, `{"a":[1}`, `{"a":{"text":"x"]}`, `{"a":}`, `{"a":1 2}`,
		// Trailing data and a byte order mark.
		`{"a":"x"} x`, `{"a":"x"}{}`, `{"a":"x"}}`, `{"a":"x"} `+"\n\t\r", "\xef\xbb\xbf{\"a\":\"x\"}",
		`{"a":"x"}`+"\x00", `{"a":"x"} null`,
		// Policy value bytes, which key the text alias: every write of a
		// policy sets or clears them, whichever side decodes it.
		`{"a":""}`, `{"a":"x","a":""}`, `{"a":"","a":"x"}`, `{"a":"x","A":""}`, `{"after":"","edits":["e"]}`,
		`{"a":"x","a":{"text":"y"},"a":"z"}`, `{"a":{"text":"y"},"a":"z","a":{"format":"native","text":"w"}}`,
		`{"before":"x","Before":{"text":"y"}}`, `{"Before":{"text":"y"},"before":"x"}`, `{"a":"x","a":null,"a":"y"}`,
		`{"policies":[{"policy":"x","Policy":{"text":"y"}}]}`, `{"policies":[{"Policy":"y","policy":{"text":"x"}}]}`,
		`{"policies":[{"policy":"x"},{"policy":"y"}],"policies":[{"policy":{"text":"z"}},{"name":"n"}]}`,
		`{"policies":[{"policy":"x"},{"policy":"y"}],"policies":[{}],"policies":[{},{}]}`,
		`{"a":"src in 10.0.0.0/8 \u0026\u0026 dport in 22 -\u003e discard\nany -\u003e accept\n"}`,
		`{"a":"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud83d\u0000 é😀`+"\xff\x7f"+`"}`,
		`{"a":"01234567\u0026","b":"0123456\u0026","policy":"012345678\u0026"}`,
		`{"a":"0123456789abcdef`+"\x01"+`"}`, `{"a":"0123456789abcde\q"}`, `{"a":"0123456789abcdef\u00`,
	)
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeMatchesReference runs checkDecode on arbitrary bodies; plain
// go test runs it over the seeds.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkDecode)
}

// TestBodyOverBoundIs413 pins the size rule on every POST endpoint: a
// body over maxBodyBytes is 413 wherever its first syntax error sits,
// with or without a Content-Length, and a body of exactly maxBodyBytes
// decodes (then fails on its schema, which only a decoded body can).
func TestBodyOverBoundIs413(t *testing.T) {
	t.Parallel()
	srv := NewServer()
	pad := strings.Repeat(" ", 5<<20)
	over := []string{`{]` + pad, `{"schema":"five"} ` + pad, `{"a":"` + pad}
	exact := `{"schema":"nope"}`
	exact += strings.Repeat(" ", maxBodyBytes-len(exact))
	endpoints := []string{"/v1/diff", "/v1/crosscompare", "/v1/impact", "/v1/audit",
		"/v1/analyze", "/v1/query", "/v1/resolve", "/v1/jobs"}
	for _, path := range endpoints {
		for _, chunked := range []bool{false, true} {
			post := func(body string) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				if chunked {
					req.Body = io.NopCloser(strings.NewReader(body))
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				return rec
			}
			for _, body := range over {
				rec := post(body)
				if e := errorBody(t, rec); rec.Code != http.StatusRequestEntityTooLarge || e.Err.Code != CodePayloadTooLarge {
					t.Fatalf("%s chunked=%v %.20q...: status %d code %q, want 413 %s",
						path, chunked, body, rec.Code, e.Err.Code, CodePayloadTooLarge)
				}
			}
			rec := post(exact)
			if e := errorBody(t, rec); e.Err.Code != CodeUnknownSchema {
				t.Fatalf("%s chunked=%v: a body of exactly maxBodyBytes gives status %d code %q, want %s",
					path, chunked, rec.Code, e.Err.Code, CodeUnknownSchema)
			}
		}
	}

	// Over a real connection a body of unknown length goes chunked, with
	// no Content-Length to size the buffer from.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json", io.MultiReader(strings.NewReader(exact)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Err.Code != CodeUnknownSchema {
		t.Fatalf("chunked POST of exactly maxBodyBytes: status %d code %q, want %s", resp.StatusCode, e.Err.Code, CodeUnknownSchema)
	}
}

// pairBody is a diff-cold-shaped request: a 661-rule real-life policy,
// the size of the paper's larger firewall, against a perturbation of it.
func pairBody(t testing.TB) []byte {
	a := synth.RealLife(661, 1)
	b, _ := synth.Perturb(a, 20, 2)
	body, err := json.Marshal(DiffRequest{Schema: "five",
		A: in(rule.FormatPolicy(a)), B: in(rule.FormatPolicy(b))})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// reusableBody is a request body that can be rewound without allocating.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// decodeLoop returns a function that decodes body into a zeroed
// DiffRequest through decode, reusing one request and recorder, so what
// it allocates is what decode allocates. With pooled set, the body is
// read as the middleware reads it, into a pooled buffer that goes back to
// the pool after each decode.
func decodeLoop(t testing.TB, decode func(http.ResponseWriter, *http.Request, interface{}) bool, body []byte, pooled bool) func() {
	rb := new(reusableBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/diff", bytes.NewReader(body))
	req.Body = rb
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = rec
	sw := &statusWriter{ResponseWriter: rec}
	if pooled {
		w = sw
	}
	var out DiffRequest
	return func() {
		rb.Reset(body)
		out = DiffRequest{}
		if !decode(w, req, &out) {
			t.Fatalf("decode failed: %s", rec.Body)
		}
		sw.releaseBody()
	}
}

// decodePending is decodeDeferred with its policy tokens left pending,
// as /v1/diff decodes a body before an alias hit.
func decodePending(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	var pend pendingTokens
	return decodeDeferred(w, r, v, &pend)
}

// BenchmarkDecodeRequest decodes the pair body with the reference
// decoder, the one-pass one, and the one-pass one with the policy tokens
// left pending, as /v1/diff decodes it before an alias hit; MB/s is body
// bytes decoded per second.
func BenchmarkDecodeRequest(b *testing.B) {
	// Released buffers go back unpoisoned: overwriting 256 KiB per
	// request is the tests' cost, not the server's.
	defer func(poison func(*requestBuf)) { releasedRequestBuf = poison }(releasedRequestBuf)
	releasedRequestBuf = nil
	body := pairBody(b)
	for _, c := range []struct {
		name   string
		decode func(http.ResponseWriter, *http.Request, interface{}) bool
	}{{"reference", referenceDecodeInto}, {"onepass", decodeInto}, {"deferred", decodePending}} {
		b.Run(c.name, func(b *testing.B) {
			run := decodeLoop(b, c.decode, body, true)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				run()
			}
		})
	}
}

// TestDecodeAllocs pins what decoding the pair body costs without a
// trace. The deferred decode, as /v1/diff decodes it, read into a buffer
// of its own, makes the body-size reader, the buffer and the schema
// string, nothing more (the api.decode span allocates only when traced):
// both policies stay views into the body. decodeInto adds the two texts
// it unquotes them into. Read into a pooled buffer, as the middleware
// reads it, the buffer is not allocated either, and no byte the deferred
// decode allocates grows with the body. Those counts depend on a pool
// hit, which the race detector makes random, so they are measured only
// without it.
func TestDecodeAllocs(t *testing.T) {
	body := pairBody(t)
	if n := testing.AllocsPerRun(20, decodeLoop(t, decodeInto, body, false)); n != 5 {
		t.Fatalf("decodeInto makes %v allocations, want 5: the bounded reader, the buffer, the schema and two texts", n)
	}
	if n := testing.AllocsPerRun(20, decodeLoop(t, decodePending, body, false)); n != 3 {
		t.Fatalf("the deferred decode makes %v allocations, want 3: the bounded reader, the buffer and the schema", n)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, decodeLoop(t, decodeInto, body, true)); n != 4 {
		t.Fatalf("decodeInto into a pooled buffer makes %v allocations, want 4: the bounded reader, the schema and two texts", n)
	}
	run := decodeLoop(t, decodePending, body, true)
	if n := testing.AllocsPerRun(20, run); n != 2 {
		t.Fatalf("the deferred decode into a pooled buffer makes %v allocations, want 2: the bounded reader and the schema", n)
	}
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1<<10 {
		t.Fatalf("the deferred decode into a pooled buffer allocates %d bytes for a %d-byte body, want at most 1 KiB", perOp, len(body))
	}
}

// checkScan holds the pass that validates a policy token, stringEnd's
// scan for its closing quote and unquoteString of the bounded token, to
// unquoteInPlace on data, the walk's unquoting of every other string: the
// same accept or reject, and on accept the same end offset and the same
// text. So bounding a token first neither moves its end nor changes its
// error or its text.
func checkScan(t *testing.T, data []byte) {
	n := stringEnd(data, 0)
	var got string
	ok := n <= len(data)
	if ok {
		s, err := unquoteString(data[:n])
		got, ok = s, err == nil
	}
	want, end, wok := unquoteInPlace(bytes.Clone(data))
	if ok != wok || ok && (n != end || got != want) {
		t.Fatalf("stringEnd(%q) = %d, unquoteString gives %q, %v; unquoteInPlace gives %q, ends at %d, %v",
			data, n, got, ok, want, end, wok)
	}
}

// scanSeeds are the policy-string seeds, and each kind of byte a token's
// validation stops at (an escape of every class, a control byte, a
// closing quote, invalid UTF-8) after 0 to 16 plain bytes, with and
// without bytes after the closing quote.
func scanSeeds() [][]byte {
	var seeds [][]byte
	for _, s := range policyStringSeeds {
		seeds = append(seeds, []byte(strings.TrimLeft(s, " \t\r\n")))
	}
	specials := []string{`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`, `\u0026`, `\u003E`, `\ud83d\ude00`,
		`\ud83d`, `\u12`, `\uzzzz`, `\x`, `\`, "\x00", "\x1f", "\x7f", "\xff", "é", `"`}
	for _, sp := range specials {
		for k := range 17 {
			head := `"` + strings.Repeat("a", k) + sp
			seeds = append(seeds, []byte(head), []byte(head+`tail"`), []byte(head+`0123456789"x`))
		}
	}
	return seeds
}

// FuzzScanMatchesUnquote runs checkScan on arbitrary bytes; plain go
// test runs it over the seeds.
func FuzzScanMatchesUnquote(f *testing.F) {
	for _, s := range scanSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkScan)
}
