package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
)

// chunkedBodyStart is the first buffer for a body that declares no
// length; the buffer doubles from there up to maxBodyBytes.
const chunkedBodyStart = 16 << 10

// pooledRequestBytes is the size of the pooled request buffers. A body
// that fits one (a 661-rule pair is about 128 KB) is read into a buffer
// from requestBufs, which the middleware puts back once the handler has
// returned (statusWriter.releaseBody); a larger body gets a buffer of its
// own.
const pooledRequestBytes = 256 << 10

// requestBuf is one pooled request buffer. The pool holds pointers to
// arrays, so putting one back allocates nothing.
type requestBuf [pooledRequestBytes]byte

var requestBufs = sync.Pool{New: func() any { return new(requestBuf) }}

// releasedRequestBuf, when set, is handed every pooled buffer as it goes
// back to the pool. The package's tests set it to overwrite the buffer,
// so a view into a request body that outlived its request reads garbage.
var releasedRequestBuf func(*requestBuf)

// validatedPolicyToken, when set, is called on every pass that validates
// a bare-string policy token, which is the pass that unquotes it. The
// package's tests set it to count the passes a request makes.
var validatedPolicyToken func()

func countValidation() {
	if validatedPolicyToken != nil {
		validatedPolicyToken()
	}
}

// readBody reads r's body whole into one buffer under maxBodyBytes, so a
// body over the bound is an *http.MaxBytesError wherever its bytes would
// stop parsing. The buffer is sized from Content-Length and never grows
// past the bound. When w is the middleware's statusWriter and the body
// fits, the buffer is pooled: it is the request's until the handler
// returns, and nothing may keep a view into it past that.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	size := int64(chunkedBodyStart)
	if r.ContentLength >= 0 {
		// The spare byte takes the read that finds EOF, so a body of its
		// declared length is read without growing the buffer.
		size = min(r.ContentLength+1, maxBodyBytes)
	}
	var buf []byte
	if sw, ok := w.(*statusWriter); ok && size <= pooledRequestBytes {
		if r.ContentLength < 0 {
			size = pooledRequestBytes // a chunked body may fill all of it
		}
		buf = sw.pooledBody()[:0:size]
	} else {
		buf = make([]byte, 0, size)
	}
	for {
		if len(buf) == cap(buf) {
			if len(buf) == maxBodyBytes {
				// A full buffer ends the body only if no byte follows;
				// MaxBytesReader turns one more into its error.
				var probe [1]byte
				if _, err := io.ReadFull(body, probe[:]); err != io.EOF {
					return nil, err
				}
				return buf, nil
			}
			grown := make([]byte, len(buf), min(2*cap(buf), maxBodyBytes))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeBody decodes body, which must be exactly one JSON object, into
// v, a pointer to a request struct, walking the object once. A member
// whose key is exactly the json tag of a field decodeBody owns (see
// directFields) and whose value is the JSON kind it takes is decoded in
// the walk: a bare-string policy keeps its token, a view into body, and
// is unquoted into a copy; any other string is unquoted in place (body is
// the caller's to overwrite) and copied out; and an array is walked
// element by element, each string element unquoted and each object
// element walked as a struct. Every other member or element goes to
// encoding/json with unknown fields disallowed (a member as a one-member
// object), which keeps key folding, unknown-field rejection, type errors,
// null and nested values as they were. Members apply in body order, so
// the last of a duplicate key wins, as in encoding/json.
//
// A bare-string policy is validated in the walk, by unquoting it into
// Text, when pend is nil. Otherwise a top-level one is only bounded
// (stringEnd) and added to pend, for the caller to settle; an error
// decodeBody returns is that of the first pending token that fails
// validation, if one does, as the walk would have stopped there.
// Policies inside arrays are always validated in the walk: a shorter
// duplicate array can drop them.
func decodeBody(body []byte, v any, pend *pendingTokens) error {
	i := skipSpace(body, 0)
	if i == len(body) {
		return errors.New("unexpected end of JSON input")
	}
	if body[i] != '{' {
		// encoding/json leaves a struct as it is for a top-level null and
		// rejects every other value that is not an object.
		if isNull(body, i) && skipSpace(body, i+4) == len(body) {
			return nil
		}
		return errors.New("request body must be a JSON object")
	}
	i, err := decodeObject(body, i, reflect.ValueOf(v).Elem(), pend)
	if err == nil && skipSpace(body, i) < len(body) {
		err = errors.New("trailing data after JSON body")
	}
	if err != nil {
		if perr := pend.settle(); perr != nil {
			return perr
		}
		return err
	}
	return nil
}

// decodeObject decodes the object that starts at body[i] into rv, an
// addressable struct, and returns the offset just past it. Its bare-string
// policies go to pend, or are validated in the walk when pend is nil.
func decodeObject(body []byte, i int, rv reflect.Value, pend *pendingTokens) (int, error) {
	fields := directFields(rv.Type())
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return i + 1, nil
	}
	for {
		if i >= len(body) || body[i] != '"' {
			return 0, syntaxError(body, i, "an object key")
		}
		keyEnd := stringEnd(body, i)
		j := skipSpace(body, keyEnd)
		if j >= len(body) || body[j] != ':' {
			return 0, syntaxError(body, j, "':' after an object key")
		}
		j = skipSpace(body, j+1)
		var err error
		if f := lookupField(fields, body[i+1:keyEnd-1]); f != nil && j < len(body) && body[j] == f.opens() {
			j, err = f.decode(body, j, rv.Field(f.index), pend)
		} else {
			end := valueEnd(body, j)
			member := make([]byte, 0, end-i+2)
			member = append(append(append(member, '{'), body[i:end]...), '}')
			j, err = end, decodeJSON(member, rv)
		}
		if err != nil {
			return 0, err
		}
		i = skipSpace(body, j)
		if i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
			continue
		}
		if i < len(body) && body[i] == '}' {
			return i + 1, nil
		}
		return 0, syntaxError(body, i, "',' or '}' after an object member")
	}
}

// decodeArray decodes the array that starts at body[i] into sv, an
// addressable slice of strings or structs, and returns the offset just
// past it. It follows encoding/json's slice rule, which a duplicate key
// makes visible: the array decodes into the elements already there,
// field by field, up to the slice's capacity, and the length is then cut
// to the array's; an empty array leaves an empty slice of no capacity.
func decodeArray(body []byte, i int, sv reflect.Value) (int, error) {
	n := 0
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == ']' {
		i++
	} else {
		for {
			if n >= sv.Cap() {
				sv.Grow(1)
			}
			if n >= sv.Len() {
				sv.SetLen(n + 1)
			}
			var err error
			if i, err = decodeElement(body, i, sv.Index(n)); err != nil {
				return 0, err
			}
			n++
			i = skipSpace(body, i)
			if i < len(body) && body[i] == ',' {
				i = skipSpace(body, i+1)
				continue
			}
			if i < len(body) && body[i] == ']' {
				i++
				break
			}
			return 0, syntaxError(body, i, "',' or ']' after an array element")
		}
	}
	if n < sv.Len() {
		sv.SetLen(n)
	}
	if n == 0 {
		sv.Set(reflect.MakeSlice(sv.Type(), 0, 0))
	}
	return i, nil
}

// decodeElement decodes the array element that starts at body[i] into
// ev and returns the offset just past it. A null leaves the element as
// it is, as encoding/json leaves a string or a struct.
func decodeElement(body []byte, i int, ev reflect.Value) (int, error) {
	switch {
	case i >= len(body):
		return 0, syntaxError(body, i, "an array element")
	case ev.Kind() == reflect.String && body[i] == '"':
		s, n, ok := unquoteInPlace(body[i:])
		if !ok {
			return 0, errors.New("invalid JSON string in an array element")
		}
		ev.SetString(s)
		return i + n, nil
	case ev.Kind() == reflect.Struct && body[i] == '{':
		return decodeObject(body, i, ev, nil)
	case isNull(body, i):
		return i + 4, nil
	}
	end := valueEnd(body, i)
	if end == i {
		return 0, syntaxError(body, i, "an array element")
	}
	return end, decodeJSON(body[i:end], ev)
}

// decodeJSON decodes data, one JSON value, into rv through encoding/json
// with unknown fields disallowed.
func decodeJSON(data []byte, rv reflect.Value) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(rv.Addr().Interface())
}

// isNull reports whether the literal null starts at body[i].
func isNull(body []byte, i int) bool { return bytes.HasPrefix(body[i:], []byte("null")) }

// syntaxError describes what decodeBody found at offset i instead of
// what it wanted.
func syntaxError(body []byte, i int, want string) error {
	if i >= len(body) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", body[i], i, want)
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// stringEnd returns the offset just past the string token that starts
// at body[i], or len(body)+1 when it is not closed (slicing up to
// stringEnd-1 stays in bounds, and nothing follows it). The token ends at
// its first quote preceded by an even run of backslashes, as a walk that
// skips the byte after each backslash finds it; for a valid token that is
// where unquoting ends, and finding it takes bytes.IndexByte's pace.
func stringEnd(body []byte, i int) int {
	for i++; i < len(body); i++ {
		q := bytes.IndexByte(body[i:], '"')
		if q < 0 {
			break
		}
		i += q
		run := 0
		for body[i-1-run] == '\\' {
			run++
		}
		if run%2 == 0 {
			return i + 1
		}
	}
	return len(body) + 1
}

// valueEnd returns the offset just past the value that starts at
// body[i], found lexically: a string to its closing quote, an array or
// object to its matching bracket, anything else to the next delimiter.
// It validates nothing; encoding/json validates the member it is handed,
// and a wrong end on invalid input leaves that member or the walk after
// it invalid.
func valueEnd(body []byte, i int) int {
	depth := 0
	for i < len(body) {
		switch body[i] {
		case '"':
			i = min(stringEnd(body, i), len(body))
			if depth == 0 {
				return i
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\r', '\n':
			if depth == 0 {
				return i
			}
		}
		i++
	}
	return i
}

// directField is a request struct field decodeBody decodes itself.
type directField struct {
	name  string // its json tag's name, matched exactly
	index int
	kind  directKind
}

type directKind uint8

const (
	directString directKind = iota
	directPolicy            // a PolicyInput given as a bare string
	directSlice             // a slice of strings or of structs
)

// opens is the first byte of the JSON values the walk decodes into f.
func (f *directField) opens() byte {
	if f.kind == directSlice {
		return '['
	}
	return '"'
}

// decode decodes the value that starts at body[i], which opens f's kind,
// into fv and returns the offset just past it. A policy string keeps its
// token, a view into body never written over, for the text alias to key.
// When pend is nil it is validated here by unquoting it into Text;
// otherwise it is only bounded and added to pend.
func (f *directField) decode(body []byte, i int, fv reflect.Value, pend *pendingTokens) (int, error) {
	var n int
	var ok bool
	switch f.kind {
	case directSlice:
		return decodeArray(body, i, fv)
	case directPolicy:
		n = stringEnd(body, i) - i
		if i+n > len(body) {
			break
		}
		p := fv.Addr().Interface().(*PolicyInput)
		*p = PolicyInput{raw: body[i : i+n : i+n]}
		t := pendingToken{f.name, p.raw, p}
		var err error
		if pend == nil {
			err = t.validate()
		} else if n > 2 { // "" is valid as it is bounded
			err = pend.add(t)
		}
		if err != nil {
			return 0, err
		}
		return i + n, nil
	default:
		var s string
		if s, n, ok = unquoteInPlace(body[i:]); ok {
			fv.SetString(s)
		}
	}
	if !ok {
		return 0, badString(f.name)
	}
	return i + n, nil
}

// badString is the error of a member whose string is not one valid JSON
// string.
func badString(member string) error {
	return fmt.Errorf("invalid JSON string in member %q", member)
}

// maxPendingTokens bounds a pendingTokens list. A request carries at most
// two top-level policies; only a duplicate key adds a token.
const maxPendingTokens = 4

// pendingTokens lists the top-level bare-string policy tokens a walk has
// bounded but not validated, in body order, with no allocation. Each is
// validated, by unquoting it, before an error is written or an answer
// depends on it, except a token that is exactly the value bytes of a
// policy the engine's text alias held: the alias gets an entry only after
// those very bytes were validated and parsed, so the hit proves them
// valid. A token another member overwrote stays listed, since its error
// would still come first.
type pendingTokens struct {
	toks [maxPendingTokens]pendingToken
	n    int
}

type pendingToken struct {
	member string       // the member's key, which names the token in its error
	tok    []byte       // the token, quotes included: a view into the body
	into   *PolicyInput // the policy the walk decoded it into
}

// add appends t. A full list first validates its earliest token, which
// keeps the list in body order.
func (p *pendingTokens) add(t pendingToken) error {
	if p.n == len(p.toks) {
		if err := p.toks[0].validate(); err != nil {
			p.n = 0
			return err
		}
		copy(p.toks[:], p.toks[1:])
		p.n--
	}
	p.toks[p.n] = t
	p.n++
	return nil
}

// settle validates every listed token in body order and empties the list.
// The error is the first invalid token's. A nil list holds nothing.
func (p *pendingTokens) settle() error {
	if p == nil {
		return nil
	}
	toks := p.toks[:p.n]
	p.n = 0
	for i := range toks {
		if err := toks[i].validate(); err != nil {
			return err
		}
	}
	return nil
}

// settleOverwritten leaves the list as it is when every listed token is
// still its policy's value, the key of an alias lookup. Otherwise it
// settles the whole list, so the error is the first invalid token's in
// body order, an overwritten one's included.
func (p *pendingTokens) settleOverwritten() error {
	for i := range p.toks[:p.n] {
		if !p.toks[i].current() {
			return p.settle()
		}
	}
	return nil
}

// validate validates t by unquoting it. The text goes to its policy's
// Text while t is still that policy's value, and is dropped otherwise.
func (t *pendingToken) validate() error {
	countValidation()
	s, err := unquoteString(t.tok)
	if err != nil {
		return badString(t.member)
	}
	if t.current() {
		t.into.Text = s
	}
	return nil
}

// current reports whether t is still its policy's value: the policy's raw
// is the same bytes of the same body. A later member that sets the policy
// writes the whole struct, raw and an empty Text alike.
func (t *pendingToken) current() bool {
	raw := t.into.raw
	return len(raw) == len(t.tok) && len(raw) > 0 && &raw[0] == &t.tok[0]
}

// directFieldCache maps a struct type to its []directField.
var directFieldCache sync.Map

// directFields lists the fields of t, a request struct or an array
// element's, that the walk decodes without encoding/json: exported,
// named by a json tag without the ",string" option, and of type string,
// PolicyInput, []string, or a slice of a struct with no UnmarshalJSON of
// its own ([]NamedPolicy, []JobPairSpec).
func directFields(t reflect.Type) []directField {
	if fs, ok := directFieldCache.Load(t); ok {
		return fs.([]directField)
	}
	var fs []directField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || f.Anonymous || name == "" || name == "-" || strings.Contains(opts, "string") {
			continue
		}
		switch {
		case f.Type == reflect.TypeFor[string]():
			fs = append(fs, directField{name: name, index: i, kind: directString})
		case f.Type == reflect.TypeFor[PolicyInput]():
			fs = append(fs, directField{name: name, index: i, kind: directPolicy})
		case f.Type.Kind() == reflect.Slice && walkableElem(f.Type.Elem()):
			fs = append(fs, directField{name: name, index: i, kind: directSlice})
		}
	}
	directFieldCache.Store(t, fs)
	return fs
}

// walkableElem reports whether decodeElement decodes elements of type t:
// plain strings, and structs encoding/json would decode field by field.
func walkableElem(t reflect.Type) bool {
	return t == reflect.TypeFor[string]() ||
		t.Kind() == reflect.Struct && !reflect.PointerTo(t).Implements(reflect.TypeFor[json.Unmarshaler]())
}

// lookupField returns the field whose name is exactly key, or nil.
func lookupField(fields []directField, key []byte) *directField {
	for i := range fields {
		if fields[i].name == string(key) {
			return &fields[i]
		}
	}
	return nil
}
