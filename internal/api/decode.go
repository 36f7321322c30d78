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

// readBody reads r's body whole into one buffer under maxBodyBytes, so a
// body over the bound is an *http.MaxBytesError wherever its bytes would
// stop parsing. The buffer is sized from Content-Length and never grows
// past the bound.
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
	buf := make([]byte, 0, size)
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
// whose key is exactly the json tag of a string or PolicyInput field and
// whose value is a JSON string is unquoted in place (body is the
// caller's to overwrite). Every other member goes, as a one-member
// object, to encoding/json with unknown fields disallowed, which keeps
// key folding, unknown-field rejection, type errors, null and nested
// values as they were. Members apply in body order, so the last of a
// duplicate key wins, as in encoding/json.
func decodeBody(body []byte, v any) error {
	i := skipSpace(body, 0)
	if i == len(body) {
		return errors.New("unexpected end of JSON input")
	}
	if body[i] != '{' {
		// encoding/json leaves a struct as it is for a top-level null and
		// rejects every other value that is not an object.
		if bytes.HasPrefix(body[i:], []byte("null")) && skipSpace(body, i+4) == len(body) {
			return nil
		}
		return errors.New("request body must be a JSON object")
	}
	rv := reflect.ValueOf(v).Elem()
	fields := directFields(rv.Type())
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		i++
	} else {
		for {
			if i >= len(body) || body[i] != '"' {
				return syntaxError(body, i, "an object key")
			}
			keyEnd := stringEnd(body, i)
			j := skipSpace(body, keyEnd)
			if j >= len(body) || body[j] != ':' {
				return syntaxError(body, j, "':' after an object key")
			}
			j = skipSpace(body, j+1)
			if f := lookupField(fields, body[i+1:keyEnd-1]); f != nil && j < len(body) && body[j] == '"' {
				s, n, ok := unquoteInPlace(body[j:])
				if !ok {
					return fmt.Errorf("invalid JSON string in member %q", f.name)
				}
				if fv := rv.Field(f.index); f.policy {
					*fv.Addr().Interface().(*PolicyInput) = PolicyInput{Text: s}
				} else {
					fv.SetString(s)
				}
				j += n
			} else {
				j = valueEnd(body, j)
				member := make([]byte, 0, j-i+2)
				member = append(append(append(member, '{'), body[i:j]...), '}')
				dec := json.NewDecoder(bytes.NewReader(member))
				dec.DisallowUnknownFields()
				if err := dec.Decode(v); err != nil {
					return err
				}
			}
			i = skipSpace(body, j)
			if i < len(body) && body[i] == ',' {
				i = skipSpace(body, i+1)
				continue
			}
			if i < len(body) && body[i] == '}' {
				i++
				break
			}
			return syntaxError(body, i, "',' or '}' after an object member")
		}
	}
	if skipSpace(body, i) < len(body) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

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
// stringEnd-1 stays in bounds, and nothing follows it).
func stringEnd(body []byte, i int) int {
	for i++; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
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

// directField is a request struct field decodeBody unquotes itself.
type directField struct {
	name   string // its json tag's name, matched exactly
	index  int
	policy bool // a PolicyInput; otherwise a string
}

// directFieldCache maps a request struct type to its []directField.
var directFieldCache sync.Map

// directFields lists t's fields that a JSON string decodes into without
// encoding/json: exported, named by a json tag, of type string (without
// the ",string" option) or PolicyInput.
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
		switch f.Type {
		case reflect.TypeFor[string]():
			fs = append(fs, directField{name: name, index: i})
		case reflect.TypeFor[PolicyInput]():
			fs = append(fs, directField{name: name, index: i, policy: true})
		}
	}
	directFieldCache.Store(t, fs)
	return fs
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
