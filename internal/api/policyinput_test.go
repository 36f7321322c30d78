package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// policyStringSeeds cover the JSON string grammar's corners: escapes of
// every kind, surrogate pairs whole and broken, invalid UTF-8, control
// bytes, and what may follow the closing quote.
var policyStringSeeds = []string{
	`"any -> accept"`,
	`"src in 10.0.0.0/8 && dport in 22 -> discard\nany -> accept\n"`,
	`"\"\\\/\b\f\n\r\t"`, `"é€￿"`, `"😀"`, `"😀x"`,
	`"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ude00\ud83d"`, `"\ud83d😀"`,
	`"\ud83d\uZZZZ"`, `"\u12"`, `"\x"`, `"\'"`, `"\`, `"abc`, `"`, `""`, `  "a"  `, "\t\"a\"\r\n",
	`"a" x`, `"a""b"`, "\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"\xe2\x82\"", "\"caf\xc3\xa9\"",
	"\"a\x01b\"", "\"\x7f\"", `null`, ` null `, `nullx`, `"a\u0000b"`,
}

// checkPolicyString holds the bare-string unquoting to encoding/json's:
// UnmarshalJSON called directly on data gives the Text json.Unmarshal
// gives a string, keeps the token without its surrounding whitespace as
// its raw bytes, and rejects a string token json.Unmarshal rejects.
// (Other non-string bytes go to the object form, which has its own
// rules.)
func checkPolicyString(t *testing.T, data []byte) {
	var want string
	werr := json.Unmarshal(data, &want)
	var got PolicyInput
	gerr := got.UnmarshalJSON(data)
	token := bytes.Trim(data, " \t\r\n")
	switch {
	case werr == nil && gerr != nil:
		t.Fatalf("UnmarshalJSON(%q): %v; json.Unmarshal gives %q", data, gerr, want)
	case werr == nil && (got.Text != want || got.Format != "" || got.Chain != "" ||
		!bytes.Equal(got.raw, token) && !bytes.Equal(token, []byte("null"))):
		t.Fatalf("UnmarshalJSON(%q) = %+v; json.Unmarshal gives %q", data, got, want)
	case werr != nil && gerr == nil && bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte(`"`)):
		t.Fatalf("UnmarshalJSON(%q) = %+v, but json.Unmarshal rejects it: %v", data, got, werr)
	}
}

// FuzzPolicyInputString runs checkPolicyString on arbitrary bytes; plain
// go test runs it over the seeds.
func FuzzPolicyInputString(f *testing.F) {
	for _, s := range policyStringSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkPolicyString)
}

// TestPolicyInputStringAllocs pins the bare string to two allocations
// when escapes are decoded: the text's own bytes and the copy of the
// token its text-alias key is derived from.
func TestPolicyInputStringAllocs(t *testing.T) {
	data := []byte(`"src in 10.0.0.0/8 && dport in 22 -> discard\nany -> accept\n"`)
	var p PolicyInput
	if n := testing.AllocsPerRun(100, func() {
		if err := p.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("UnmarshalJSON makes %v allocations, want 2", n)
	}
}
