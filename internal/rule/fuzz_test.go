package rule

import (
	"strings"
	"testing"

	"diversefw/internal/field"
)

// parseRuleSeeds seed FuzzParseRule and the differential corpus.
var parseRuleSeeds = []string{
	"any -> accept",
	"src in 224.168.0.0/16 -> discard",
	"dst in 192.168.0.1 && dport in 25 && proto in tcp -> accept",
	"sport in 0-1023|8080 -> discard-log",
	"src in !10.0.0.0/8 -> accept",
	"dst in !(8.8.8.8|1.1.1.1) -> discard",
	"src in 1.2.3.4-1.2.3.9 -> accept",
	"-> accept",
	"x in 1 -> accept",
	"src in  -> accept",
	"src in 999.999.999.999 -> accept",
	"&& -> accept",
	"proto in decision#12 -> decision#12",
}

// FuzzParseRule checks that the rule parser never panics and that
// anything it accepts survives a format/parse round trip.
func FuzzParseRule(f *testing.F) {
	for _, s := range parseRuleSeeds {
		f.Add(s)
	}
	schema := field.IPv4FiveTuple()
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(schema, line)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must round trip semantically.
		text := FormatRule(schema, r)
		back, err := ParseRule(schema, text)
		if err != nil {
			t.Fatalf("reparse of formatted rule failed: %q -> %q: %v", line, text, err)
		}
		if back.Decision != r.Decision {
			t.Fatalf("decision changed: %q", line)
		}
		for i := range r.Pred {
			if !back.Pred[i].Equal(r.Pred[i]) {
				t.Fatalf("field %d changed through round trip: %q -> %q", i, line, text)
			}
		}
	})
}

// FuzzParsePolicy checks the multi-line parser.
func FuzzParsePolicy(f *testing.F) {
	f.Add("any -> accept\n")
	f.Add("# comment\nsrc in 10.0.0.0/8 -> discard\nany -> accept\n")
	f.Add("\n\n\n")
	f.Add("garbage\n")
	schema := field.IPv4FiveTuple()
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePolicyString(schema, text)
		if err != nil {
			return
		}
		if p.Size() > 0 && strings.TrimSpace(FormatPolicy(p)) == "" {
			t.Fatalf("nonempty policy formatted to nothing: %q", text)
		}
	})
}
