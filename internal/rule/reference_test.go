package rule

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/prefix"
)

// The reference parser below is the rule text parser as first written:
// bufio.Scanner lines, strings.Split per conjunct and atom, a fresh set
// per field, strconv for numbers. The arena lexer must accept exactly
// what it accepts, build equal rules, and fail with byte-identical
// errors. (Addresses go through package prefix, which pins its byte walk
// to its own reference.)

func parsePolicyReference(schema *field.Schema, r io.Reader) (*Policy, error) {
	var rules []Rule
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		rl, err := parseRuleReference(schema, line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		rules = append(rules, rl)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rule: read policy: %w", err)
	}
	return NewPolicy(schema, rules)
}

func parseRuleReference(schema *field.Schema, line string) (Rule, error) {
	arrow := strings.LastIndex(line, "->")
	if arrow < 0 {
		return Rule{}, fmt.Errorf("rule: missing '->' in %q", line)
	}
	predText := strings.TrimSpace(line[:arrow])
	decText := strings.TrimSpace(line[arrow+2:])

	dec, err := ParseDecision(decText)
	if err != nil {
		return Rule{}, err
	}

	pred := FullPredicate(schema)
	if !strings.EqualFold(predText, "any") && predText != "*" && predText != "" {
		seen := make([]bool, schema.NumFields())
		for _, conj := range strings.Split(predText, "&&") {
			conj = strings.TrimSpace(conj)
			name, valText, ok := cutConjunct(conj)
			if !ok {
				return Rule{}, fmt.Errorf("rule: bad conjunct %q (want \"<field> in <values>\")", conj)
			}
			fi := schema.IndexOf(name)
			if fi < 0 {
				return Rule{}, fmt.Errorf("rule: unknown field %q", name)
			}
			if seen[fi] {
				return Rule{}, fmt.Errorf("rule: field %q appears twice", name)
			}
			seen[fi] = true
			set, err := parseValueSetReference(schema.Field(fi), valText)
			if err != nil {
				return Rule{}, err
			}
			pred[fi] = set
		}
	}
	return Rule{Pred: pred, Decision: dec}, nil
}

func parseValueSetReference(f field.Field, text string) (interval.Set, error) {
	text = strings.TrimSpace(text)
	if text == "*" || strings.EqualFold(text, "any") || strings.EqualFold(text, "all") {
		return interval.SetFromInterval(f.Domain), nil
	}
	if strings.HasPrefix(text, "!") {
		body := strings.TrimSpace(text[1:])
		if strings.HasPrefix(body, "(") && strings.HasSuffix(body, ")") {
			body = body[1 : len(body)-1]
		}
		inner, err := parseValueSetReference(f, body)
		if err != nil {
			return interval.Set{}, err
		}
		out := inner.ComplementWithin(f.Domain)
		if out.Empty() {
			return interval.Set{}, fmt.Errorf("rule: complement %q is empty for field %s", text, f.Name)
		}
		return out, nil
	}
	var ivs []interval.Interval
	for _, atom := range strings.Split(text, "|") {
		iv, err := parseValueAtomReference(f, strings.TrimSpace(atom))
		if err != nil {
			return interval.Set{}, err
		}
		ivs = append(ivs, iv)
	}
	set := interval.NewSet(ivs...)
	if !interval.SetFromInterval(f.Domain).ContainsSet(set) {
		return interval.Set{}, fmt.Errorf("rule: value %q exceeds domain %v of field %s", text, f.Domain, f.Name)
	}
	return set, nil
}

func parseValueAtomReference(f field.Field, atom string) (interval.Interval, error) {
	if atom == "" {
		return interval.Interval{}, fmt.Errorf("rule: empty value for field %s", f.Name)
	}
	switch f.Kind {
	case field.KindIPv4:
		if strings.Contains(atom, ".") {
			if i := strings.IndexByte(atom, '-'); i >= 0 {
				lo, err := prefix.ParseIPv4(strings.TrimSpace(atom[:i]))
				if err != nil {
					return interval.Interval{}, err
				}
				hi, err := prefix.ParseIPv4(strings.TrimSpace(atom[i+1:]))
				if err != nil {
					return interval.Interval{}, err
				}
				return interval.New(lo, hi)
			}
			return prefix.ParseCIDR(atom)
		}
	case field.KindProto:
		if v, ok := map[string]uint64{"icmp": 1, "tcp": 6, "udp": 17}[strings.ToLower(atom)]; ok {
			return interval.Point(v), nil
		}
	}
	if i := strings.IndexByte(atom, '-'); i > 0 {
		lo, err := strconv.ParseUint(strings.TrimSpace(atom[:i]), 10, 64)
		if err != nil {
			return interval.Interval{}, fmt.Errorf("rule: bad value %q for field %s", atom, f.Name)
		}
		hi, err := strconv.ParseUint(strings.TrimSpace(atom[i+1:]), 10, 64)
		if err != nil {
			return interval.Interval{}, fmt.Errorf("rule: bad value %q for field %s", atom, f.Name)
		}
		return interval.New(lo, hi)
	}
	v, err := strconv.ParseUint(atom, 10, 64)
	if err != nil {
		return interval.Interval{}, fmt.Errorf("rule: bad value %q for field %s", atom, f.Name)
	}
	return interval.Point(v), nil
}

// sameRule reports whether two parses agree: both failed with the same
// text, or both built equal rules.
func sameRule(a Rule, aErr error, b Rule, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	if a.Decision != b.Decision || len(a.Pred) != len(b.Pred) {
		return false
	}
	for i := range a.Pred {
		if !a.Pred[i].Equal(b.Pred[i]) {
			return false
		}
	}
	return true
}

// referenceSeeds are the differential corpus: FuzzParseRule's seeds, a
// few lines aimed at the lexer's edges, and every line of the frontend
// corpus's .rules files.
func referenceSeeds(tb testing.TB) []string {
	seeds := append([]string{
		"sport in 0x10 -> accept", "dport in 1_0 -> accept", "dport in +5 -> accept",
		"proto in TCP|Udp|İCMP|Kcmp -> accept", "proto in tcp  |  6 -> accept",
		"src in 10.0.0.0/+8|1.2.3.4/-0 -> accept", "src in 10.0.0.0 /8 -> accept",
		"dport in 18446744073709551615 -> accept", "sport in 18446744073709551616 -> accept",
		"dport in !(0-65535) -> accept", "dport in !!25 -> accept", "dport in !(!(1-2|3)) -> accept",
		"dport in ! ( 5 ) -> accept", "dport in 5-3 -> accept", "src in 1.2.3.9-1.2.3.4 -> accept",
		"dport in 1-2-3 -> accept", "dport=80 && src in any -> deny", "dport in 70000 -> accept",
		"src in 1.2.3.4 && src in 5.6.7.8 -> accept", "any -> decision#0", "ANY -> ACCEPT",
		"dport in 80 && && proto in tcp -> accept", "dport in 80 &&& proto in tcp -> accept",
		"src in 0.0.0.0/0 -> accept", "* -> drop", "dport in ALL -> accept", "dport in |80 -> accept",
		"src in 10.0.0.1-10.0.0.300 -> accept", "dport in 1 - 2 -> accept",
	}, parseRuleSeeds...)
	files, err := filepath.Glob("../../testdata/frontends/*.rules")
	if err != nil || len(files) == 0 {
		tb.Fatalf("frontend corpus: %v (%d files)", err, len(files))
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, strings.Split(string(b), "\n")...)
	}
	return seeds
}

// checkMatchesReference parses line as a rule over each standard schema
// and text as a policy, against the reference parser.
func checkMatchesReference(t *testing.T, text string) {
	t.Helper()
	for _, schema := range []*field.Schema{field.IPv4FiveTuple(), field.PaperExample(), field.FourTuple()} {
		r, err := ParseRule(schema, text)
		rr, rerr := parseRuleReference(schema, text)
		if !sameRule(r, err, rr, rerr) {
			t.Fatalf("ParseRule(%q) over %v = %v, %v; reference %v, %v", text, schema, r, err, rr, rerr)
		}
		for fi := range schema.NumFields() {
			f := schema.Field(fi)
			s, err := ParseValueSet(f, text)
			rs, rerr := parseValueSetReference(f, text)
			if !sameRule(Rule{Pred: Predicate{s}}, err, Rule{Pred: Predicate{rs}}, rerr) {
				t.Fatalf("ParseValueSet(%s, %q) = %v, %v; reference %v, %v", f.Name, text, s, err, rs, rerr)
			}
		}
		p, err := ParsePolicyString(schema, text)
		rp, rerr := parsePolicyReference(schema, strings.NewReader(text))
		if fmt.Sprint(err) != fmt.Sprint(rerr) || err == nil && FormatPolicy(p) != FormatPolicy(rp) {
			t.Fatalf("ParsePolicyString(%q) = %v; reference %v", text, err, rerr)
		}
	}
}

// FuzzParseRuleMatchesReference holds the arena lexer to the reference
// parser on arbitrary lines: the same rule, or a byte-identical error.
// Plain go test runs it over the seed corpus.
func FuzzParseRuleMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkMatchesReference)
}

// TestParsePolicyLineBound pins ParsePolicy's 1 MiB line bound, which
// bufio.Scanner used to enforce, at its exact edge.
func TestParsePolicyLineBound(t *testing.T) {
	t.Parallel()
	schema := field.IPv4FiveTuple()
	pad := func(n int) string { return "any -> accept" + strings.Repeat(" ", n-len("any -> accept")) }
	for _, text := range []string{
		"dport in 1 -> accept\n" + pad(1<<20-1) + "\n",
		"dport in 1 -> accept\n" + pad(1<<20) + "\n",
		"dport in 1 -> accept\n" + pad(1<<20-1),
		pad(1 << 20),
		"bad\n" + pad(1<<20),
	} {
		_, err := ParsePolicy(schema, strings.NewReader(text))
		_, rerr := parsePolicyReference(schema, strings.NewReader(text))
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Errorf("line of %d bytes: err = %v; reference %v", len(text), err, rerr)
		}
	}
	// A read error comes after the lines read before it, the last one
	// included even without its newline.
	for _, text := range []string{"any -> accept\n", "any -> accept\nbad", "bad\nany -> accept"} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(errors.New("boom"))) }
		_, err := ParsePolicy(schema, r())
		_, rerr := parsePolicyReference(schema, r())
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Errorf("read error after %q: err = %v; reference %v", text, err, rerr)
		}
	}
}
