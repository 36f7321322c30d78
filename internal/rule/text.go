package rule

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/prefix"
)

// Policy text format
//
// One rule per line, highest priority first:
//
//	S in 224.168.0.0/16 && N in 25 -> discard
//	D in 192.168.0.1 && N in 25 && P in tcp -> accept
//	any -> accept
//
// '#' starts a comment; blank lines are skipped. A conjunct is
// "<field> in <values>"; omitted fields mean the full domain, and the
// keyword "any" is the empty conjunction. Values are '|'-separated atoms:
// "*"/"any" (full domain), decimal "n", range "n-m", and for IPv4 fields
// CIDR "a.b.c.d/l", address "a.b.c.d", or address range
// "a.b.c.d-e.f.g.h". Protocol fields also accept tcp/udp/icmp.

// knownProtos maps symbolic protocol names to IANA numbers, used by fields
// of kind KindProto.
var knownProtos = map[string]uint64{"icmp": 1, "tcp": 6, "udp": 17}

// protoNames is the reverse of knownProtos for formatting.
var protoNames = map[uint64]string{1: "icmp", 6: "tcp", 17: "udp"}

// ParsePolicy reads a policy in the text format from r.
func ParsePolicy(schema *field.Schema, r io.Reader) (*Policy, error) {
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
		rl, err := ParseRule(schema, line)
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

// ParsePolicyString is ParsePolicy over an in-memory string.
func ParsePolicyString(schema *field.Schema, s string) (*Policy, error) {
	return ParsePolicy(schema, strings.NewReader(s))
}

// ParseRule parses a single "predicate -> decision" line.
func ParseRule(schema *field.Schema, line string) (Rule, error) {
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
		// seen is a field bitmask: one word covers every standard
		// schema, and only schemas past 64 fields spill to the heap.
		var seenWord [1]uint64
		seen := seenWord[:]
		if n := schema.NumFields(); n > 64 {
			seen = make([]uint64, (n+63)/64)
		}
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
			word, bit := fi/64, uint64(1)<<(fi%64)
			if seen[word]&bit != 0 {
				return Rule{}, fmt.Errorf("rule: field %q appears twice", name)
			}
			seen[word] |= bit
			set, err := ParseValueSet(schema.Field(fi), valText)
			if err != nil {
				return Rule{}, err
			}
			pred[fi] = set
		}
	}
	return Rule{Pred: pred, Decision: dec}, nil
}

// cutConjunct splits "<field> in <values>" (also accepting "=" as the
// separator) into its parts.
func cutConjunct(conj string) (name, values string, ok bool) {
	if i := strings.Index(conj, " in "); i >= 0 {
		return strings.TrimSpace(conj[:i]), strings.TrimSpace(conj[i+4:]), true
	}
	if i := strings.IndexByte(conj, '='); i >= 0 {
		return strings.TrimSpace(conj[:i]), strings.TrimSpace(conj[i+1:]), true
	}
	return "", "", false
}

// ParseValueSet parses a '|'-separated list of value atoms for the field.
// A leading '!' complements the whole list within the field's domain
// ("!25" is every port but 25, "!224.168.0.0/16" every address outside
// the block).
func ParseValueSet(f field.Field, text string) (interval.Set, error) {
	text = strings.TrimSpace(text)
	if text == "*" || strings.EqualFold(text, "any") || strings.EqualFold(text, "all") {
		return interval.SetFromInterval(f.Domain), nil
	}
	if strings.HasPrefix(text, "!") {
		body := strings.TrimSpace(text[1:])
		if strings.HasPrefix(body, "(") && strings.HasSuffix(body, ")") {
			body = body[1 : len(body)-1]
		}
		inner, err := ParseValueSet(f, body)
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
		iv, err := parseValueAtom(f, strings.TrimSpace(atom))
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

func parseValueAtom(f field.Field, atom string) (interval.Interval, error) {
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
		if v, ok := knownProtos[strings.ToLower(atom)]; ok {
			return interval.Point(v), nil
		}
	}
	// Generic decimal point or range.
	if i := strings.IndexByte(atom, '-'); i > 0 { // i>0: a leading '-' is invalid anyway
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

// FormatValueSet renders a value set for the field in the same syntax
// ParseValueSet accepts: "*" for the full domain, otherwise '|'-joined
// atoms (CIDR blocks for IPv4 where exact, symbolic protocols, decimal
// points/ranges elsewhere). Sets whose complement is strictly simpler
// render complemented ("!25", "!224.168.0.0/16") — the paper's "N != 25"
// and "S not in the malicious domain" style.
func FormatValueSet(f field.Field, s interval.Set) string {
	return string(appendValueSet(nil, f, s))
}

// appendValueSet appends FormatValueSet's rendering of s to b. It picks
// the complemented form from interval counts and builds the complement
// only when it prints it.
func appendValueSet(b []byte, f field.Field, s interval.Set) []byte {
	dom := f.Domain
	lo, _ := s.Min()
	hi, _ := s.Max()
	complement := false
	switch {
	case s.Empty():
	case lo < dom.Lo || hi > dom.Hi:
		// Values outside the domain (a validated policy has none): the
		// count argument below does not hold, so build the complement.
		c := s.ComplementWithin(dom)
		complement = !c.Empty() && c.NumIntervals() < s.NumIntervals()
	case lo == dom.Lo && hi == dom.Hi:
		if s.NumIntervals() == 1 {
			return append(b, '*')
		}
		// Within the domain, the complement of n intervals is the n-1
		// gaps between them plus one interval per domain end s leaves
		// uncovered. It is strictly simpler exactly when s reaches both.
		complement = true
	}
	if !complement {
		return appendAtoms(b, f, s)
	}
	c := s.ComplementWithin(dom)
	if c.NumIntervals() == 1 {
		return appendAtoms(append(b, '!'), f, c)
	}
	b = appendAtoms(append(b, "!("...), f, c)
	return append(b, ')')
}

func appendAtoms(b []byte, f field.Field, s interval.Set) []byte {
	var buf [8]interval.Interval
	for i, iv := range s.AppendIntervals(buf[:0]) {
		if i > 0 {
			b = append(b, '|')
		}
		b = appendValueInterval(b, f, iv)
	}
	return b
}

func appendValueInterval(b []byte, f field.Field, iv interval.Interval) []byte {
	switch f.Kind {
	case field.KindIPv4:
		// Prefer a single CIDR block; fall back to an address range.
		if ps, err := prefix.FromInterval(iv, 32); err == nil && len(ps) == 1 {
			b = prefix.AppendIPv4(b, ps[0].Bits)
			if ps[0].Len == 32 {
				return b
			}
			return strconv.AppendInt(append(b, '/'), int64(ps[0].Len), 10)
		}
		b = prefix.AppendIPv4(b, iv.Lo)
		return prefix.AppendIPv4(append(b, '-'), iv.Hi)
	case field.KindProto:
		if iv.Lo == iv.Hi {
			if name, ok := protoNames[iv.Lo]; ok {
				return append(b, name...)
			}
		}
	}
	b = strconv.AppendUint(b, iv.Lo, 10)
	if iv.Lo == iv.Hi {
		return b
	}
	return strconv.AppendUint(append(b, '-'), iv.Hi, 10)
}

// FormatRule renders the rule in the parseable text format, omitting
// full-domain conjuncts.
func FormatRule(schema *field.Schema, r Rule) string {
	return string(appendRule(nil, schema, r))
}

// appendRule appends FormatRule's rendering of r to b.
func appendRule(b []byte, schema *field.Schema, r Rule) []byte {
	start := len(b)
	for fi, s := range r.Pred {
		f := schema.Field(fi)
		if s.Equal(interval.SetFromInterval(f.Domain)) {
			continue
		}
		if len(b) > start {
			b = append(b, " && "...)
		}
		b = append(append(b, f.Name...), " in "...)
		b = appendValueSet(b, f, s)
	}
	if len(b) == start {
		b = append(b, "any"...)
	}
	return append(append(b, " -> "...), r.Decision.String()...)
}

// FormatPolicy renders the whole policy, one rule per line.
func FormatPolicy(p *Policy) string {
	var b []byte
	for _, r := range p.Rules {
		b = append(appendRule(b, p.Schema, r), '\n')
	}
	return string(b)
}

// WritePolicy writes FormatPolicy output to w.
func WritePolicy(w io.Writer, p *Policy) error {
	_, err := io.WriteString(w, FormatPolicy(p))
	return err
}
