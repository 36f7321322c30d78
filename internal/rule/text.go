package rule

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode"

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

// knownProtos lists the symbolic protocol names fields of kind KindProto
// accept, with their IANA numbers.
var knownProtos = [...]struct {
	name string
	num  uint64
}{{"icmp", 1}, {"tcp", 6}, {"udp", 17}}

// protoNames is the reverse of knownProtos for formatting.
var protoNames = map[uint64]string{1: "icmp", 6: "tcp", 17: "udp"}

// maxLineBytes bounds a line of ParsePolicy input. A line this long or
// longer fails the parse with bufio.ErrTooLong, the error bufio.Scanner
// gives for it.
const maxLineBytes = 1 << 20

// ParsePolicy reads a policy in the text format from r. A line of 1 MiB
// or more is an error.
func ParsePolicy(schema *field.Schema, r io.Reader) (*Policy, error) {
	var text strings.Builder
	_, err := io.Copy(&text, r)
	return parsePolicy(schema, text.String(), err)
}

// ParsePolicyString is ParsePolicy over an in-memory string.
func ParsePolicyString(schema *field.Schema, s string) (*Policy, error) {
	return parsePolicy(schema, s, nil)
}

// parsePolicy parses text, the input read before readErr ended the read
// (nil at end of input). Errors come in the order reading line by line
// meets them: a bad line, a line over the bound, the read error, then
// NewPolicy's validation.
func parsePolicy(schema *field.Schema, text string, readErr error) (*Policy, error) {
	var lineErr error
	rules, err := parseLines(schema, text, maxLineBytes, func(line int, err error) bool {
		lineErr = fmt.Errorf("line %d: %w", line, err)
		return false
	})
	switch {
	case lineErr != nil:
		return nil, lineErr
	case err != nil:
		return nil, fmt.Errorf("rule: read policy: %w", err)
	case readErr != nil:
		return nil, fmt.Errorf("rule: read policy: %w", readErr)
	}
	return adoptPolicy(schema, rules)
}

// ParseLines parses policy text that may have many bad lines: it calls
// bad with the 1-based number and error of each line that does not
// parse, and stops early when bad returns false. If bad was never
// called, it returns the policy, validated as NewPolicy validates;
// otherwise it returns a nil policy and no error.
func ParseLines(schema *field.Schema, text string, bad func(line int, err error) bool) (*Policy, error) {
	failed := false
	rules, _ := parseLines(schema, text, 0, func(line int, err error) bool {
		failed = true
		return bad(line, err)
	})
	if failed {
		return nil, nil
	}
	return adoptPolicy(schema, rules)
}

// parseLines is the policy line loop. Each line of text, minus its '#'
// comment and surrounding space, is one rule; blank lines are skipped.
// All the rules share one arena sized to text. A bad line goes to bad,
// and the loop stops when bad returns false. With maxLine > 0, a line of
// maxLine bytes or more ends the loop with bufio.ErrTooLong.
func parseLines(schema *field.Schema, text string, maxLine int, bad func(line int, err error) bool) ([]Rule, error) {
	if schema == nil {
		return nil, nil // adoptPolicy reports the nil schema
	}
	a := newArena(schema, text)
	rules := make([]Rule, 0, a.maxRules)
	for n, rest, more := 1, text, true; more; n++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if maxLine > 0 && len(line) >= maxLine {
			return nil, bufio.ErrTooLong
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		rl, err := a.rule(line)
		if err != nil {
			if !bad(n, err) {
				break
			}
			continue
		}
		rules = append(rules, rl)
	}
	return rules, nil
}

// adoptPolicy is NewPolicy for a rule slice the parser owns: it
// validates the same way but keeps rules instead of copying them.
func adoptPolicy(schema *field.Schema, rules []Rule) (*Policy, error) {
	if err := validateRules(schema, rules); err != nil {
		return nil, err
	}
	return &Policy{Schema: schema, Rules: rules[:len(rules):len(rules)]}, nil
}

// arena is the storage one parse lowers rules into. Every interval of
// every value set lives in the ivs slab and every predicate in the sets
// slab, so a policy costs a few allocations however many rules it has.
// A field a rule omits shares full, the schema's full-domain sets.
// Sets adopt their runs of ivs with clipped capacity
// (interval.NewSetInPlace), so nothing can write from one into the next.
type arena struct {
	schema   *field.Schema
	ivs      []interval.Interval
	sets     []interval.Set
	full     []interval.Set
	maxRules int
}

// newArena sizes an arena for text. A rule is one line, each of its
// sets is one "&&"-separated conjunct, and each set's intervals are its
// '|'-separated atoms plus at most one more per '!' complement, so byte
// counts of text bound both slabs without a first parse.
func newArena(schema *field.Schema, text string) arena {
	n := schema.NumFields()
	lines := strings.Count(text, "\n") + 1
	conjuncts := lines + strings.Count(text, "&")/2
	atoms := conjuncts + strings.Count(text, "|") + strings.Count(text, "!")
	a := arena{
		schema:   schema,
		ivs:      make([]interval.Interval, 0, n+atoms),
		sets:     make([]interval.Set, 0, n*(lines+1)),
		maxRules: lines,
	}
	for i := range n {
		a.ivs = append(a.ivs, schema.Domain(i))
		a.sets = append(a.sets, interval.NewSetInPlace(a.ivs[i:]))
	}
	a.full = a.sets[:n:n]
	return a
}

// ParseRule parses a single "predicate -> decision" line.
func ParseRule(schema *field.Schema, line string) (Rule, error) {
	a := newArena(schema, line)
	return a.rule(line)
}

// rule lexes one "predicate -> decision" line into a rule whose
// predicate and sets live in the arena. A failed line leaves the arena
// as it found it.
func (a *arena) rule(line string) (Rule, error) {
	arrow := strings.LastIndex(line, "->")
	if arrow < 0 {
		return Rule{}, fmt.Errorf("rule: missing '->' in %q", line)
	}
	predText := strings.TrimSpace(line[:arrow])
	dec, err := ParseDecision(strings.TrimSpace(line[arrow+2:]))
	if err != nil {
		return Rule{}, err
	}

	ivMark, setMark := len(a.ivs), len(a.sets)
	a.sets = append(a.sets, a.full...)
	pred := Predicate(a.sets[setMark:len(a.sets):len(a.sets)])
	if strings.EqualFold(predText, "any") || predText == "*" || predText == "" {
		return Rule{Pred: pred, Decision: dec}, nil
	}
	// seen is a field bitmask: one word covers every standard schema, and
	// only schemas past 64 fields spill to the heap.
	var seenWord [1]uint64
	seen := seenWord[:]
	if n := a.schema.NumFields(); n > 64 {
		seen = make([]uint64, (n+63)/64)
	}
	for rest, more := predText, true; more; {
		var conj string
		conj, rest, more = strings.Cut(rest, "&&")
		if err := a.conjunct(pred, seen, strings.TrimSpace(conj)); err != nil {
			a.ivs, a.sets = a.ivs[:ivMark], a.sets[:setMark]
			return Rule{}, err
		}
	}
	return Rule{Pred: pred, Decision: dec}, nil
}

// conjunct lexes one "<field> in <values>" conjunct into pred.
func (a *arena) conjunct(pred Predicate, seen []uint64, conj string) error {
	name, valText, ok := cutConjunct(conj)
	if !ok {
		return fmt.Errorf("rule: bad conjunct %q (want \"<field> in <values>\")", conj)
	}
	fi := a.schema.IndexOf(name)
	if fi < 0 {
		return fmt.Errorf("rule: unknown field %q", name)
	}
	word, bit := fi/64, uint64(1)<<(fi%64)
	if seen[word]&bit != 0 {
		return fmt.Errorf("rule: field %q appears twice", name)
	}
	seen[word] |= bit
	set, err := a.values(a.schema.Field(fi), valText)
	if err != nil {
		return err
	}
	pred[fi] = set
	return nil
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
	a := arena{ivs: make([]interval.Interval, 0, 1+strings.Count(text, "|")+strings.Count(text, "!"))}
	return a.values(f, text)
}

// values lexes a value list onto the end of the ivs slab and returns the
// set adopting its canonical intervals, the slab's last run. On error it
// may leave intervals behind; the rule rolls the slab back.
func (a *arena) values(f field.Field, text string) (interval.Set, error) {
	text = strings.TrimSpace(text)
	start := len(a.ivs)
	switch {
	case text == "*" || strings.EqualFold(text, "any") || strings.EqualFold(text, "all"):
		a.ivs = append(a.ivs, f.Domain)
	case strings.HasPrefix(text, "!"):
		body := strings.TrimSpace(text[1:])
		if strings.HasPrefix(body, "(") && strings.HasSuffix(body, ")") {
			body = body[1 : len(body)-1]
		}
		if _, err := a.values(f, body); err != nil {
			return interval.Set{}, err
		}
		// The inner set is dropped, so its run may be overwritten.
		if !a.complement(start, f.Domain) {
			return interval.Set{}, fmt.Errorf("rule: complement %q is empty for field %s", text, f.Name)
		}
	default:
		for rest, more := text, true; more; {
			var atom string
			atom, rest, more = strings.Cut(rest, "|")
			iv, err := parseValueAtom(f, strings.TrimSpace(atom))
			if err != nil {
				return interval.Set{}, err
			}
			a.ivs = append(a.ivs, iv)
		}
		s := interval.NewSetInPlace(a.ivs[start:])
		a.ivs = a.ivs[:start+s.NumIntervals()]
		lo, _ := s.Min()
		hi, _ := s.Max()
		if lo < f.Domain.Lo || hi > f.Domain.Hi {
			return interval.Set{}, fmt.Errorf("rule: value %q exceeds domain %v of field %s", text, f.Domain, f.Name)
		}
		return s, nil
	}
	return interval.NewSetInPlace(a.ivs[start:]), nil
}

// complement replaces the canonical run a.ivs[start:], which lies
// within dom, by its complement within dom (the gaps between its
// intervals, itself canonical) and reports whether that is nonempty.
// Gap k is written at or before index start+k, after interval k has
// been read, so the walk needs no scratch space.
func (a *arena) complement(start int, dom interval.Interval) bool {
	w, next := start, dom.Lo
	for _, iv := range a.ivs[start:] {
		if iv.Lo > next {
			a.ivs[w] = interval.Interval{Lo: next, Hi: iv.Lo - 1}
			w++
		}
		if iv.Hi == dom.Hi {
			a.ivs = a.ivs[:w]
			return w > start
		}
		next = iv.Hi + 1
	}
	a.ivs = append(a.ivs[:w], interval.Interval{Lo: next, Hi: dom.Hi})
	return true
}

func parseValueAtom(f field.Field, atom string) (interval.Interval, error) {
	if atom == "" {
		return interval.Interval{}, fmt.Errorf("rule: empty value for field %s", f.Name)
	}
	switch f.Kind {
	case field.KindIPv4:
		if strings.IndexByte(atom, '.') >= 0 {
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
		for _, p := range knownProtos {
			if lowerEqual(atom, p.name) {
				return interval.Point(p.num), nil
			}
		}
	}
	// Generic decimal point or range; i>0: a leading '-' is invalid anyway.
	lo, hi := atom, atom
	if i := strings.IndexByte(atom, '-'); i > 0 {
		lo, hi = strings.TrimSpace(atom[:i]), strings.TrimSpace(atom[i+1:])
	}
	l, okLo := parseDecimal(lo)
	h, okHi := parseDecimal(hi)
	if !okLo || !okHi {
		return interval.Interval{}, fmt.Errorf("rule: bad value %q for field %s", atom, f.Name)
	}
	return interval.New(l, h)
}

// lowerEqual reports whether strings.ToLower(s) == lower, for an
// all-ASCII lowercase lower, without building the lowered string.
func lowerEqual(s, lower string) bool {
	for _, r := range s {
		if lower == "" || unicode.ToLower(r) != rune(lower[0]) {
			return false
		}
		lower = lower[1:]
	}
	return lower == ""
}

// parseDecimal accepts what strconv.ParseUint(s, 10, 64) accepts: one
// or more decimal digits whose value fits in 64 bits.
func parseDecimal(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// FormatValueSet renders a value set for the field in the same syntax
// ParseValueSet accepts: "*" for the full domain, otherwise '|'-joined
// atoms (CIDR blocks for IPv4 where exact, symbolic protocols, decimal
// points/ranges elsewhere). Sets whose complement is strictly simpler
// render complemented ("!25", "!224.168.0.0/16") — the paper's "N != 25"
// and "S not in the malicious domain" style.
func FormatValueSet(f field.Field, s interval.Set) string {
	return string(AppendValueSet(nil, f, s))
}

// AppendValueSet appends FormatValueSet's rendering of s to b, the form
// a caller writing a report straight into a buffer uses. It picks the
// complemented form from interval counts, and within the domain appends
// the complement's intervals, the gaps between s's, without building it.
func AppendValueSet(b []byte, f field.Field, s interval.Set) []byte {
	dom := f.Domain
	lo, _ := s.Min()
	hi, _ := s.Max()
	switch {
	case s.Empty():
	case lo < dom.Lo || hi > dom.Hi:
		// Values outside the domain (a validated policy has none): the
		// count argument below does not hold, so build the complement.
		if c := s.ComplementWithin(dom); !c.Empty() && c.NumIntervals() < s.NumIntervals() {
			return appendNot(b, c.NumIntervals(), func(b []byte) []byte { return appendAtoms(b, f, c) })
		}
	case lo == dom.Lo && hi == dom.Hi:
		if s.NumIntervals() == 1 {
			return append(b, '*')
		}
		// Within the domain, the complement of n intervals is the n-1
		// gaps between them plus one interval per domain end s leaves
		// uncovered. It is strictly simpler exactly when s reaches both,
		// and then it is the gaps alone.
		return appendNot(b, s.NumIntervals()-1, func(b []byte) []byte { return appendGaps(b, f, s) })
	}
	return appendAtoms(b, f, s)
}

// appendNot appends the complement whose n atoms atoms appends: !a for
// one atom, !(a|b|...) for more.
func appendNot(b []byte, n int, atoms func([]byte) []byte) []byte {
	if n == 1 {
		return atoms(append(b, '!'))
	}
	return append(atoms(append(b, "!("...)), ')')
}

// appendGaps appends the gaps between s's intervals as '|'-joined atoms.
func appendGaps(b []byte, f field.Field, s interval.Set) []byte {
	var buf [8]interval.Interval
	ivs := s.AppendIntervals(buf[:0])
	for i := 1; i < len(ivs); i++ {
		if i > 1 {
			b = append(b, '|')
		}
		b = appendValueInterval(b, f, interval.Interval{Lo: ivs[i-1].Hi + 1, Hi: ivs[i].Lo - 1})
	}
	return b
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
		if n, ok := cidrLen(iv); ok {
			b = prefix.AppendIPv4(b, iv.Lo)
			if n == 32 {
				return b
			}
			return strconv.AppendInt(append(b, '/'), int64(n), 10)
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

// cidrLen returns the prefix length of iv when iv is exactly one CIDR
// block of the 32-bit address space: its size a power of two and its
// start aligned to it. This is prefix.FromInterval giving one prefix,
// without building the list.
func cidrLen(iv interval.Interval) (int, bool) {
	if iv.Lo > iv.Hi || iv.Hi > math.MaxUint32 {
		return 0, false
	}
	size := iv.Hi - iv.Lo + 1 // at most 2^32: no overflow
	if size&(size-1) != 0 || iv.Lo&(size-1) != 0 {
		return 0, false
	}
	return 32 - bits.TrailingZeros64(size), true
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
		b = AppendValueSet(b, f, s)
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
