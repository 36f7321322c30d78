package rule

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/prefix"
)

func TestParseRuleBasics(t *testing.T) {
	t.Parallel()
	s := testSchema()
	r, err := ParseRule(s, "x in 0-4 && y in 7 -> discard")
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision != Discard {
		t.Fatalf("decision = %v", r.Decision)
	}
	if !r.Pred[0].Equal(interval.SetOf(0, 4)) || !r.Pred[1].Equal(interval.SetOf(7, 7)) {
		t.Fatalf("pred = %v", r.Pred)
	}
}

func TestParseRuleOmittedFieldsAreFullDomain(t *testing.T) {
	t.Parallel()
	s := testSchema()
	r, err := ParseRule(s, "y in 3 -> accept")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pred[0].Equal(s.FullSet(0)) {
		t.Fatalf("omitted field should be full domain, got %v", r.Pred[0])
	}
}

func TestParseRuleAny(t *testing.T) {
	t.Parallel()
	s := testSchema()
	for _, line := range []string{"any -> accept", "* -> accept", "-> accept", "ANY -> accept"} {
		r, err := ParseRule(s, line)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", line, err)
			continue
		}
		for i := range r.Pred {
			if !r.Pred[i].Equal(s.FullSet(i)) {
				t.Errorf("ParseRule(%q): field %d not full", line, i)
			}
		}
	}
}

func TestParseRuleEqualsSyntax(t *testing.T) {
	t.Parallel()
	s := testSchema()
	r, err := ParseRule(s, "x=2 && y=0-3 -> accept")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pred[0].Equal(interval.SetOf(2, 2)) || !r.Pred[1].Equal(interval.SetOf(0, 3)) {
		t.Fatalf("pred = %v", r.Pred)
	}
}

func TestParseRuleUnion(t *testing.T) {
	t.Parallel()
	s := testSchema()
	r, err := ParseRule(s, "x in 0-1|5|8-9 -> accept")
	if err != nil {
		t.Fatal(err)
	}
	want := interval.NewSet(interval.MustNew(0, 1), interval.Point(5), interval.MustNew(8, 9))
	if !r.Pred[0].Equal(want) {
		t.Fatalf("pred = %v, want %v", r.Pred[0], want)
	}
}

func TestParseRuleErrors(t *testing.T) {
	t.Parallel()
	s := testSchema()
	bad := []string{
		"x in 0-4 accept",            // no arrow
		"z in 3 -> accept",           // unknown field
		"x in 3 && x in 4 -> accept", // duplicate field
		"x in 99 -> accept",          // out of domain
		"x in -> accept",             // empty value
		"x in a-b -> accept",         // garbage range
		"x in 3 -> fly",              // unknown decision
		"x 3 -> accept",              // bad conjunct shape
	}
	for _, line := range bad {
		if _, err := ParseRule(s, line); err == nil {
			t.Errorf("ParseRule(%q) should fail", line)
		}
	}
}

// TestParseRuleDuplicateFieldWide covers the duplicate-field bitmask on
// a schema wider than one 64-bit word.
func TestParseRuleDuplicateFieldWide(t *testing.T) {
	t.Parallel()
	fields := make([]field.Field, 70)
	for i := range fields {
		fields[i] = field.Field{Name: fmt.Sprintf("f%d", i), Domain: interval.MustNew(0, 9), Kind: field.KindInt}
	}
	s := field.MustSchema(fields...)
	if _, err := ParseRule(s, "f3 in 1 && f67 in 2 && f64 in 3 -> accept"); err != nil {
		t.Fatalf("distinct fields rejected: %v", err)
	}
	for _, line := range []string{"f67 in 1 && f67 in 2 -> accept", "f3 in 1 && f3 in 2 -> accept"} {
		_, err := ParseRule(s, line)
		if err == nil || !strings.Contains(err.Error(), "appears twice") {
			t.Errorf("ParseRule(%q) err = %v, want duplicate-field error", line, err)
		}
	}
}

func TestParseValueSetComplement(t *testing.T) {
	t.Parallel()
	s := testSchema()
	xf := s.Field(0) // domain [0,9]
	got, err := ParseValueSet(xf, "!3")
	if err != nil {
		t.Fatal(err)
	}
	want := interval.NewSet(interval.MustNew(0, 2), interval.MustNew(4, 9))
	if !got.Equal(want) {
		t.Fatalf("!3 = %v, want %v", got, want)
	}
	got, err = ParseValueSet(xf, "!0-3|8-9")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(interval.SetOf(4, 7)) {
		t.Fatalf("!0-3|8-9 = %v", got)
	}
	// Complement of the whole domain is empty: rejected.
	if _, err := ParseValueSet(xf, "!*"); err == nil {
		t.Fatal("!* should fail")
	}
}

func TestFormatValueSetComplement(t *testing.T) {
	t.Parallel()
	s := ipv4Schema()
	srcF := s.Field(0)
	// "Everything except the malicious /16" renders complemented.
	mal := interval.SetOf(0xE0A80000, 0xE0A8FFFF)
	notMal := mal.ComplementWithin(srcF.Domain)
	if got := FormatValueSet(srcF, notMal); got != "!224.168.0.0/16" {
		t.Fatalf("got %q", got)
	}
	// And it round-trips.
	back, err := ParseValueSet(srcF, "!224.168.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(notMal) {
		t.Fatal("complement round trip failed")
	}
	// A plain interval does not get complemented notation.
	if got := FormatValueSet(srcF, mal); got != "224.168.0.0/16" {
		t.Fatalf("got %q", got)
	}
}

func TestComplementParenthesized(t *testing.T) {
	t.Parallel()
	s := ipv4Schema()
	srcF := s.Field(0)
	// Complement of a two-block union renders with parentheses and round
	// trips.
	two := interval.NewSet(
		interval.MustNew(0x08080808, 0x08080808), // 8.8.8.8
		interval.MustNew(0xC0A80001, 0xC0A80001), // 192.168.0.1
	)
	notTwo := two.ComplementWithin(srcF.Domain)
	got := FormatValueSet(srcF, notTwo)
	if got != "!(8.8.8.8|192.168.0.1)" {
		t.Fatalf("got %q", got)
	}
	back, err := ParseValueSet(srcF, got)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(notTwo) {
		t.Fatal("parenthesized complement did not round trip")
	}
}

func TestParsePolicyCommentsAndBlanks(t *testing.T) {
	t.Parallel()
	s := testSchema()
	text := `
# header comment
x in 0-4 -> discard   # inline comment

any -> accept
`
	p, err := ParsePolicyString(s, text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d", p.Size())
	}
	if p.Rules[0].Decision != Discard || p.Rules[1].Decision != Accept {
		t.Fatal("decisions wrong")
	}
}

func TestParsePolicyReportsLineNumbers(t *testing.T) {
	t.Parallel()
	s := testSchema()
	_, err := ParsePolicyString(s, "any -> accept\nbroken line\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 error", err)
	}
}

func ipv4Schema() *field.Schema {
	return field.MustSchema(
		field.Field{Name: "src", Domain: interval.MustNew(0, 1<<32-1), Kind: field.KindIPv4},
		field.Field{Name: "proto", Domain: interval.MustNew(0, 255), Kind: field.KindProto},
	)
}

func TestParseRuleIPv4AndProto(t *testing.T) {
	t.Parallel()
	s := ipv4Schema()
	r, err := ParseRule(s, "src in 224.168.0.0/16 && proto in tcp -> discard")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pred[0].Equal(interval.SetOf(0xE0A80000, 0xE0A8FFFF)) {
		t.Fatalf("src = %v", r.Pred[0])
	}
	if !r.Pred[1].Equal(interval.SetOf(6, 6)) {
		t.Fatalf("proto = %v", r.Pred[1])
	}

	// Address ranges and bare addresses.
	r, err = ParseRule(s, "src in 10.0.0.1-10.0.0.5|192.168.0.1 -> accept")
	if err != nil {
		t.Fatal(err)
	}
	want := interval.NewSet(interval.MustNew(0x0A000001, 0x0A000005), interval.Point(0xC0A80001))
	if !r.Pred[0].Equal(want) {
		t.Fatalf("src = %v, want %v", r.Pred[0], want)
	}
}

func TestFormatValueSet(t *testing.T) {
	t.Parallel()
	s := ipv4Schema()
	srcF, protoF := s.Field(0), s.Field(1)

	if got := FormatValueSet(srcF, s.FullSet(0)); got != "*" {
		t.Fatalf("full domain = %q", got)
	}
	if got := FormatValueSet(srcF, interval.SetOf(0xE0A80000, 0xE0A8FFFF)); got != "224.168.0.0/16" {
		t.Fatalf("CIDR = %q", got)
	}
	if got := FormatValueSet(srcF, interval.NewSet(interval.Point(0x0A000001))); got != "10.0.0.1" {
		t.Fatalf("point = %q", got)
	}
	// Not a single CIDR block: falls back to a range.
	if got := FormatValueSet(srcF, interval.SetOf(0x0A000001, 0x0A000005)); got != "10.0.0.1-10.0.0.5" {
		t.Fatalf("range = %q", got)
	}
	if got := FormatValueSet(protoF, interval.SetOf(6, 6)); got != "tcp" {
		t.Fatalf("proto = %q", got)
	}
	if got := FormatValueSet(protoF, interval.SetOf(99, 99)); got != "99" {
		t.Fatalf("unknown proto = %q", got)
	}
}

// formatValueSetReference is FormatValueSet as first written: it builds
// the complement to count its intervals and renders atoms with
// fmt.Sprintf. FormatValueSet must stay byte-identical to it.
func formatValueSetReference(f field.Field, s interval.Set) string {
	atoms := func(s interval.Set) string {
		var parts []string
		for _, iv := range s.Intervals() {
			var atom string
			switch {
			case f.Kind == field.KindIPv4:
				quad := func(v uint64) string {
					return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
				}
				if ps, err := prefix.FromInterval(iv, 32); err == nil && len(ps) == 1 {
					atom = fmt.Sprintf("%s/%d", quad(ps[0].Bits), ps[0].Len)
					if ps[0].Len == 32 {
						atom = quad(ps[0].Bits)
					}
				} else {
					atom = quad(iv.Lo) + "-" + quad(iv.Hi)
				}
			case f.Kind == field.KindProto && iv.Lo == iv.Hi && protoNames[iv.Lo] != "":
				atom = protoNames[iv.Lo]
			case iv.Lo == iv.Hi:
				atom = fmt.Sprintf("%d", iv.Lo)
			default:
				atom = fmt.Sprintf("%d-%d", iv.Lo, iv.Hi)
			}
			parts = append(parts, atom)
		}
		return strings.Join(parts, "|")
	}
	if s.Equal(interval.SetFromInterval(f.Domain)) {
		return "*"
	}
	if c := s.ComplementWithin(f.Domain); !c.Empty() && c.NumIntervals() < s.NumIntervals() {
		inner := atoms(c)
		if strings.Contains(inner, "|") {
			return "!(" + inner + ")"
		}
		return "!" + inner
	}
	return atoms(s)
}

// TestFormatValueSetMatchesReference pins FormatValueSet, which picks the
// complemented form from interval counts, to the reference that builds
// the complement: a table of the edge cases (each domain end covered or
// not, one to three intervals, out-of-domain values), then random sets.
func TestFormatValueSetMatchesReference(t *testing.T) {
	t.Parallel()
	port := field.Field{Name: "p", Domain: interval.MustNew(0, 65535), Kind: field.KindPort}
	proto := field.Field{Name: "proto", Domain: interval.MustNew(0, 255), Kind: field.KindProto}
	addr := field.Field{Name: "src", Domain: interval.MustNew(0, 1<<32-1), Kind: field.KindIPv4}
	small := field.Field{Name: "x", Domain: interval.MustNew(0, 10), Kind: field.KindInt}
	set := func(bounds ...uint64) interval.Set {
		var ivs []interval.Interval
		for i := 0; i < len(bounds); i += 2 {
			ivs = append(ivs, interval.MustNew(bounds[i], bounds[i+1]))
		}
		return interval.NewSet(ivs...)
	}
	cases := []struct {
		f    field.Field
		s    interval.Set
		want string
	}{
		{port, set(0, 65535), "*"},
		{port, set(25, 25), "25"},
		{port, set(0, 24, 26, 65535), "!25"},
		{port, set(0, 24, 26, 79, 81, 65535), "!(25|80)"},
		{port, set(0, 24, 26, 65534), "0-24|26-65534"},
		{port, set(1, 24, 26, 65535), "1-24|26-65535"},
		{port, set(1, 24, 26, 65534), "1-24|26-65534"},
		{port, set(80, 80, 443, 443), "80|443"},
		{proto, set(0, 5, 7, 255), "!tcp"},
		{proto, set(6, 6, 17, 17), "tcp|udp"},
		{addr, set(0, 0xE0A7FFFF, 0xE0A90000, 1<<32-1), "!224.168.0.0/16"},
		{addr, set(0x0A000001, 0x0A000005), "10.0.0.1-10.0.0.5"},
		{small, interval.Set{}, ""},
		// Out-of-domain values: the count argument does not apply.
		{small, set(0, 2, 5, 6, 8, 20), "!(3-4|7)"},
		{small, set(3, 4, 20, 30, 40, 50), "!(0-2|5-10)"},
		{small, set(20, 30), "20-30"},
	}
	for _, tc := range cases {
		got, ref := FormatValueSet(tc.f, tc.s), formatValueSetReference(tc.f, tc.s)
		if got != tc.want || ref != tc.want {
			t.Errorf("%s %v: got %q, reference %q, want %q", tc.f.Name, tc.s, got, ref, tc.want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		f := []field.Field{port, proto, addr, small}[i%4]
		hi := f.Domain.Hi
		var ivs []interval.Interval
		for k := r.Intn(4); k >= 0; k-- {
			lo := uint64(r.Int63n(int64(hi) + 1))
			if r.Intn(4) == 0 {
				lo = []uint64{0, hi}[r.Intn(2)]
			}
			ivs = append(ivs, interval.MustNew(lo, lo+uint64(r.Int63n(int64(hi-lo)+1))))
		}
		s := interval.NewSet(ivs...)
		if got, ref := FormatValueSet(f, s), formatValueSetReference(f, s); got != ref {
			t.Fatalf("%s %v: got %q, reference %q", f.Name, s, got, ref)
		}
	}
}

// appendValueSetReference is AppendValueSet as it was before it wrote
// the gaps between a set's intervals itself: it builds every complement
// it prints with ComplementWithin. AppendValueSet must stay
// byte-identical to it.
func appendValueSetReference(b []byte, f field.Field, s interval.Set) []byte {
	dom := f.Domain
	lo, _ := s.Min()
	hi, _ := s.Max()
	complement := false
	switch {
	case s.Empty():
	case lo < dom.Lo || hi > dom.Hi:
		c := s.ComplementWithin(dom)
		complement = !c.Empty() && c.NumIntervals() < s.NumIntervals()
	case lo == dom.Lo && hi == dom.Hi:
		if s.NumIntervals() == 1 {
			return append(b, '*')
		}
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

// TestAppendValueSetMatchesReference holds AppendValueSet to the
// complement-building reference over random sets of every field kind:
// sets touching neither, one or both domain ends, with up to a dozen
// intervals, and sets reaching past the domain on either side. Each is
// appended after existing bytes, which must stay as they are.
func TestAppendValueSetMatchesReference(t *testing.T) {
	t.Parallel()
	fields := []field.Field{
		{Name: "p", Domain: interval.MustNew(0, 65535), Kind: field.KindPort},
		{Name: "proto", Domain: interval.MustNew(0, 255), Kind: field.KindProto},
		{Name: "src", Domain: interval.MustNew(0, 1<<32-1), Kind: field.KindIPv4},
		{Name: "x", Domain: interval.MustNew(0, 10), Kind: field.KindInt},
		{Name: "y", Domain: interval.MustNew(5, 900), Kind: field.KindInt},
	}
	r := rand.New(rand.NewSource(35))
	kinds := map[string]int{}
	for i := 0; i < 20000; i++ {
		f := fields[i%len(fields)]
		dom := f.Domain
		// Values range a little past the domain on both sides when the
		// set is to reach outside it, and stay inside otherwise.
		lo, hi := dom.Lo, dom.Hi
		if r.Intn(5) == 0 {
			lo, hi = dom.Lo-min(dom.Lo, 3), dom.Hi+3
		}
		var ivs []interval.Interval
		for k := r.Intn(12); k >= 0; k-- {
			a := lo + uint64(r.Int63n(int64(hi-lo)+1))
			switch r.Intn(6) {
			case 0:
				a = dom.Lo
			case 1:
				a = hi
			}
			b := a + uint64(r.Int63n(int64(min(hi-a, uint64(r.Intn(3)+1)*(hi-lo)/16))+1))
			if r.Intn(6) == 0 {
				b = max(a, dom.Hi)
			}
			ivs = append(ivs, interval.MustNew(a, b))
		}
		s := interval.NewSet(ivs...)
		got := AppendValueSet([]byte("p="), f, s)
		want := appendValueSetReference([]byte("p="), f, s)
		if string(got) != string(want) {
			t.Fatalf("%s %v: got %q, reference %q", f.Name, s, got, want)
		}
		smin, _ := s.Min()
		smax, _ := s.Max()
		switch {
		case s.Empty():
		case smin < dom.Lo || smax > dom.Hi:
			kinds["outside"]++
		case smin == dom.Lo && smax == dom.Hi && s.NumIntervals() > 2:
			kinds["both ends, several gaps"]++
		case smin == dom.Lo && smax == dom.Hi && s.NumIntervals() == 2:
			kinds["both ends, one gap"]++
		}
	}
	for _, kind := range []string{"outside", "both ends, several gaps", "both ends, one gap"} {
		if kinds[kind] < 100 {
			t.Fatalf("only %d random sets are %s: %v", kinds[kind], kind, kinds)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	t.Parallel()
	s := ipv4Schema()
	text := `src in 224.168.0.0/16 && proto in tcp -> discard
src in 10.0.0.1-10.0.0.5 -> accept-log
proto in udp|icmp -> discard
any -> accept
`
	p, err := ParsePolicyString(s, text)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPolicy(p)
	p2, err := ParsePolicyString(s, out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if p2.Size() != p.Size() {
		t.Fatalf("size changed: %d vs %d", p2.Size(), p.Size())
	}
	for i := range p.Rules {
		if p.Rules[i].Decision != p2.Rules[i].Decision {
			t.Fatalf("rule %d decision changed", i)
		}
		for fi := range p.Rules[i].Pred {
			if !p.Rules[i].Pred[fi].Equal(p2.Rules[i].Pred[fi]) {
				t.Fatalf("rule %d field %d changed: %v vs %v",
					i, fi, p.Rules[i].Pred[fi], p2.Rules[i].Pred[fi])
			}
		}
	}
}

func TestWritePolicy(t *testing.T) {
	t.Parallel()
	s := testSchema()
	p := MustPolicy(s, []Rule{CatchAll(s, Accept)})
	var sb strings.Builder
	if err := WritePolicy(&sb, p); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "any -> accept\n" {
		t.Fatalf("got %q", sb.String())
	}
}

// TestCidrLenMatchesFromInterval holds cidrLen to prefix.FromInterval
// giving exactly one prefix: aligned blocks of every size, each nudged
// by one at either end, whole and out-of-range intervals, and random
// ones.
func TestCidrLenMatchesFromInterval(t *testing.T) {
	t.Parallel()
	check := func(iv interval.Interval) {
		t.Helper()
		n, ok := cidrLen(iv)
		ps, err := prefix.FromInterval(iv, 32)
		one := err == nil && len(ps) == 1
		if ok != one || (ok && (n != ps[0].Len || ps[0].Bits != iv.Lo)) {
			t.Fatalf("%v: cidrLen %d %v, FromInterval %v %v", iv, n, ok, ps, err)
		}
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k <= 32; k++ {
		size := uint64(1) << k
		lo := uint64(r.Int63n(1<<32)) &^ (size - 1)
		hi := lo + size - 1
		check(interval.MustNew(lo, hi))
		if hi < 1<<32-1 {
			check(interval.MustNew(lo, hi+1))
		}
		if lo > 0 {
			check(interval.MustNew(lo-1, hi))
		}
		if lo < hi {
			check(interval.MustNew(lo+1, hi))
		}
	}
	check(interval.MustNew(0, 1<<32))
	check(interval.MustNew(1<<32, 1<<32))
	for range 2000 {
		lo := uint64(r.Int63n(1 << 32))
		check(interval.MustNew(lo, lo+uint64(r.Int63n(int64(1<<32-lo)))))
	}
}
