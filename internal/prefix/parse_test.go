package prefix

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"diversefw/internal/interval"
)

// parseIPv4Reference is ParseIPv4 as first written, over strings.Split
// and strconv. ParseIPv4 must accept exactly what it accepts and fail
// with byte-identical errors.
func parseIPv4Reference(s string) (uint64, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("prefix: invalid IPv4 address %q", s)
	}
	var v uint64
	for _, part := range parts {
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("prefix: invalid IPv4 address %q: %v", s, err)
		}
		v = v<<8 | n
	}
	return v, nil
}

// parseCIDRReference is ParseCIDR as first written.
func parseCIDRReference(s string) (interval.Interval, error) {
	addr := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addr = s[:i]
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return interval.Interval{}, fmt.Errorf("prefix: invalid CIDR length in %q", s)
		}
		length = n
	}
	v, err := parseIPv4Reference(addr)
	if err != nil {
		return interval.Interval{}, err
	}
	if length < 32 {
		mask := ^uint64(0) << uint(32-length) & 0xFFFFFFFF
		v &= mask
	}
	p, err := NewPrefix(v, length, 32)
	if err != nil {
		return interval.Interval{}, err
	}
	return p.Interval(), nil
}

var addressCorpus = []string{
	"0.0.0.0", "255.255.255.255", "10.1.2.3", "001.002.003.004",
	"0000000000000000000001.2.3.4", "256.0.0.0", "1.2.3.999", "1.2.3",
	"1.2.3.4.5", "1..2.3", ".1.2.3", "1.2.3.", "", ".", "...", "....",
	"a.b.c.d", "1.2.3.4 ", " 1.2.3.4", "1.2.3.-4", "1.2.3.+4", "1.2.3.4x",
	"99999999999999999999999.1.1.1", "1.2.3.0x1", "1.2.3.١", "1.2.3.4\x00",
	"10.0.0.0/8", "10.0.0.1/8", "10.0.0.0/0", "10.0.0.0/32", "10.0.0.0/33",
	"10.0.0.0/-1", "10.0.0.0/-0", "10.0.0.0/+8", "10.0.0.0/+", "10.0.0.0/",
	"10.0.0.0/08", "10.0.0.0/8/8", "10.0.0.0/ 8", "10.0.0/8", "/8",
	"10.0.0.0/00000000000000000000000000032", "10.0.0.0/99999999999999999999",
	"10.0.0.0/1_0", "300.0.0.0/8", "1.2.3.4/-00",
}

// FuzzParseMatchesReference holds ParseIPv4 and ParseCIDR to the
// references: the same interval or a byte-identical error. Plain
// go test runs it over the seed corpus.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range addressCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseIPv4(s)
		rv, rerr := parseIPv4Reference(s)
		if fmt.Sprint(err) != fmt.Sprint(rerr) || v != rv {
			t.Fatalf("ParseIPv4(%q) = %#x, %v; reference %#x, %v", s, v, err, rv, rerr)
		}
		iv, err := ParseCIDR(s)
		riv, rerr := parseCIDRReference(s)
		if fmt.Sprint(err) != fmt.Sprint(rerr) || iv != riv {
			t.Fatalf("ParseCIDR(%q) = %v, %v; reference %v, %v", s, iv, err, riv, rerr)
		}
	})
}

// TestParseAllocsZero pins that a successful parse allocates nothing:
// the rule lexer calls these once per address atom.
func TestParseAllocsZero(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseIPv4("192.168.10.254"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseIPv4 makes %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseCIDR("192.168.128.0/18"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseCIDR makes %v allocations, want 0", n)
	}
}
