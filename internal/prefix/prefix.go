// Package prefix converts between the prefix formats used by real firewall
// configurations and the integer intervals used by the comparison
// algorithms.
//
// Section 7.1 of the paper: source/destination IP addresses are usually
// written as prefixes (CIDR), while ports and protocols are intervals. Every
// prefix converts to exactly one interval; a w-bit interval converts back to
// at most 2w-2 prefixes. This package implements both directions plus
// IPv4/CIDR/port parsing, so tool input and discrepancy output look like
// ordinary firewall rules.
package prefix

import (
	"fmt"
	"strconv"
	"strings"

	"diversefw/internal/interval"
)

// Prefix is a w-bit value/length pair: the set of w-bit integers whose top
// Len bits equal the top Len bits of Bits. Bits is left-aligned within the
// low w bits (i.e., it is a plain integer, not shifted to 64 bits).
type Prefix struct {
	Bits  uint64 // the prefix bits, low w bits significant, others zero
	Len   int    // number of fixed leading bits, 0..Width
	Width int    // total bit width of the field (e.g. 32 for IPv4)
}

// NewPrefix validates and returns a prefix. Trailing free bits of bits must
// be zero.
func NewPrefix(bits uint64, length, width int) (Prefix, error) {
	if width <= 0 || width > 64 {
		return Prefix{}, fmt.Errorf("prefix: width %d out of range (1..64)", width)
	}
	if length < 0 || length > width {
		return Prefix{}, fmt.Errorf("prefix: length %d out of range (0..%d)", length, width)
	}
	if width < 64 && bits>>uint(width) != 0 {
		return Prefix{}, fmt.Errorf("prefix: bits %#x wider than %d bits", bits, width)
	}
	free := uint(width - length)
	if free < 64 && bits&((uint64(1)<<free)-1) != 0 {
		return Prefix{}, fmt.Errorf("prefix: bits %#x have nonzero free bits for length %d", bits, length)
	}
	if free == 64 && bits != 0 {
		return Prefix{}, fmt.Errorf("prefix: bits %#x must be zero for length 0", bits)
	}
	return Prefix{Bits: bits, Len: length, Width: width}, nil
}

// Interval returns the closed integer interval covered by the prefix.
func (p Prefix) Interval() interval.Interval {
	free := uint(p.Width - p.Len)
	if free >= 64 {
		return interval.MustNew(0, ^uint64(0))
	}
	lo := p.Bits
	hi := p.Bits | ((uint64(1) << free) - 1)
	return interval.MustNew(lo, hi)
}

// Contains reports whether the value v is covered by the prefix.
func (p Prefix) Contains(v uint64) bool {
	return p.Interval().Contains(v)
}

// String renders the prefix in binary with trailing '*' shorthand, e.g.
// "01*" for Bits=0b0100, Len=2, Width=4. A full-length prefix renders as
// the plain binary value; the zero-length prefix renders as "*".
func (p Prefix) String() string {
	if p.Len == 0 {
		return "*"
	}
	var sb strings.Builder
	for i := p.Width - 1; i >= p.Width-p.Len; i-- {
		if p.Bits>>uint(i)&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if p.Len < p.Width {
		sb.WriteByte('*')
	}
	return sb.String()
}

// FromInterval converts a closed interval within a w-bit domain into the
// minimal ordered list of prefixes covering exactly the interval. The list
// has at most 2w-2 entries (Gupta & McKeown); for a full domain it is the
// single zero-length prefix.
func FromInterval(iv interval.Interval, width int) ([]Prefix, error) {
	if width <= 0 || width > 64 {
		return nil, fmt.Errorf("prefix: width %d out of range (1..64)", width)
	}
	var domainMax uint64
	if width == 64 {
		domainMax = ^uint64(0)
	} else {
		domainMax = (uint64(1) << uint(width)) - 1
	}
	if iv.Hi > domainMax {
		return nil, fmt.Errorf("prefix: interval %v exceeds %d-bit domain", iv, width)
	}

	// Greedy: repeatedly emit the largest prefix that starts at lo and does
	// not extend past hi.
	var out []Prefix
	lo, hi := iv.Lo, iv.Hi
	for {
		// Largest block size starting at lo: 2^k where k = trailing zeros of
		// lo (k = width if lo == 0), capped so the block fits within hi.
		k := trailingZeros(lo, width)
		for k > 0 {
			blockHi := lo + (uint64(1)<<uint(k) - 1) // no overflow: k<=width, lo aligned
			if blockHi <= hi && blockHi >= lo {      // >=lo guards width==64 wrap
				break
			}
			k--
		}
		p, err := NewPrefix(lo, width-k, width)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		blockHi := lo + (uint64(1)<<uint(k) - 1)
		if blockHi >= hi {
			return out, nil
		}
		lo = blockHi + 1
	}
}

// trailingZeros returns the number of trailing zero bits of v, capped at
// width; for v == 0 it returns width (the whole domain is aligned).
func trailingZeros(v uint64, width int) int {
	if v == 0 {
		return width
	}
	n := 0
	for v&1 == 0 && n < width {
		n++
		v >>= 1
	}
	return n
}

// IPv4 formatting and parsing.

// FormatIPv4 renders a 32-bit integer as dotted-quad notation.
func FormatIPv4(v uint64) string {
	return string(AppendIPv4(nil, v))
}

// AppendIPv4 appends FormatIPv4's dotted quad to b and returns the
// extended slice.
func AppendIPv4(b []byte, v uint64) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(v>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// ParseIPv4 parses dotted-quad notation to a 32-bit integer: four
// '.'-separated octets of one or more decimal digits, each at most 255.
// It walks the bytes once and allocates only to build an error.
func ParseIPv4(s string) (uint64, error) {
	var v, octet uint64
	digits, dots := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			octet = octet*10 + uint64(c-'0')
			if octet > 255 {
				return 0, ipv4Error(s)
			}
			digits++
		case c == '.' && digits > 0 && dots < 3:
			v, octet, digits, dots = v<<8|octet, 0, 0, dots+1
		default:
			return 0, ipv4Error(s)
		}
	}
	if dots != 3 || digits == 0 {
		return 0, ipv4Error(s)
	}
	return v<<8 | octet, nil
}

// ipv4Error explains why s is not a dotted quad: the wrong number of
// octets, or strconv's reason for rejecting the first bad one.
func ipv4Error(s string) error {
	if strings.Count(s, ".") == 3 {
		for rest, more := s, true; more; {
			var part string
			part, rest, more = strings.Cut(rest, ".")
			if _, err := strconv.ParseUint(part, 10, 8); err != nil {
				return fmt.Errorf("prefix: invalid IPv4 address %q: %v", s, err)
			}
		}
	}
	return fmt.Errorf("prefix: invalid IPv4 address %q", s)
}

// ParseCIDR parses "a.b.c.d/len" (or a bare address, meaning /32) into the
// interval of addresses it covers. Host bits below the mask are permitted
// and zeroed, matching common firewall-config practice. The length is a
// decimal integer in [0, 32] with an optional sign, as strconv.Atoi reads
// it. Like ParseIPv4, it allocates only to build an error.
func ParseCIDR(s string) (interval.Interval, error) {
	addr := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, ok := parseCIDRLength(s[i+1:])
		if !ok {
			return interval.Interval{}, fmt.Errorf("prefix: invalid CIDR length in %q", s)
		}
		addr, length = s[:i], n
	}
	v, err := ParseIPv4(addr)
	if err != nil {
		return interval.Interval{}, err
	}
	host := uint64(1)<<uint(32-length) - 1
	return interval.Interval{Lo: v &^ host, Hi: v | host}, nil
}

// parseCIDRLength reads a prefix length the way strconv.Atoi would and
// accepts it when it lies in [0, 32]: an optional sign, then one or more
// decimal digits ("+8" and "-0" pass, "-1" and "33" do not).
func parseCIDRLength(s string) (int, bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg, s = s[0] == '-', s[1:]
	}
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n <= 32 { // past 32 the value is rejected anyway; stop growing
			n = n*10 + int(c-'0')
		}
	}
	if n > 32 || neg && n != 0 {
		return 0, false
	}
	return n, true
}

// FormatCIDRs renders an interval of IPv4 addresses as a comma-separated
// minimal list of CIDR blocks, e.g. "192.168.0.0/16". This is how
// discrepancy reports print IP fields (Section 7.1).
func FormatCIDRs(iv interval.Interval) (string, error) {
	ps, err := FromInterval(iv, 32)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		if p.Len == 32 {
			parts[i] = FormatIPv4(p.Bits)
		} else {
			parts[i] = fmt.Sprintf("%s/%d", FormatIPv4(p.Bits), p.Len)
		}
	}
	return strings.Join(parts, ","), nil
}

// ParsePortRange parses "p", "p-q", or "any" into an interval within
// [0, 65535].
func ParsePortRange(s string) (interval.Interval, error) {
	if strings.EqualFold(s, "any") || s == "*" {
		return interval.MustNew(0, 65535), nil
	}
	lo, hi := s, s
	if i := strings.IndexByte(s, '-'); i >= 0 {
		lo, hi = s[:i], s[i+1:]
	}
	l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 16)
	if err != nil {
		return interval.Interval{}, fmt.Errorf("prefix: invalid port range %q", s)
	}
	h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 16)
	if err != nil {
		return interval.Interval{}, fmt.Errorf("prefix: invalid port range %q", s)
	}
	if l > h {
		return interval.Interval{}, fmt.Errorf("prefix: inverted port range %q", s)
	}
	return interval.MustNew(l, h), nil
}
