package frontend

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/interval"
	"diversefw/internal/prefix"
	"diversefw/internal/rule"
)

// The iptables exporter is the importer's test oracle: the round-trip
// tests and FuzzImport check that an imported policy, written back out,
// reimports with the same semantics. It writes one -A line per
// simple-rule fragment, splitting multi-interval sets into several lines
// with the same target (first-match semantics make consecutive
// same-target lines order-insensitive among themselves).

// exportIptables writes the policy as iptables -A lines for the chain, followed
// by a -P line if the policy ends in a catch-all. Rules whose value sets
// are not expressible as a single iptables match are split into several
// consecutive lines with the same target.
func exportIptables(w io.Writer, p *rule.Policy, chain string) error {
	if !p.Schema.Equal(field.IPv4FiveTuple()) {
		return fmt.Errorf("iptables: export needs the five-tuple schema")
	}
	bw := bufio.NewWriter(w)
	rules := p.Rules
	if p.EndsWithCatchAll() {
		last := rules[len(rules)-1]
		rules = rules[:len(rules)-1]
		target := "ACCEPT"
		if last.Decision == rule.Discard || last.Decision == rule.DiscardLog {
			target = "DROP"
		}
		defer func() {
			fmt.Fprintf(bw, "-P %s %s\n", chain, target)
			bw.Flush()
		}()
	}
	for ri, r := range rules {
		lines, err := iptExportRule(p.Schema, r, chain)
		if err != nil {
			return fmt.Errorf("iptables: rule %d: %w", ri, err)
		}
		for _, l := range lines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}

// iptExportRule expands one rule into iptables lines: the cross product of
// per-address CIDR fragments, with ports folded into multiport lists.
func iptExportRule(schema *field.Schema, r rule.Rule, chain string) ([]string, error) {
	target := "ACCEPT"
	switch r.Decision {
	case rule.Accept, rule.AcceptLog:
	case rule.Discard, rule.DiscardLog:
		target = "DROP"
	default:
		return nil, fmt.Errorf("decision %v not expressible", r.Decision)
	}

	srcs, err := iptCIDRFragments(schema, fSrc, r.Pred[fSrc])
	if err != nil {
		return nil, err
	}
	dsts, err := iptCIDRFragments(schema, fDst, r.Pred[fDst])
	if err != nil {
		return nil, err
	}
	sport := iptPortFragment(schema, fSport, "--sports", r.Pred[fSport])
	dport := iptPortFragment(schema, fDport, "--dports", r.Pred[fDport])
	protos := iptProtoFragments(schema, r.Pred[fProto])

	multiport := sport != "" || dport != ""
	var out []string
	for _, s := range srcs {
		for _, d := range dsts {
			for _, pr := range protos {
				var sb strings.Builder
				fmt.Fprintf(&sb, "-A %s", chain)
				sb.WriteString(s)
				sb.WriteString(d)
				sb.WriteString(pr)
				if multiport {
					if pr == "" {
						// iptables port matches need a protocol; cover both.
						return nil, fmt.Errorf("port match requires a protocol")
					}
					sb.WriteString(" -m multiport")
					sb.WriteString(sport)
					sb.WriteString(dport)
				}
				fmt.Fprintf(&sb, " -j %s", target)
				out = append(out, sb.String())
			}
		}
	}
	return out, nil
}

// iptCIDRFragments renders an address set as " -s CIDR" fragments (one per
// covering prefix), or a single "" fragment for the full domain.
func iptCIDRFragments(schema *field.Schema, fi int, s interval.Set) ([]string, error) {
	if s.Equal(schema.FullSet(fi)) {
		return []string{""}, nil
	}
	flag := " -s "
	if fi == fDst {
		flag = " -d "
	}
	var out []string
	for _, iv := range s.Intervals() {
		ps, err := prefix.FromInterval(iv, 32)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if p.Len == 32 {
				out = append(out, flag+prefix.FormatIPv4(p.Bits))
			} else {
				out = append(out, fmt.Sprintf("%s%s/%d", flag, prefix.FormatIPv4(p.Bits), p.Len))
			}
		}
	}
	return out, nil
}

// iptPortFragment renders a port set as a multiport list fragment, or "" for
// the full domain.
func iptPortFragment(schema *field.Schema, fi int, flag string, s interval.Set) string {
	if s.Equal(schema.FullSet(fi)) {
		return ""
	}
	parts := make([]string, 0, s.NumIntervals())
	for _, iv := range s.Intervals() {
		if iv.Lo == iv.Hi {
			parts = append(parts, fmt.Sprintf("%d", iv.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d:%d", iv.Lo, iv.Hi))
		}
	}
	return " " + flag + " " + strings.Join(parts, ",")
}

// iptProtoFragments renders a protocol set as " -p name" fragments, or "" for
// the full domain.
func iptProtoFragments(schema *field.Schema, s interval.Set) []string {
	if s.Equal(schema.FullSet(fProto)) {
		return []string{""}
	}
	names := map[uint64]string{1: "icmp", 6: "tcp", 17: "udp"}
	var out []string
	s.Enumerate(func(v uint64) bool {
		if n, ok := names[v]; ok {
			out = append(out, " -p "+n)
		} else {
			out = append(out, fmt.Sprintf(" -p %d", v))
		}
		return true
	})
	return out
}
